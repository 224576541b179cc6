package linalg

import "testing"

// benchKKT builds a reduced-KKT-shaped SQD system of PDIP size n+m with a
// deterministic pseudo-random A block and well-separated positive diagonals.
func benchKKT(n, m int) (*Matrix, Vector) {
	a := NewMatrix(m, n)
	s := uint64(99)
	next := func() float64 {
		s = s*6364136223846793005 + 1442695040888963407
		return float64(int64(s>>33))/float64(1<<30) - 1
	}
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			if v := next(); v > -0.4 {
				a.Set(i, j, v)
			}
		}
	}
	d1 := make([]float64, n)
	d2 := make([]float64, m)
	for i := range d1 {
		d1[i] = 0.1 + next()*next()
	}
	for i := range d2 {
		d2[i] = 0.1 + next()*next()
	}
	k := sqdKKT(d1, d2, a)
	b := NewVector(n + m)
	for i := range b {
		b[i] = next()
	}
	return k, b
}

// BenchmarkLDLT measures the reduced-KKT hot path as the PDIP iteration runs
// it: re-factorize the same-shaped SQD matrix into reused storage, then solve
// with one refinement step. Compare against BenchmarkLUKKT for the structured
// LDLᵀ speedup.
func BenchmarkLDLT(b *testing.B) {
	k, rhs := benchKKT(48, 32)
	f, err := FactorizeLDLTInto(nil, k)
	if err != nil {
		b.Fatal(err)
	}
	x := rhs.Clone()
	scratch := NewVector(2 * len(rhs))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, err = FactorizeLDLTInto(f, k)
		if err != nil {
			b.Fatal(err)
		}
		copy(x, rhs)
		if _, err := f.SolveRefineInPlace(k, x, scratch); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLUKKT is the dense partial-pivoted LU baseline on the same
// reduced KKT system, factorization storage reused the same way.
func BenchmarkLUKKT(b *testing.B) {
	k, rhs := benchKKT(48, 32)
	f, err := Factorize(k)
	if err != nil {
		b.Fatal(err)
	}
	x := rhs.Clone()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, err = FactorizeInto(f, k)
		if err != nil {
			b.Fatal(err)
		}
		copy(x, rhs)
		if err := f.SolveInPlace(x); err != nil {
			b.Fatal(err)
		}
	}
}
