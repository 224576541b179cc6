package linalg

import (
	"errors"
	"math"
	"testing"
)

// sqdKKT builds the reduced-KKT-shaped SQD test matrix
// [[D1, Aᵀ], [A, −D2]] with positive diagonals d1, d2.
func sqdKKT(d1, d2 []float64, a *Matrix) *Matrix {
	n, m := len(d1), len(d2)
	k := NewMatrix(n+m, n+m)
	for i, v := range d1 {
		k.Set(i, i, v)
	}
	for i, v := range d2 {
		k.Set(n+i, n+i, -v)
	}
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			k.Set(n+i, j, a.At(i, j))
			k.Set(j, n+i, a.At(i, j))
		}
	}
	return k
}

func TestLDLTMatchesLU(t *testing.T) {
	a := NewMatrix(2, 3)
	a.Set(0, 0, 1)
	a.Set(0, 1, 2)
	a.Set(0, 2, -1)
	a.Set(1, 0, 0.5)
	a.Set(1, 2, 3)
	k := sqdKKT([]float64{2, 0.5, 4}, []float64{1, 0.25}, a)
	b := Vector{1, -2, 3, 0.5, -1}

	want, err := SolveDense(k.Clone(), b)
	if err != nil {
		t.Fatalf("SolveDense: %v", err)
	}
	f, err := FactorizeLDLTInto(nil, k)
	if err != nil {
		t.Fatalf("FactorizeLDLTInto: %v", err)
	}
	got, err := f.Solve(b)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-10*(1+math.Abs(want[i])) {
			t.Fatalf("x[%d] = %v, LU reference %v", i, got[i], want[i])
		}
	}
}

func TestLDLTLargeRandomSQD(t *testing.T) {
	// Deterministic pseudo-random SQD system, big enough to exercise the
	// trailing-update loops across block boundaries.
	n, m := 17, 11
	a := NewMatrix(m, n)
	s := uint64(12345)
	next := func() float64 {
		s = s*6364136223846793005 + 1442695040888963407
		return float64(int64(s>>33))/float64(1<<30) - 1
	}
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			if v := next(); v > -0.5 { // leave some exact zeros for the skip path
				a.Set(i, j, v)
			}
		}
	}
	d1 := make([]float64, n)
	d2 := make([]float64, m)
	for i := range d1 {
		d1[i] = 0.1 + math.Abs(next())
	}
	for i := range d2 {
		d2[i] = 0.1 + math.Abs(next())
	}
	k := sqdKKT(d1, d2, a)
	b := NewVector(n + m)
	for i := range b {
		b[i] = next()
	}

	want, err := SolveDense(k.Clone(), b)
	if err != nil {
		t.Fatalf("SolveDense: %v", err)
	}
	f, err := FactorizeLDLTInto(nil, k)
	if err != nil {
		t.Fatalf("FactorizeLDLTInto: %v", err)
	}
	got, err := f.Solve(b)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-8*(1+math.Abs(want[i])) {
			t.Fatalf("x[%d] = %v, LU reference %v", i, got[i], want[i])
		}
	}
}

func TestLDLTErrors(t *testing.T) {
	rect := NewMatrix(2, 3)
	if _, err := FactorizeLDLTInto(nil, rect); !errors.Is(err, ErrNotSquare) {
		t.Fatalf("rectangular: err = %v, want ErrNotSquare", err)
	}
	zero := NewMatrix(2, 2)
	if _, err := FactorizeLDLTInto(nil, zero); !errors.Is(err, ErrSingular) {
		t.Fatalf("zero matrix: err = %v, want ErrSingular", err)
	}
	k := sqdKKT([]float64{1}, []float64{1}, NewMatrix(1, 1))
	f, err := FactorizeLDLTInto(nil, k)
	if err != nil {
		t.Fatalf("FactorizeLDLTInto: %v", err)
	}
	if err := f.SolveInPlace(NewVector(3)); !errors.Is(err, ErrDimensionMismatch) {
		t.Fatalf("bad rhs: err = %v, want ErrDimensionMismatch", err)
	}
}

func TestLDLTSolveRefine(t *testing.T) {
	a := NewMatrix(2, 3)
	a.Set(0, 0, 1)
	a.Set(0, 1, 2)
	a.Set(0, 2, -1)
	a.Set(1, 0, 0.5)
	a.Set(1, 2, 3)
	k := sqdKKT([]float64{2, 0.5, 4}, []float64{1, 0.25}, a)
	b := Vector{1, -2, 3, 0.5, -1}

	want, err := SolveDense(k.Clone(), b)
	if err != nil {
		t.Fatalf("SolveDense: %v", err)
	}
	f, err := FactorizeLDLTInto(nil, k)
	if err != nil {
		t.Fatalf("FactorizeLDLTInto: %v", err)
	}
	x := b.Clone()
	scratch := NewVector(2 * len(b))
	ratio, err := f.SolveRefineInPlace(k, x, scratch)
	if err != nil {
		t.Fatalf("SolveRefineInPlace: %v", err)
	}
	if ratio >= 0.5 {
		t.Fatalf("refinement ratio %v on a well-conditioned system, want ≪ 0.5", ratio)
	}
	for i := range want {
		if math.Abs(x[i]-want[i]) > 1e-12*(1+math.Abs(want[i])) {
			t.Fatalf("x[%d] = %v, LU reference %v", i, x[i], want[i])
		}
	}
	// The original rhs survives in scratch[:n] so a caller can retry the
	// solve through a different factorization after a failed refinement.
	for i := range b {
		if scratch[i] != b[i] {
			t.Fatalf("scratch[%d] = %v, want preserved rhs %v", i, scratch[i], b[i])
		}
	}
	if _, err := f.SolveRefineInPlace(k, x, NewVector(3)); !errors.Is(err, ErrDimensionMismatch) {
		t.Fatalf("short scratch: err = %v, want ErrDimensionMismatch", err)
	}
}

func TestLDLTSolveRefineAllocs(t *testing.T) {
	a := NewMatrix(1, 2)
	a.Set(0, 0, 1)
	a.Set(0, 1, -2)
	k := sqdKKT([]float64{2, 3}, []float64{1}, a)
	b := Vector{1, 2, 3}
	f, err := FactorizeLDLTInto(nil, k)
	if err != nil {
		t.Fatalf("FactorizeLDLTInto: %v", err)
	}
	x := b.Clone()
	scratch := NewVector(2 * len(b))
	allocs := testing.AllocsPerRun(100, func() {
		copy(x, b)
		if _, err := f.SolveRefineInPlace(k, x, scratch); err != nil {
			t.Fatalf("SolveRefineInPlace: %v", err)
		}
	})
	if allocs != 0 {
		t.Fatalf("refined solve allocated %v times per run, want 0", allocs)
	}
}

func TestLDLTFactorizeIntoReuses(t *testing.T) {
	a := NewMatrix(1, 2)
	a.Set(0, 0, 1)
	a.Set(0, 1, -2)
	k := sqdKKT([]float64{2, 3}, []float64{1}, a)
	b := Vector{1, 2, 3}

	f, err := FactorizeLDLTInto(nil, k)
	if err != nil {
		t.Fatalf("FactorizeLDLTInto: %v", err)
	}
	x := b.Clone()
	allocs := testing.AllocsPerRun(100, func() {
		g, err := FactorizeLDLTInto(f, k)
		if err != nil {
			t.Fatalf("FactorizeLDLTInto: %v", err)
		}
		f = g
		copy(x, b)
		if err := f.SolveInPlace(x); err != nil {
			t.Fatalf("SolveInPlace: %v", err)
		}
	})
	if allocs != 0 {
		t.Fatalf("re-factorize + solve allocated %v times per run, want 0", allocs)
	}
	want, err := SolveDense(k.Clone(), b)
	if err != nil {
		t.Fatalf("SolveDense: %v", err)
	}
	for i := range want {
		if math.Abs(x[i]-want[i]) > 1e-12*(1+math.Abs(want[i])) {
			t.Fatalf("x[%d] = %v, LU reference %v", i, x[i], want[i])
		}
	}
}
