package crossbar

import (
	"math/rand"
	"testing"

	"github.com/memlp/memlp/internal/linalg"
)

// TestAnalogReadAllocations pins the //memlp:hotpath contract at runtime:
// after warm-up, the per-iteration analog read kernels (MatVec, residual
// read, linear solve) run without allocating — all results live in
// crossbar-owned scratch. The memlpvet hotpath analyzer enforces the same
// property at the source level for the annotated leaf kernels.
func TestAnalogReadAllocations(t *testing.T) {
	const n = 16
	r := rand.New(rand.NewSource(7))
	x := mustNew(t, idealConfig(n))
	if err := x.Program(randomNonNegMatrix(r, n)); err != nil {
		t.Fatalf("Program: %v", err)
	}
	v := linalg.NewVector(n)
	base := linalg.NewVector(n)
	for i := range v {
		v[i] = r.Float64()
		base[i] = r.Float64()
	}
	// Warm-up populates the scratch buffers.
	if _, err := x.MatVec(v); err != nil {
		t.Fatalf("MatVec warm-up: %v", err)
	}
	if _, err := x.MatVecResidual(base, v, nil); err != nil {
		t.Fatalf("MatVecResidual warm-up: %v", err)
	}
	if _, err := x.Solve(base); err != nil {
		t.Fatalf("Solve warm-up: %v", err)
	}

	if allocs := testing.AllocsPerRun(50, func() {
		if _, err := x.MatVec(v); err != nil {
			t.Fatal(err)
		}
	}); allocs > 0 {
		t.Errorf("MatVec allocates %.0f per call after warm-up, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(50, func() {
		if _, err := x.MatVecResidual(base, v, nil); err != nil {
			t.Fatal(err)
		}
	}); allocs > 0 {
		t.Errorf("MatVecResidual allocates %.0f per call after warm-up, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(50, func() {
		if _, err := x.Solve(base); err != nil {
			t.Fatal(err)
		}
	}); allocs > 0 {
		t.Errorf("Solve allocates %.0f per call after warm-up, want 0", allocs)
	}
}

// TestSenseRowMatchesMatVec keeps the extracted kernel honest: walking a
// row's pattern, senseRow must reproduce exactly what a dense walk of every
// cell computes, on a dense array and on one whose cells are mostly gated
// off.
func TestSenseRowMatchesMatVec(t *testing.T) {
	const n = 8
	for _, tc := range []struct {
		name string
		a    func(r *rand.Rand) *linalg.Matrix
	}{
		{"dense", func(r *rand.Rand) *linalg.Matrix { return randomNonNegMatrix(r, n) }},
		{"sparse", func(r *rand.Rand) *linalg.Matrix { return randomSparseNonNegMatrix(r, n, 0.2) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := rand.New(rand.NewSource(11))
			x := mustNew(t, idealConfig(n))
			if err := x.Program(tc.a(r)); err != nil {
				t.Fatalf("Program: %v", err)
			}
			v := linalg.NewVector(n)
			for i := range v {
				v[i] = r.Float64()
			}
			vi, _, err := x.toAnalog(v)
			if err != nil {
				t.Fatalf("toAnalog: %v", err)
			}
			gs := x.cfg.SenseConductance
			p := x.pattern()
			for i := 0; i < n; i++ {
				num, sum := x.senseRow(i, p.Row(i), vi)
				wantNum, wantSum := denseSenseRow(x, i, vi)
				if !linalg.Identical(num, wantNum) || !linalg.Identical(sum, wantSum) {
					t.Fatalf("senseRow(%d) = (%v, %v), want (%v, %v)", i, num, sum, wantNum, wantSum)
				}
				if wantSum+gs == 0 {
					t.Fatalf("row %d: degenerate total conductance", i)
				}
			}
		})
	}
}
