package crossbar

import (
	"math/rand"
	"testing"

	"github.com/memlp/memlp/internal/linalg"
	"github.com/memlp/memlp/internal/variation"
)

// TestAnalogReadAllocations pins the //memlp:hotpath contract at runtime:
// after warm-up, the per-iteration analog read kernels (MatVec, residual
// read, linear solve) and the row refresh run without allocating — all
// results live in crossbar-owned scratch. The memlpvet hotpath analyzer
// enforces the same property at the source level for the annotated leaf
// kernels.
func TestAnalogReadAllocations(t *testing.T) {
	const n = 16
	r := rand.New(rand.NewSource(7))
	cfg := idealConfig(n)
	cfg.DeltaWriteBits = 8
	x := mustNew(t, cfg)
	if err := x.Program(randomNonNegMatrix(r, n)); err != nil {
		t.Fatalf("Program: %v", err)
	}
	v := linalg.NewVector(n)
	base := linalg.NewVector(n)
	for i := range v {
		v[i] = r.Float64()
		base[i] = r.Float64()
	}
	// Two refresh rows whose patterns differ, so alternating them writes,
	// skips and clears cells.
	rows := [2]linalg.Vector{linalg.NewVector(n), linalg.NewVector(n)}
	rows[0][2], rows[0][3] = 1, 2
	rows[1][3], rows[1][9] = 3, 0.5
	// Warm-up populates the scratch buffers and the live-cell masks.
	if _, err := x.MatVec(v); err != nil {
		t.Fatalf("MatVec warm-up: %v", err)
	}
	if _, err := x.MatVecResidual(base, v, nil); err != nil {
		t.Fatalf("MatVecResidual warm-up: %v", err)
	}
	if _, err := x.Solve(base); err != nil {
		t.Fatalf("Solve warm-up: %v", err)
	}
	if err := x.UpdateRow(3, rows[0]); err != nil {
		t.Fatalf("UpdateRow warm-up: %v", err)
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
	writes := x.Counters().CellWrites
	k := 0
	if allocs := testing.AllocsPerRun(50, func() {
		k++
		if err := x.UpdateRow(3, rows[k%2]); err != nil {
			t.Fatal(err)
		}
	}); allocs > 0 {
		t.Errorf("UpdateRow allocates %.0f per call after warm-up, want 0", allocs)
	}
	if x.Counters().CellWrites == writes {
		t.Error("the measured refreshes wrote no cell")
	}
}

// TestProgramAllocations pins that an array programmed once at its largest
// shape programs again, at the same shape or a smaller one, without
// allocating: every buffer keeps its capacity, and the variation draw, the
// delta levels, the live masks and the pattern are rebuilt in place.
func TestProgramAllocations(t *testing.T) {
	const n = 24
	r := rand.New(rand.NewSource(5))
	vm, err := variation.NewPaperModel(0.05, 3)
	if err != nil {
		t.Fatalf("NewPaperModel: %v", err)
	}
	cfg := idealConfig(n)
	cfg.Variation = vm
	cfg.CycleNoise = 0.25
	cfg.DeltaWriteBits = 8
	x := mustNew(t, cfg)
	large := randomSparseNonNegMatrix(r, n, 0.1)
	small := randomSparseNonNegMatrix(r, n-5, 0.2)
	for _, a := range []*linalg.Matrix{large, small} {
		if err := x.Program(a); err != nil {
			t.Fatalf("Program %dx%d: %v", a.Rows(), a.Cols(), err)
		}
	}
	for _, tc := range []struct {
		name string
		seq  []*linalg.Matrix
	}{
		{"same shape", []*linalg.Matrix{large}},
		{"smaller shape", []*linalg.Matrix{small, large}},
	} {
		if allocs := testing.AllocsPerRun(20, func() {
			for _, a := range tc.seq {
				if err := x.Program(a); err != nil {
					t.Fatal(err)
				}
			}
		}); allocs > 0 {
			t.Errorf("Program at the %s allocates %.0f per call once sized, want 0", tc.name, allocs)
		}
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
