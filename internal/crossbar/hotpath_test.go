package crossbar

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"github.com/memlp/memlp/internal/linalg"
	"github.com/memlp/memlp/internal/memristor"
	"github.com/memlp/memlp/internal/variation"
)

// TestAnalogReadAllocations pins the //memlp:hotpath contract at runtime:
// after warm-up, the per-iteration analog read kernels (MatVec, its
// ToAnalog and MatVecAnalog halves, residual read, linear solve) and the
// row refresh run without allocating — all results live in crossbar-owned
// scratch — under the per-element converter and under GlobalIORange. The
// memlpvet hotpath analyzer enforces the same property at the source level
// for the annotated leaf kernels.
func TestAnalogReadAllocations(t *testing.T) {
	for _, global := range []bool{false, true} {
		analogReadAllocations(t, global)
	}
}

func analogReadAllocations(t *testing.T, global bool) {
	const n = 16
	mode := "per-element"
	if global {
		mode = "GlobalIORange"
	}
	r := rand.New(rand.NewSource(7))
	cfg := idealConfig(n)
	cfg.DeltaWriteBits = 8
	cfg.GlobalIORange = global
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
		t.Errorf("%s: MatVec allocates %.0f per call after warm-up, want 0", mode, allocs)
	}
	vi := linalg.NewVector(n)
	if allocs := testing.AllocsPerRun(50, func() {
		inScale, err := x.ToAnalog(vi, v)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := x.MatVecAnalog(vi, inScale); err != nil {
			t.Fatal(err)
		}
	}); allocs > 0 {
		t.Errorf("%s: ToAnalog + MatVecAnalog allocate %.0f per call after warm-up, want 0", mode, allocs)
	}
	if allocs := testing.AllocsPerRun(50, func() {
		if _, err := x.MatVecResidual(base, v, nil); err != nil {
			t.Fatal(err)
		}
	}); allocs > 0 {
		t.Errorf("%s: MatVecResidual allocates %.0f per call after warm-up, want 0", mode, allocs)
	}
	if allocs := testing.AllocsPerRun(50, func() {
		if _, err := x.Solve(base); err != nil {
			t.Fatal(err)
		}
	}); allocs > 0 {
		t.Errorf("%s: Solve allocates %.0f per call after warm-up, want 0", mode, allocs)
	}
	writes := x.Counters().CellWrites
	k := 0
	if allocs := testing.AllocsPerRun(50, func() {
		k++
		if err := x.UpdateRow(3, rows[k%2]); err != nil {
			t.Fatal(err)
		}
	}); allocs > 0 {
		t.Errorf("%s: UpdateRow allocates %.0f per call after warm-up, want 0", mode, allocs)
	}
	if x.Counters().CellWrites == writes {
		t.Errorf("%s: the measured refreshes wrote no cell", mode)
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
// cell computes, on a dense array, on one whose cells are mostly gated off,
// and on the two arrays that take the attenuating kernel: one with IR drop,
// and one whose cells have drifted for a few settles.
func TestSenseRowMatchesMatVec(t *testing.T) {
	const n = 8
	dense := func(r *rand.Rand) *linalg.Matrix { return randomNonNegMatrix(r, n) }
	sparse := func(r *rand.Rand) *linalg.Matrix { return randomSparseNonNegMatrix(r, n, 0.2) }
	irDrop := idealConfig(n)
	irDrop.WireResistance = 2
	drift := idealConfig(n)
	drift.Faults = &memristor.FaultModel{DriftPerCycle: 0.05, Seed: 3}
	for _, tc := range []struct {
		name string
		cfg  Config
		a    func(r *rand.Rand) *linalg.Matrix
		// settles ages a drifting array by one retention cycle each.
		settles int
		// attenuated says effG changes some cell, so the plain kernel
		// would miss.
		attenuated bool
	}{
		{"dense", idealConfig(n), dense, 0, false},
		{"sparse", idealConfig(n), sparse, 0, false},
		{"ir-drop", irDrop, sparse, 0, true},
		{"drift", drift, sparse, 3, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := rand.New(rand.NewSource(11))
			x := mustNew(t, tc.cfg)
			if err := x.Program(tc.a(r)); err != nil {
				t.Fatalf("Program: %v", err)
			}
			v := linalg.NewVector(n)
			for i := range v {
				v[i] = r.Float64()
			}
			for k := 0; k < tc.settles; k++ {
				if _, err := x.Solve(v); err != nil {
					t.Fatalf("Solve: %v", err)
				}
			}
			vi := linalg.NewVector(n)
			if _, err := x.ToAnalog(vi, v); err != nil {
				t.Fatalf("ToAnalog: %v", err)
			}
			gs := senseConductance
			p := x.pattern()
			attenuated := false
			for i := 0; i < n; i++ {
				num, sum := x.senseRow(i, p.Row(i), vi)
				wantNum, wantSum := denseSenseRow(x, i, vi)
				if !linalg.Identical(num, wantNum) || !linalg.Identical(sum, wantSum) {
					t.Fatalf("senseRow(%d) = (%v, %v), want (%v, %v)", i, num, sum, wantNum, wantSum)
				}
				if wantSum+gs == 0 {
					t.Fatalf("row %d: degenerate total conductance", i)
				}
				var plain float64
				for _, g := range x.gt.RawRow(i) {
					plain += g
				}
				if !linalg.Identical(wantSum, plain) {
					attenuated = true
				}
			}
			if attenuated != tc.attenuated {
				t.Fatalf("effG attenuates some cell: %v, want %v", attenuated, tc.attenuated)
			}
		})
	}
}

// TestMatVecAnalogMatchesMatVec pins the split read: an input converted by
// one array's ToAnalog and read by another array of the same configuration
// through MatVecAnalog gives MatVec's exact bits, and the reading array's
// counters advance exactly as MatVec's do, by one multiply and one
// conversion per input and output, while ToAnalog counts nothing.
// It covers the per-element converter and the shared full-scale range.
func TestMatVecAnalogMatchesMatVec(t *testing.T) {
	const rows, cols = 6, 9
	for _, global := range []bool{false, true} {
		t.Run(fmt.Sprintf("global=%v", global), func(t *testing.T) {
			r := rand.New(rand.NewSource(19))
			cfg := Config{Size: cols, IOBits: 8, GlobalIORange: global}
			a := linalg.NewMatrix(rows, cols)
			for i := 0; i < rows; i++ {
				for j := 0; j < cols; j++ {
					if r.Float64() < 0.5 {
						a.Set(i, j, r.Float64()*3)
					}
				}
			}
			direct, split, conv := mustNew(t, cfg), mustNew(t, cfg), mustNew(t, cfg)
			for _, x := range []*Crossbar{direct, split, conv} {
				if err := x.Program(a); err != nil {
					t.Fatalf("Program: %v", err)
				}
			}
			inputs := []linalg.Vector{linalg.NewVector(cols)}
			for k := 0; k < 20; k++ {
				v := linalg.NewVector(cols)
				for j := range v {
					v[j] = math.Ldexp(r.NormFloat64(), r.Intn(40)-20)
				}
				inputs = append(inputs, v)
			}
			vi := linalg.NewVector(cols)
			for k, v := range inputs {
				before, convBefore := split.Counters(), conv.Counters()
				wantCtr := direct.Counters()
				want, err := direct.MatVec(v)
				if err != nil {
					t.Fatalf("MatVec: %v", err)
				}
				inScale, err := conv.ToAnalog(vi, v)
				if err != nil {
					t.Fatalf("ToAnalog: %v", err)
				}
				got, err := split.MatVecAnalog(vi, inScale)
				if err != nil {
					t.Fatalf("MatVecAnalog: %v", err)
				}
				requireBitIdentical(t, got, want, fmt.Sprintf("input %d", k))
				// One read converts every input and every output once.
				one := Counters{MatVecOps: 1, IOConversions: rows + cols}
				if d, w := split.Counters().Sub(before), direct.Counters().Sub(wantCtr); d != one || w != one {
					t.Fatalf("input %d: MatVecAnalog counts %+v, MatVec %+v, want %+v", k, d, w, one)
				}
				if conv.Counters() != convBefore {
					t.Fatalf("input %d: ToAnalog counted %+v", k, conv.Counters().Sub(convBefore))
				}
			}
		})
	}
}
