package core

import (
	"math"
	"slices"
	"testing"

	"github.com/memlp/memlp/internal/cone"
	"github.com/memlp/memlp/internal/linalg"
	"github.com/memlp/memlp/internal/lp"
)

// scannedPattern derives e's pattern by scanning: a copy of the extended
// matrix with every r3/r4 cell fillDiagRows can write set to 1, both sides
// of each conic sign-split pair included, reduced to its non-zeros.
func scannedPattern(e *extended) *linalg.Pattern {
	mtx := e.matrix.Clone()
	for i := 0; i < e.n; i++ {
		mtx.Set(e.rowR3(i), e.colX(i), 1)
		mtx.Set(e.rowR3(i), e.colZ(i), 1)
	}
	for i := 0; i < e.m; i++ {
		if !e.cones.InCone(i) {
			mtx.Set(e.rowR4(i), e.colY(i), 1)
			mtx.Set(e.rowR4(i), e.colW(i), 1)
		}
	}
	for _, blk := range e.cones.Blocks {
		for i := blk.Start; i < blk.Start+blk.Dim; i++ {
			r := e.rowR4(i)
			for k := blk.Start; k < blk.Start+blk.Dim; k++ {
				mtx.Set(r, e.colY(k), 1)
				mtx.Set(r, e.colP(e.pOfY[k]), 1)
				mtx.Set(r, e.colW(k), 1)
				mtx.Set(r, e.colU(k), 1)
			}
		}
	}
	var pat linalg.Pattern
	pat.Scan(mtx)
	return &pat
}

// TestExtendedPatternMatchesScan: the pattern newExtendedInto builds row by
// row equals the scanned one cell for cell, so residualMACs and every
// modeled cost charged from it are unchanged. The cases run through one
// reused system, shrinking and growing it.
func TestExtendedPatternMatchesScan(t *testing.T) {
	negZero := math.Copysign(0, -1)
	socp, _ := socpTestProblem(t)
	genSOCP, err := lp.GenerateFeasibleSOCP(lp.SOCGenConfig{GenConfig: lp.GenConfig{Constraints: 10, Seed: 3}, Blocks: 2, BlockDim: 4})
	if err != nil {
		t.Fatal(err)
	}
	genLP, err := lp.GenerateFeasible(lp.GenConfig{Constraints: 12, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		p    *lp.Problem
	}{
		{"negative entries", mustProblem(t, linalg.VectorOf(1, 2),
			mustMatrix(t, [][]float64{{1, -2}, {-3, 4}, {0.5, 1}}), linalg.VectorOf(5, 5, 5))},
		{"generated LP", genLP},
		{"nonnegative", mustProblem(t, linalg.VectorOf(1, 1, 1),
			mustMatrix(t, [][]float64{{1, 2, 0.5}, {3, 1, 2}}), linalg.VectorOf(4, 6))},
		{"explicit zeros", mustProblem(t, linalg.VectorOf(1, 1, 1),
			mustMatrix(t, [][]float64{{1, 0, -2}, {0, 0, 3}, {negZero, 2, 0}}), linalg.VectorOf(4, 6, 2))},
		{"SOCP", socp},
		{"generated SOCP", genSOCP},
	}
	var e *extended
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := tc.p
			n, m := p.NumVariables(), p.NumConstraints()
			x, z := linalg.Ones(n), linalg.Ones(n)
			y, w := linalg.Ones(m), linalg.Ones(m)
			cone.InitInterior(y, p.SOCBlocks())
			cone.InitInterior(w, p.SOCBlocks())
			got, err := newExtendedInto(e, p, x, y, w, z)
			if err != nil {
				t.Fatalf("newExtendedInto: %v", err)
			}
			e = got
			want := scannedPattern(e)
			if e.pat.Rows() != want.Rows() || e.pat.NNZ() != want.NNZ() {
				t.Fatalf("built pattern has %d rows and %d cells, scan has %d and %d",
					e.pat.Rows(), e.pat.NNZ(), want.Rows(), want.NNZ())
			}
			for i := 0; i < want.Rows(); i++ {
				if !slices.Equal(e.pat.Row(i), want.Row(i)) {
					t.Fatalf("row %d: built %v, scan %v", i, e.pat.Row(i), want.Row(i))
				}
			}
		})
	}
}
