package linalg

import (
	"math"
	"slices"
	"testing"
)

// TestPatternScan pins what counts as a non-zero (NaN does, a signed zero
// does not) and that rescanning reuses storage across shapes.
func TestPatternScan(t *testing.T) {
	var p Pattern
	if p.Rows() != 0 {
		t.Fatalf("zero Pattern has %d rows", p.Rows())
	}
	a := mustMatrix(t, [][]float64{
		{0, 2, math.Copysign(0, -1)},
		{math.NaN(), 0, 0},
		{0, 0, 0},
		{1, 1, 1},
	})
	p.Scan(a)
	want := [][]int32{{1}, {0}, {}, {0, 1, 2}}
	if p.Rows() != len(want) {
		t.Fatalf("Rows = %d, want %d", p.Rows(), len(want))
	}
	for i, w := range want {
		if got := p.Row(i); !slices.Equal(got, w) {
			t.Errorf("Row(%d) = %v, want %v", i, got, w)
		}
	}

	// Same or fewer non-zeros, any shape: no new storage.
	b := mustMatrix(t, [][]float64{{3, 0}, {0, 4}})
	if allocs := testing.AllocsPerRun(10, func() { p.Scan(b); p.Scan(a) }); allocs > 0 {
		t.Errorf("rescans allocate %.0f times, want 0", allocs)
	}
	p.Scan(b)
	if p.Rows() != 2 || !slices.Equal(p.Row(0), []int32{0}) || !slices.Equal(p.Row(1), []int32{1}) {
		t.Errorf("rescanned pattern rows %v %v", p.Row(0), p.Row(1))
	}
}

// TestPatternBuild pins the row-by-row builder Scan is made of: rows with
// no cells, and more cells than Start reserved, which stays correct.
func TestPatternBuild(t *testing.T) {
	var p Pattern
	want := [][]int32{{2, 5}, {}, {0, 1, 3, 4}}
	for _, nnz := range []int{2, 6} {
		p.Start(len(want), nnz)
		for i, row := range want {
			for _, j := range row {
				p.Add(int(j))
			}
			p.EndRow(i)
		}
		if p.Rows() != len(want) || p.NNZ() != 6 {
			t.Fatalf("reserved %d: %d rows, %d cells", nnz, p.Rows(), p.NNZ())
		}
		for i, w := range want {
			if got := p.Row(i); !slices.Equal(got, w) {
				t.Errorf("reserved %d: Row(%d) = %v, want %v", nnz, i, got, w)
			}
		}
	}
}
