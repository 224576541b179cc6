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
