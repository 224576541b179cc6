package core

import (
	"math/rand"
	"testing"

	"github.com/memlp/memlp/internal/cone"
	"github.com/memlp/memlp/internal/linalg"
)

// TestConicKernelAllocations pins the //memlp:hotpath contract for the conic
// per-iteration kernels: once the extended system and its NT scalings exist,
// the SOC-aware refresh, residual, step-length and clamp paths must not
// allocate. Complements TestIterationKernelAllocations for the LP kernels
// and the memlpvet hotpath analyzer's source-level check.
func TestConicKernelAllocations(t *testing.T) {
	p, _ := socpTestProblem(t)
	n, m := p.NumVariables(), p.NumConstraints()
	x, z := linalg.Ones(n), linalg.Ones(n)
	y, w := linalg.Ones(m), linalg.Ones(m)
	blocks := p.SOCBlocks()
	cone.InitInterior(y, blocks)
	cone.InitInterior(w, blocks)
	ext, err := newExtended(p, x, y, w, z)
	if err != nil {
		t.Fatalf("newExtended: %v", err)
	}
	if !ext.cones.Conic() {
		t.Fatal("extended system is not conic")
	}

	r := rand.New(rand.NewSource(5))
	dvec := func(k int) linalg.Vector {
		v := linalg.NewVector(k)
		for i := range v {
			v[i] = r.Float64() - 0.5
		}
		return v
	}
	dx, dz := dvec(n), dvec(n)
	dy, dw := dvec(m), dvec(m)
	res := linalg.NewVector(m)

	kernels := []struct {
		name string
		run  func()
	}{
		{"cones.Update", func() { _ = ext.cones.Update(w, y) }},
		{"fillDiagRows", func() { ext.fillDiagRows(x, y, w, z) }},
		{"cones.SlackDist", func() { _ = ext.cones.SlackDist(res, w) }},
		{"stepLengthConic", func() { _ = stepLengthConic(0.9, ext, x, dx, y, dy, w, dw, z, dz) }},
		{"ratioConePinned", func() { _ = ratioConePinned(0, y, dy, ext.cones.Blocks) }},
		{"ratioOrthant", func() { _ = ratioOrthant(0, y, dy, &ext.cones) }},
		{"ratioFull", func() { _ = ratioFull(0, x, dx) }},
		{"coneFloorOrthant", func() { cone.FloorOrthant(y, ext.cones.Blocks, iterFloor) }},
		{"coneClampInterior", func() { cone.ClampInterior(y, ext.cones.Blocks, iterFloor) }},
	}
	for _, k := range kernels {
		if allocs := testing.AllocsPerRun(100, k.run); allocs > 0 {
			t.Errorf("%s allocates %.0f per call, want 0", k.name, allocs)
		}
	}
}
