package core

import (
	"math/rand"
	"testing"

	"github.com/memlp/memlp/internal/linalg"
	"github.com/memlp/memlp/internal/lp"
)

// TestIterationKernelAllocations pins the //memlp:hotpath contract for the
// PDIP per-iteration kernels at runtime: once their inputs exist, the
// annotated leaf functions must not allocate. The memlpvet hotpath analyzer
// enforces the same property at the source level.
func TestIterationKernelAllocations(t *testing.T) {
	const n = 64
	r := rand.New(rand.NewSource(3))
	vec := func() linalg.Vector {
		v := linalg.NewVector(n)
		for i := range v {
			v[i] = r.Float64() + 0.5
		}
		return v
	}
	x, y, w, z := vec(), vec(), vec(), vec()
	dx, dy := vec(), vec()
	for i := range dx {
		dx[i] -= 1 // mix of signs for the ratio test
	}
	pairs := [][2]linalg.Vector{{x, dx}, {y, dy}}
	vs := []linalg.Vector{x, y}
	stop := newStopRule(lp.Tolerances{}.WithDefaults(), 10)
	best := &snapshot{ok: true, pinf: 1, dinf: 1, gap: 1}
	p, err := lp.GenerateFeasible(lp.GenConfig{Constraints: 12, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	pn, pm := p.NumVariables(), p.NumConstraints()
	ext, err := newExtended(p, x[:pn], y[:pm], w[:pm], z[:pn])
	if err != nil {
		t.Fatal(err)
	}
	sExt := ext.stateVector(x[:pn], y[:pm], w[:pm], z[:pn])
	base, factor := ext.baseVector(p, 0.5), ext.factor

	kernels := []struct {
		name string
		run  func()
	}{
		{"lp.DualityGap", func() { _ = lp.DualityGap(x, z, y, w) }},
		{"stepLength", func() { _ = stepLength(0.9, pairs) }},
		{"clampPositive", func() { clampPositive(vs...) }},
		{"slewLimit", func() { _ = slewLimit(x, dx) }},
		{"normInfRange", func() { _ = normInfRange(x, 8, 16) }},
		{"stopRule.check", func() { _, _ = stop.check(1, 1, 1, x, y, best, false) }},
		{"extended.residual", func() { _ = ext.residual(base, sExt, factor) }},
	}
	for _, k := range kernels {
		if allocs := testing.AllocsPerRun(100, k.run); allocs > 0 {
			t.Errorf("%s allocates %.0f per call, want 0", k.name, allocs)
		}
	}
}
