package noc

import (
	"math"
	"math/rand"
	"testing"

	"github.com/memlp/memlp/internal/crossbar"
	"github.com/memlp/memlp/internal/linalg"
	"github.com/memlp/memlp/internal/lp"
	"github.com/memlp/memlp/internal/memristor"
	"github.com/memlp/memlp/internal/variation"
)

// signedFabric programs the constraint matrix of a pdhg-tiled-shaped 48×36
// problem on a signed fabric of 16-wide mesh tiles, each array at its own
// epoch.
func signedFabric(t *testing.T, xcfg crossbar.Config) *TiledFabric {
	t.Helper()
	p, err := lp.GenerateFeasible(lp.GenConfig{Constraints: 48, Variables: 36, Seed: 3})
	if err != nil {
		t.Fatalf("GenerateFeasible: %v", err)
	}
	f, err := NewSigned(Config{Topology: Mesh, TileSize: 16, Crossbar: xcfg}, func(i, j, side int) int64 {
		return int64((i*3+j)*2 + side)
	})
	if err != nil {
		t.Fatalf("NewSigned: %v", err)
	}
	if err := f.ProgramUnpriced(p.A); err != nil {
		t.Fatalf("ProgramUnpriced: %v", err)
	}
	return f
}

// noisyConfig is the stochastic hardware stack of PDHG's determinism pins:
// static variation, cycle-to-cycle noise, and permanent defects with write
// noise.
func noisyConfig(t *testing.T, seed int64) crossbar.Config {
	t.Helper()
	vm, err := variation.NewPaperModel(0.05, seed)
	if err != nil {
		t.Fatalf("variation model: %v", err)
	}
	return crossbar.Config{
		Variation:  vm,
		CycleNoise: 0.25,
		Faults: &memristor.FaultModel{
			StuckOnDensity:  0.002,
			StuckOffDensity: 0.002,
			Seed:            seed,
			WriteNoise:      0.01,
		},
	}
}

// randomInput returns a vector of mixed signs and magnitudes with some
// exact zeros, as projected PDHG iterates hold.
func randomInput(r *rand.Rand, n int) linalg.Vector {
	v := linalg.NewVector(n)
	for i := range v {
		if r.Intn(4) > 0 {
			v[i] = math.Ldexp(r.NormFloat64(), r.Intn(12)-6)
		}
	}
	return v
}

// perArrayRead is the read before the controller converted each segment
// once: every array converts its own segment through MatVec, and the
// differential partials are reduced in row-major tile order.
func perArrayRead(f *TiledFabric, out, v linalg.Vector) error {
	out.Fill(0)
	for k, tl := range f.tiles {
		rlo, rhi, clo, chi := f.span(k/f.gridC, k%f.gridC)
		pv, err := tl.xb[0].MatVec(v[clo:chi])
		if err != nil {
			return err
		}
		part := pv.Clone()
		nv, err := tl.xb[1].MatVec(v[clo:chi])
		if err != nil {
			return err
		}
		for r := range part {
			part[r] -= nv[r]
		}
		for r := rlo; r < rhi; r++ {
			out[r] += part[r-rlo]
		}
	}
	return nil
}

// TestFabricReadMatchesPerArrayMatVec pins the controller-side conversion:
// converting each broadcast segment once and handing it to every array that
// reads it returns the bits, and charges the counters, of every array
// converting the segment itself, on clean arrays, on the noisy stack of the
// determinism pins, and with a shared full-scale converter range, at every
// worker count.
func TestFabricReadMatchesPerArrayMatVec(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  func() crossbar.Config
	}{
		{"clean", func() crossbar.Config { return crossbar.Config{} }},
		{"noisy", func() crossbar.Config { return noisyConfig(t, 5) }},
		{"global-range", func() crossbar.Config { return crossbar.Config{GlobalIORange: true} }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for workers := 1; workers <= 3; workers++ {
				got, want := signedFabric(t, tc.cfg()), signedFabric(t, tc.cfg())
				r := rand.New(rand.NewSource(23))
				outGot, outWant := linalg.NewVector(48), linalg.NewVector(48)
				for k := 0; k < 10; k++ {
					v := randomInput(r, 36)
					if err := got.MatVecInto(outGot, v, workers); err != nil {
						t.Fatalf("MatVecInto: %v", err)
					}
					if err := perArrayRead(want, outWant, v); err != nil {
						t.Fatalf("per-array read: %v", err)
					}
					for i := range outWant {
						if math.Float64bits(outGot[i]) != math.Float64bits(outWant[i]) {
							t.Fatalf("%d workers, pass %d: (A·v)[%d] = %v, want %v", workers, k, i, outGot[i], outWant[i])
						}
					}
					if g, w := got.Counters(), want.Counters(); g != w {
						t.Fatalf("%d workers, pass %d: counters %+v, want %+v", workers, k, g, w)
					}
				}
			}
		})
	}
}

// TestSweepAllocations pins that a read of a programmed signed fabric
// allocates nothing at one worker: PDHG runs two per iteration.
func TestSweepAllocations(t *testing.T) {
	f := signedFabric(t, crossbar.Config{})
	v, out := randomInput(rand.New(rand.NewSource(29)), 36), linalg.NewVector(48)
	read := func() {
		if err := f.MatVecInto(out, v, 1); err != nil {
			t.Fatal(err)
		}
	}
	read()
	if allocs := testing.AllocsPerRun(20, read); allocs != 0 {
		t.Errorf("MatVecInto at one worker allocates %.0f per read, want 0", allocs)
	}
}
