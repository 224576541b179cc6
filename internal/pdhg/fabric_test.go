package pdhg

import (
	"math"
	"math/rand"
	"testing"

	"github.com/memlp/memlp/internal/crossbar"
	"github.com/memlp/memlp/internal/linalg"
	"github.com/memlp/memlp/internal/noc"
)

// tiledFabric builds the canonical fabric of a pdhg-tiled-shaped 48×36
// problem on 16-wide mesh tiles.
func tiledFabric(t *testing.T, xcfg crossbar.Config) (*fabric, int, int) {
	t.Helper()
	p := genFeasible(t, 48, 36, 3)
	f, err := newFabric(p.A, noc.Config{Topology: noc.Mesh, TileSize: 16}, xcfg)
	if err != nil {
		t.Fatalf("newFabric: %v", err)
	}
	return f, p.NumConstraints(), p.NumVariables()
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

// perArrayRead is the read the fabric ran before it converted each segment
// once: every array converts its own segment through MatVec, and the
// controller reduces the differential partials in canonical block order.
func perArrayRead(f *fabric, out, v linalg.Vector, d direction) error {
	out.Fill(0)
	for _, b := range f.blocks {
		pos, neg, in, at, width, span := b.pos, b.neg, b.bc, b.br, b.cols, b.rows
		if d == adjoint {
			pos, neg, in, at, width, span = b.posT, b.negT, b.br, b.bc, b.rows, b.cols
		}
		pv, err := pos.MatVec(v[in*f.t : in*f.t+width])
		if err != nil {
			return err
		}
		part := pv.Clone()
		nv, err := neg.MatVec(v[in*f.t : in*f.t+width])
		if err != nil {
			return err
		}
		subInto(part, nv)
		reduceInto(out[at*f.t:at*f.t+span], part)
	}
	return nil
}

// TestFabricReadMatchesPerArrayMatVec pins the controller-side conversion:
// converting each broadcast segment once and handing it to every array that
// reads it returns the bits, and charges the counters, of every array
// converting the segment itself, on clean arrays, on the noisy stack of the
// determinism pins, and with a shared full-scale converter range.
func TestFabricReadMatchesPerArrayMatVec(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  crossbar.Config
	}{
		{"clean", crossbar.Config{}},
		{"noisy", noisyConfig(t, 5)},
		{"global-range", crossbar.Config{GlobalIORange: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got, m, n := tiledFabric(t, tc.cfg)
			want, _, _ := tiledFabric(t, tc.cfg)
			r := rand.New(rand.NewSource(23))
			outGot, outWant := linalg.NewVector(m), linalg.NewVector(m)
			outTGot, outTWant := linalg.NewVector(n), linalg.NewVector(n)
			for k := 0; k < 10; k++ {
				x, y := randomInput(r, n), randomInput(r, m)
				if err := got.matVec(outTGot, y, adjoint, 1); err != nil {
					t.Fatalf("adjoint matVec: %v", err)
				}
				if err := got.matVec(outGot, x, forward, 1); err != nil {
					t.Fatalf("matVec: %v", err)
				}
				if err := perArrayRead(want, outTWant, y, adjoint); err != nil {
					t.Fatalf("per-array adjoint read: %v", err)
				}
				if err := perArrayRead(want, outWant, x, forward); err != nil {
					t.Fatalf("per-array forward read: %v", err)
				}
				for i := range outWant {
					if math.Float64bits(outGot[i]) != math.Float64bits(outWant[i]) {
						t.Fatalf("pass %d: (A·x)[%d] = %v, want %v", k, i, outGot[i], outWant[i])
					}
				}
				for j := range outTWant {
					if math.Float64bits(outTGot[j]) != math.Float64bits(outTWant[j]) {
						t.Fatalf("pass %d: (Aᵀ·y)[%d] = %v, want %v", k, j, outTGot[j], outTWant[j])
					}
				}
				if g, w := got.counters(), want.counters(); g != w {
					t.Fatalf("pass %d: counters %+v, want %+v", k, g, w)
				}
			}
		})
	}
}

// TestSweepAllocations pins that one PDHG iteration's two analog reads, an
// adjoint and a forward half-iteration on a programmed pdhg-tiled-shaped
// fabric, allocate nothing at one worker.
func TestSweepAllocations(t *testing.T) {
	f, m, n := tiledFabric(t, crossbar.Config{})
	r := rand.New(rand.NewSource(29))
	x, y := randomInput(r, n), randomInput(r, m)
	z, v := linalg.NewVector(n), linalg.NewVector(m)
	pair := func() {
		if err := f.matVec(z, y, adjoint, 1); err != nil {
			t.Fatal(err)
		}
		if err := f.matVec(v, x, forward, 1); err != nil {
			t.Fatal(err)
		}
	}
	pair()
	if allocs := testing.AllocsPerRun(20, pair); allocs != 0 {
		t.Errorf("forward + adjoint matVec at one worker allocate %.0f per pair, want 0", allocs)
	}
}
