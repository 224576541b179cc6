package noc_test

import (
	"math"
	"strings"
	"testing"

	"github.com/memlp/memlp/internal/core"
	"github.com/memlp/memlp/internal/crossbar"
	"github.com/memlp/memlp/internal/engine"
	"github.com/memlp/memlp/internal/linalg"
	"github.com/memlp/memlp/internal/lp"
	"github.com/memlp/memlp/internal/noc"
	"github.com/memlp/memlp/internal/variation"
)

// checkedFabric is a Newton fabric that holds every settle to DenseSolve,
// bit for bit, before it returns it.
type checkedFabric struct {
	*noc.TiledFabric
	t       *testing.T
	settles int
}

func (f *checkedFabric) Solve(b linalg.Vector) (linalg.Vector, error) {
	want, wantErr := f.DenseSolve(b)
	got, err := f.TiledFabric.Solve(b)
	if wantErr != nil {
		if err == nil || !strings.Contains(err.Error(), wantErr.Error()) {
			f.t.Fatalf("settle %d: error %v, dense composition %v", f.settles, err, wantErr)
		}
		return got, err
	}
	if err != nil {
		f.t.Fatalf("settle %d: error %v, dense composition solved", f.settles, err)
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			f.t.Fatalf("settle %d: x[%d] = %v, dense composition %v", f.settles, i, got[i], want[i])
		}
	}
	f.settles++
	return got, nil
}

// TestSettleMatchesDenseComposition runs Algorithm 1, in both residual
// modes, and Algorithm 2 on mesh and hierarchical fabrics of 16-wide tiles
// under variation and wire resistance, and holds every settle to a fresh
// workspace solving the dense matrix composed from the tiles. Each handle
// solves problems whose sizes grow and shrink, so its fabrics settle again
// and again on kept storage, and the second fabric's network shrinks to the
// third problem's size. No extended system is a multiple of 16 wide, so
// every grid has narrower edge tiles.
func TestSettleMatchesDenseComposition(t *testing.T) {
	type solver interface {
		Solve(*lp.Problem) (*engine.Result, error)
	}
	for _, topo := range []noc.Topology{noc.Mesh, noc.Hierarchical} {
		for _, alg := range []string{"alg1", "alg1-analog-residual", "alg2"} {
			t.Run(topo.String()+"/"+alg, func(t *testing.T) {
				vm, err := variation.NewPaperModel(0.05, 3)
				if err != nil {
					t.Fatal(err)
				}
				var fabs []*checkedFabric
				opts := core.Options{
					AnalogResidual: alg == "alg1-analog-residual",
					Fabric: func(size int) (core.Fabric, error) {
						if size%16 == 0 {
							t.Fatalf("a %d-wide system fills its 16-wide tiles", size)
						}
						tf, err := noc.New(noc.Config{Topology: topo, TileSize: 16,
							Crossbar: crossbar.Config{Variation: vm, WireResistance: 0.5}})
						f := &checkedFabric{TiledFabric: tf, t: t}
						fabs = append(fabs, f)
						return f, err
					},
				}
				var s solver
				if alg == "alg2" {
					s, err = core.NewLargeScaleSolver(opts)
				} else {
					s, err = core.NewSolver(opts)
				}
				if err != nil {
					t.Fatal(err)
				}
				for _, m := range []int{9, 15, 9} {
					p, err := lp.GenerateFeasible(lp.GenConfig{Constraints: m, Seed: 5})
					if err != nil {
						t.Fatal(err)
					}
					if _, err := s.Solve(p); err != nil {
						t.Fatalf("m=%d: %v", m, err)
					}
				}
				settles := 0
				for _, f := range fabs {
					settles += f.settles
				}
				t.Logf("%d fabrics, %d settles", len(fabs), settles)
				if settles < 20 {
					t.Errorf("%d fabrics settled %d times in all; want a solve's worth", len(fabs), settles)
				}
			})
		}
	}
}
