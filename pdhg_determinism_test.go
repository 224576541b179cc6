package memlp

// Public-layer determinism pin for the tiled PDHG engine (DESIGN.md D18):
// the worker grid set by WithTiles is pure execution parallelism, so under
// the full stochastic hardware stack — programmed variation, cycle-to-cycle
// read noise, and the default fault model — grids 1×1, 2×2, and 4×4 must
// return bit-identical Solutions and bit-identical traces. The noise draws
// are keyed to canonical (block, slot) noise epochs, never to which worker
// goroutine touched the tile; this test (run under -race in CI alongside
// the golden traces) is the contract's enforcement point.

import (
	"math"
	"testing"

	"github.com/memlp/memlp/internal/trace"
)

func TestTracePDHGGridDeterminism(t *testing.T) {
	p := feasibleLP(t, 12, 31)
	solveWith := func(tiles int) *Solution {
		t.Helper()
		sol, err := Solve(p, EnginePDHG,
			WithSeed(9),
			WithVariation(0.05),
			WithCycleNoise(0.25),
			WithFaultModel(FaultModel{StuckOnDensity: 0.002, StuckOffDensity: 0.002}),
			WithNoC("mesh", 4),
			WithTiles(tiles),
			WithMaxIterations(600), // variation biases the fixed point; pin the trajectory
			WithTrace(0))
		if err != nil {
			t.Fatalf("tiles=%d: %v", tiles, err)
		}
		return sol
	}

	ref := solveWith(1)
	if len(ref.Trace()) == 0 {
		t.Fatal("reference run recorded no trace")
	}
	for _, tiles := range []int{2, 4} {
		sol := solveWith(tiles)
		if sol.Status != ref.Status || sol.Iterations != ref.Iterations {
			t.Errorf("tiles=%d: (status, iterations) = (%v, %d), want (%v, %d)",
				tiles, sol.Status, sol.Iterations, ref.Status, ref.Iterations)
		}
		if math.Float64bits(sol.Objective) != math.Float64bits(ref.Objective) {
			t.Errorf("tiles=%d: objective %v, want bit-identical %v", tiles, sol.Objective, ref.Objective)
		}
		if len(sol.X) != len(ref.X) || len(sol.DualY) != len(ref.DualY) {
			t.Fatalf("tiles=%d: solution shape (%d, %d), want (%d, %d)",
				tiles, len(sol.X), len(sol.DualY), len(ref.X), len(ref.DualY))
		}
		for j := range ref.X {
			if math.Float64bits(sol.X[j]) != math.Float64bits(ref.X[j]) {
				t.Fatalf("tiles=%d: X[%d] = %v, want bit-identical %v", tiles, j, sol.X[j], ref.X[j])
			}
		}
		for j := range ref.DualY {
			if math.Float64bits(sol.DualY[j]) != math.Float64bits(ref.DualY[j]) {
				t.Fatalf("tiles=%d: DualY[%d] = %v, want bit-identical %v", tiles, j, sol.DualY[j], ref.DualY[j])
			}
		}
		if ref.Hardware == nil || sol.Hardware == nil {
			t.Fatalf("tiles=%d: missing hardware estimate", tiles)
		}
		if math.Float64bits(sol.Hardware.EnergyJoules) != math.Float64bits(ref.Hardware.EnergyJoules) {
			t.Errorf("tiles=%d: energy %v, want bit-identical %v",
				tiles, sol.Hardware.EnergyJoules, ref.Hardware.EnergyJoules)
		}
		if sol.Hardware.Latency != ref.Hardware.Latency {
			t.Errorf("tiles=%d: latency %v, want %v", tiles, sol.Hardware.Latency, ref.Hardware.Latency)
		}
		if diff := trace.Diff(sol.Trace(), ref.Trace(), 0); len(diff) != 0 {
			t.Errorf("tiles=%d: trace diverged from tiles=1:\n  %s", tiles, diff[0])
		}
	}
}
