package memlp

import (
	"context"
	"sync"
	"testing"
	"time"

	"github.com/memlp/memlp/internal/core"
	"github.com/memlp/memlp/internal/engine"
	"github.com/memlp/memlp/internal/lp"
)

// TestNoCHandlePricesAcrossBatchesAndSizes pins that a reusable NoC handle
// prices identical work identically: a repeated batch, and a problem solved
// again after a solve of another size re-gridded the handle's fabrics.
func TestNoCHandlePricesAcrossBatchesAndSizes(t *testing.T) {
	ctx := context.Background()
	small, err := GenerateFeasible(9, 0, 5)
	if err != nil {
		t.Fatal(err)
	}
	large, err := GenerateFeasible(15, 0, 5)
	if err != nil {
		t.Fatal(err)
	}

	s, err := NewSolver(EngineCrossbar, WithNoC("mesh", 16), WithParallelism(2))
	if err != nil {
		t.Fatal(err)
	}
	batch := poolBatch(t, 4, 9, 3)
	var first HardwareEstimate
	for i := 0; i < 5; i++ {
		sols, err := s.SolveBatch(ctx, batch)
		if err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
		hw := *sols[0].Hardware
		if i == 0 {
			first = hw
		} else if hw != first {
			t.Errorf("batch %d: first Hardware = %+v, want %+v", i, hw, first)
		}
	}

	for _, eng := range []Engine{EngineCrossbar, EngineCrossbarLargeScale} {
		s := s
		if eng != EngineCrossbar {
			if s, err = NewSolver(eng, WithNoC("mesh", 16)); err != nil {
				t.Fatal(err)
			}
		}
		priced := map[*Problem]HardwareEstimate{}
		for i, p := range []*Problem{small, large, small, large, small} {
			sol, err := s.Solve(ctx, p)
			if err != nil {
				t.Fatalf("%v solve %d: %v", eng, i, err)
			}
			if want, ok := priced[p]; ok && *sol.Hardware != want {
				t.Errorf("%v solve %d: Hardware = %+v, want %+v", eng, i, *sol.Hardware, want)
			}
			priced[p] = *sol.Hardware
		}
	}
}

// TestNoCHandlePricesRepeatSolves pins that a NoC handle prices a repeat
// solve of one problem as it priced the first, on both crossbar
// algorithms and both topologies: a re-Program replaces every tile, and
// the counts of the replaced tiles stay in the fabric's cumulative
// counters, so a counter window opened before the Program loses none of
// them; and the first Program of a fresh fabric crosses the same grid as
// every later one.
func TestNoCHandlePricesRepeatSolves(t *testing.T) {
	p, err := GenerateFeasible(9, 0, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, topo := range []string{"mesh", "hierarchical"} {
		for _, eng := range []Engine{EngineCrossbar, EngineCrossbarLargeScale} {
			s, err := NewSolver(eng, WithNoC(topo, 16))
			if err != nil {
				t.Fatal(err)
			}
			var first HardwareEstimate
			for i := 0; i < 3; i++ {
				sol, err := s.Solve(context.Background(), p)
				if err != nil {
					t.Fatalf("%v/%s solve %d: %v", eng, topo, i, err)
				}
				if i == 0 {
					first = *sol.Hardware
				} else if *sol.Hardware != first {
					t.Errorf("%v/%s solve %d: Hardware = %+v, want the first solve's %+v", eng, topo, i, *sol.Hardware, first)
				}
			}
		}
	}
}

// TestNoCHandleCensusesStuckCells checks that a WithNoC handle reports the
// stuck cells of its tiles, as a one-array handle reports its own: the
// recovery ladder's digital cross-check and its escalation of infeasible
// and unbounded verdicts run only on a non-empty census.
func TestNoCHandleCensusesStuckCells(t *testing.T) {
	p, err := GenerateFeasible(9, 0, 5)
	if err != nil {
		t.Fatal(err)
	}
	fm := FaultModel{StuckOnDensity: 0.02, StuckOffDensity: 0.02, Seed: 3}
	for _, eng := range []Engine{EngineCrossbar, EngineCrossbarLargeScale} {
		for _, tiled := range []bool{false, true} {
			opts := []Option{WithVariation(0.05), WithFaultModel(fm)}
			if tiled {
				opts = append(opts, WithNoC("mesh", 16))
			}
			s, err := NewSolver(eng, opts...)
			if err != nil {
				t.Fatal(err)
			}
			sol, err := s.Solve(context.Background(), p)
			if err != nil {
				t.Fatalf("%v (NoC %v): %v", eng, tiled, err)
			}
			if d := sol.Diagnostics; d == nil || d.StuckOn == 0 || d.StuckOff == 0 {
				t.Errorf("%v (NoC %v): Diagnostics = %+v, want stuck-on and stuck-off cells counted", eng, tiled, d)
			}
		}
	}
}

// TestNoCHandleConcurrent mixes solves of two sizes and batches on one NoC
// handle from several goroutines: under -race it pins that the handle's
// fabrics and their transfer ledgers are safe behind the handle's lock.
func TestNoCHandleConcurrent(t *testing.T) {
	ctx := context.Background()
	small, err := GenerateFeasible(9, 0, 5)
	if err != nil {
		t.Fatal(err)
	}
	large, err := GenerateFeasible(15, 0, 5)
	if err != nil {
		t.Fatal(err)
	}
	batch := poolBatch(t, 3, 9, 3)
	s, err := NewSolver(EngineCrossbar, WithNoC("mesh", 16), WithParallelism(2))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 3; i++ {
				var err error
				switch (g + i) % 3 {
				case 0:
					_, err = s.Solve(ctx, small)
				case 1:
					_, err = s.Solve(ctx, large)
				default:
					_, err = s.SolveBatch(ctx, batch)
				}
				if err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestNoCBatchAttributesTransfers pins how a NoC batch splits its transfers
// among its members, as it splits the counters: each member reports the
// transfers of its own solve, the first also carries every replica's
// programming transfers, and the split does not depend on the pool width.
// The members' priced latencies add up to the batch total that
// TestNoCPricesPinned pins.
func TestNoCBatchAttributesTransfers(t *testing.T) {
	ctx := context.Background()
	batch := poolBatch(t, 4, 9, 3)
	inner := make([]*lp.Problem, len(batch))
	for i, p := range batch {
		inner[i] = p.inner
	}
	run := func(width int) []*engine.Result {
		s, err := NewSolver(EngineCrossbar, WithNoC("mesh", 16), WithParallelism(width))
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.solver.(*core.Solver).SolveBatchContext(ctx, inner)
		if err != nil {
			t.Fatalf("width %d: %v", width, err)
		}
		return res
	}
	one, two := run(1), run(2)
	// A second replica adds one replica's programming to the first member.
	prog := two[0].NoC.Sub(one[0].NoC)
	if prog.Transfers == 0 {
		t.Fatal("the first member carries no replica programming")
	}
	if own := one[0].NoC.Sub(prog); own.Transfers == 0 {
		t.Error("the first member reports no transfers of its own solve")
	}
	for i := 1; i < len(batch); i++ {
		if one[i].NoC.Transfers == 0 {
			t.Errorf("member %d reports no transfers", i)
		}
		if one[i].NoC != two[i].NoC {
			t.Errorf("member %d: transfers %+v at width 1, %+v at width 2", i, one[i].NoC, two[i].NoC)
		}
	}

	s, err := NewSolver(EngineCrossbar, WithNoC("mesh", 16), WithParallelism(2))
	if err != nil {
		t.Fatal(err)
	}
	sols, err := s.SolveBatch(ctx, batch)
	if err != nil {
		t.Fatal(err)
	}
	var total time.Duration
	for _, sol := range sols {
		total += sol.Hardware.Latency
	}
	if total != 197902*time.Nanosecond {
		t.Errorf("members' latencies sum to %v, want the pinned 197.902µs", total)
	}
}

// TestNoCHandleReuseAllocations pins that a repeat Algorithm 1 solve on a
// WithNoC handle allocates within twice what a one-array handle does: the
// tiled settle writes its network into storage the fabric keeps. It solves
// an m=96 LP on 32-wide mesh tiles at 5% variation, where composing a dense
// network on every settle allocated about 11.5 thousand objects per solve.
func TestNoCHandleReuseAllocations(t *testing.T) {
	p, err := GenerateFeasible(96, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	allocs := make(map[string]float64)
	for _, tc := range []struct {
		name string
		opts []Option
	}{
		{"one-array", []Option{WithVariation(0.05)}},
		{"mesh", []Option{WithVariation(0.05), WithNoC("mesh", 32)}},
	} {
		s, err := NewSolver(EngineCrossbar, tc.opts...)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Solve(ctx, p); err != nil {
			t.Fatalf("%s warm-up solve: %v", tc.name, err)
		}
		allocs[tc.name] = testing.AllocsPerRun(2, func() {
			if _, err := s.Solve(ctx, p); err != nil {
				t.Fatal(err)
			}
		})
	}
	t.Logf("allocs per repeat solve: one array %.0f, mesh %.0f", allocs["one-array"], allocs["mesh"])
	if allocs["mesh"] > 2*allocs["one-array"] {
		t.Errorf("a repeat mesh solve allocates %.0f, over twice the one-array %.0f", allocs["mesh"], allocs["one-array"])
	}
}
