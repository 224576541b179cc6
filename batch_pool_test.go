package memlp

// Tests for the sharded fabric pool behind Solver.SolveBatch: the
// WithParallelism option, the bit-identical-across-widths determinism
// contract, the BatchStats roll-up, and the pooled cancellation shape.

import (
	"context"
	"errors"
	"math"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"
)

// poolBatch builds k instances sharing one Problem's constraint matrix with
// varying right-hand sides.
func poolBatch(t testing.TB, k, m int, seed int64) []*Problem {
	t.Helper()
	base, err := GenerateFeasible(m, 0, seed)
	if err != nil {
		t.Fatalf("GenerateFeasible: %v", err)
	}
	out := make([]*Problem, k)
	for i := range out {
		p := *base
		inner := *p.inner
		b := inner.B.Clone()
		for j := range b {
			b[j] *= 1 + 0.02*float64(i)
		}
		inner.B = b
		p.inner = &inner
		out[i] = &p
	}
	return out
}

// TestWithParallelismValidation covers the option's own range check.
func TestWithParallelismValidation(t *testing.T) {
	if _, err := NewSolver(EngineCrossbar, WithParallelism(-1)); !errors.Is(err, ErrInvalid) {
		t.Errorf("negative parallelism: err = %v, want ErrInvalid", err)
	}
	if _, err := NewSolver(EngineCrossbar, WithParallelism(0)); err != nil {
		t.Errorf("zero (auto) parallelism: %v", err)
	}
}

// TestSolveBatchBitIdenticalAcrossWidths pins the public determinism
// contract under full stochastic hardware: variation, cycle noise, and a
// fixed seed must yield bit-identical Solutions for every pool width.
func TestSolveBatchBitIdenticalAcrossWidths(t *testing.T) {
	problems := poolBatch(t, 8, 10, 21)
	ctx := context.Background()
	var ref []*Solution
	for _, par := range []int{1, 2, 8} {
		s, err := NewSolver(EngineCrossbar,
			WithParallelism(par), WithVariation(0.08), WithCycleNoise(0.5), WithSeed(13))
		if err != nil {
			t.Fatalf("NewSolver(par=%d): %v", par, err)
		}
		sols, err := s.SolveBatch(ctx, problems)
		if err != nil {
			t.Fatalf("SolveBatch(par=%d): %v", par, err)
		}
		if ref == nil {
			ref = sols
			continue
		}
		for i, sol := range sols {
			want := ref[i]
			if sol.Status != want.Status {
				t.Errorf("par=%d problem %d: status %v, want %v", par, i, sol.Status, want.Status)
			}
			if sol.Objective != want.Objective {
				t.Errorf("par=%d problem %d: objective %v, want bit-identical %v", par, i, sol.Objective, want.Objective)
			}
			if sol.Iterations != want.Iterations {
				t.Errorf("par=%d problem %d: iterations %d, want %d", par, i, sol.Iterations, want.Iterations)
			}
			for j := range want.X {
				if sol.X[j] != want.X[j] {
					t.Fatalf("par=%d problem %d: X[%d] = %v, want bit-identical %v", par, i, j, sol.X[j], want.X[j])
				}
			}
			for j := range want.DualY {
				if sol.DualY[j] != want.DualY[j] {
					t.Fatalf("par=%d problem %d: DualY[%d] = %v, want bit-identical %v", par, i, j, sol.DualY[j], want.DualY[j])
				}
			}
		}
	}
}

// TestSolveBatchStats checks the public BatchStats surface.
func TestSolveBatchStats(t *testing.T) {
	problems := poolBatch(t, 6, 8, 3)
	s, err := NewSolver(EngineCrossbar, WithParallelism(2), WithSeed(5))
	if err != nil {
		t.Fatalf("NewSolver: %v", err)
	}
	sols, err := s.SolveBatch(context.Background(), problems)
	if err != nil {
		t.Fatalf("SolveBatch: %v", err)
	}
	stats := sols[0].Batch
	if stats == nil {
		t.Fatal("first Solution has no BatchStats")
	}
	if stats.Replicas != 2 {
		t.Errorf("Replicas = %d, want 2", stats.Replicas)
	}
	total := 0
	for _, n := range stats.ShardSolves {
		total += n
	}
	if total != len(problems) {
		t.Errorf("ShardSolves sums to %d, want %d", total, len(problems))
	}
	for i, sol := range sols[1:] {
		if sol.Batch != nil {
			t.Errorf("Solution %d carries BatchStats; only the first should", i+1)
		}
	}
}

// TestSolveBatchDealsRoundRobin pins the pool's dealing: shard r solves
// problems r, r+P, r+2P, … in order. A member pays for the cells its
// shard's previous member moved, so its hardware estimate must depend on
// the batch and the width alone, the same whether the shards' goroutines
// share one CPU or run on two.
func TestSolveBatchDealsRoundRobin(t *testing.T) {
	problems := poolBatch(t, 4, 9, 3)
	var ref []*Solution
	for _, procs := range []int{1, 2} {
		s, err := NewSolver(EngineCrossbar, WithNoC("mesh", 16), WithParallelism(2))
		if err != nil {
			t.Fatal(err)
		}
		prev := runtime.GOMAXPROCS(procs)
		sols, err := s.SolveBatch(context.Background(), problems)
		runtime.GOMAXPROCS(prev)
		if err != nil {
			t.Fatalf("GOMAXPROCS(%d): %v", procs, err)
		}
		if got := sols[0].Batch.ShardSolves; !slices.Equal(got, []int{2, 2}) {
			t.Errorf("GOMAXPROCS(%d): ShardSolves = %v, want [2 2]", procs, got)
		}
		if ref == nil {
			ref = sols
			continue
		}
		for i, sol := range sols {
			if *sol.Hardware != *ref[i].Hardware {
				t.Errorf("problem %d: hardware %+v at GOMAXPROCS(%d), %+v at GOMAXPROCS(1)", i, *sol.Hardware, procs, *ref[i].Hardware)
			}
		}
	}
}

// TestSolveBatchPooledPartialResultsOnCancel is the pooled version of the
// serial cancellation regression: with an explicit pool width > 1, the
// Solutions completed before the interruption come back in input order with
// the first interrupted solve's StatusCanceled partial as the last element.
// Input order is checked against an uncanceled run of the batch's completed
// prefix on a second handle: each completed Solution must match its
// problem's there bit for bit, status included. (A pooled Solution depends
// only on its problem and its index in the batch, so the prefix solves as
// it would in the whole batch. Problem 1 ends in StatusNumericalFailure in
// both runs.)
func TestSolveBatchPooledPartialResultsOnCancel(t *testing.T) {
	problems := poolBatch(t, 200, 20, 9)
	s, err := NewSolver(EngineCrossbar, WithParallelism(4))
	if err != nil {
		t.Fatalf("NewSolver: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(5 * time.Millisecond)
		cancel()
	}()
	sols, err := s.SolveBatch(ctx, problems)
	if err == nil {
		t.Skip("batch completed before cancellation could land")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(sols) == 0 {
		t.Fatal("no partial results returned with the cancellation error")
	}
	if len(sols) == len(problems) {
		t.Fatal("all solutions returned despite cancellation error")
	}
	done := sols[:len(sols)-1]
	var want []*Solution
	if len(done) > 0 {
		ref, err := NewSolver(EngineCrossbar, WithParallelism(4))
		if err != nil {
			t.Fatalf("NewSolver: %v", err)
		}
		if want, err = ref.SolveBatch(context.Background(), problems[:len(done)]); err != nil {
			t.Fatalf("uncanceled batch: %v", err)
		}
	}
	for i, sol := range done {
		w := want[i]
		same := sol.Status == w.Status && sol.Iterations == w.Iterations &&
			math.Float64bits(sol.Objective) == math.Float64bits(w.Objective) && len(sol.X) == len(w.X)
		for j := 0; same && j < len(w.X); j++ {
			same = math.Float64bits(sol.X[j]) == math.Float64bits(w.X[j])
		}
		if !same {
			t.Errorf("completed solution %d: status %v, objective %v, %d iterations, X %v; uncanceled run: %v, %v, %d, %v",
				i, sol.Status, sol.Objective, sol.Iterations, sol.X, w.Status, w.Objective, w.Iterations, w.X)
		}
	}
	last := sols[len(sols)-1]
	if last.Status != StatusCanceled {
		t.Errorf("last partial status = %v, want %v", last.Status, StatusCanceled)
	}
}

// TestSolveBatchConcurrentPooled hammers one pooled handle from several
// goroutines; under -race this pins that the pool's dispatcher, workers, and
// per-shard counters stay behind the handle's lock. Without variation the
// results must also all agree.
func TestSolveBatchConcurrentPooled(t *testing.T) {
	problems := poolBatch(t, 8, 8, 7)
	s, err := NewSolver(EngineCrossbar, WithParallelism(4))
	if err != nil {
		t.Fatalf("NewSolver: %v", err)
	}
	ctx := context.Background()
	ref, err := s.SolveBatch(ctx, problems)
	if err != nil {
		t.Fatalf("reference batch: %v", err)
	}

	const goroutines, repeats = 6, 3
	var wg sync.WaitGroup
	errs := make(chan error, goroutines*repeats)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < repeats; i++ {
				sols, err := s.SolveBatch(ctx, problems)
				if err != nil {
					errs <- err
					return
				}
				for k, sol := range sols {
					if sol.Objective != ref[k].Objective {
						errs <- errors.New("pooled batch objective drifted across concurrent calls")
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestSolveBatchMembersClimbRecoveryLadder: with a fault model, every batch
// member runs the recovery ladder WithFaultModel documents, as a single
// solve does: the digital cross-check, the re-solve, then software. No
// member may claim StatusOptimal or StatusDegraded for a fault-perturbed
// answer far from the reference, a degraded member must say it came from
// software, and the answers stay bit-identical across pool widths.
func TestSolveBatchMembersClimbRecoveryLadder(t *testing.T) {
	fm := FaultModel{StuckOnDensity: 0.01, StuckOffDensity: 0.01}
	for _, seed := range []int64{1, 2} {
		problems := poolBatch(t, 4, 8, seed)
		var ref []*Solution
		for _, par := range []int{1, 2, 4} {
			s, err := NewSolver(EngineCrossbar, WithVariation(0.05), WithFaultModel(fm), WithParallelism(par))
			if err != nil {
				t.Fatalf("NewSolver: %v", err)
			}
			sols, err := s.SolveBatch(context.Background(), problems)
			if err != nil {
				t.Fatalf("seed %d par %d: SolveBatch: %v", seed, par, err)
			}
			if ref != nil {
				for i, sol := range sols {
					if sol.Status != ref[i].Status || math.Float64bits(sol.Objective) != math.Float64bits(ref[i].Objective) {
						t.Errorf("seed %d par %d member %d: %v %v, want %v %v as at width 1",
							seed, par, i, sol.Status, sol.Objective, ref[i].Status, ref[i].Objective)
					}
				}
				continue
			}
			ref = sols
			for i, sol := range sols {
				d := sol.Diagnostics
				if d == nil || d.Attempts < 1 {
					t.Errorf("seed %d member %d: diagnostics %+v, want at least one attempt", seed, i, d)
					continue
				}
				want := softwareReference(t, problems[i])
				rel := math.Abs(sol.Objective-want) / (1 + math.Abs(want))
				switch sol.Status {
				case StatusOptimal:
					if rel > 0.08 {
						t.Errorf("seed %d member %d: optimal objective %v vs reference %v (rel %.3g)", seed, i, sol.Objective, want, rel)
					}
				case StatusDegraded:
					if !d.SoftwareFallback || d.RecoveredBy != "software" {
						t.Errorf("seed %d member %d: degraded but diagnostics say %+v", seed, i, d)
					}
					if rel > 1e-6 {
						t.Errorf("seed %d member %d: degraded objective %v vs reference %v (rel %.3g)", seed, i, sol.Objective, want, rel)
					}
				}
			}
		}
	}
}
