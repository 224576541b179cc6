package memlp

import (
	"context"
	"errors"
	"math"
	"sync"
	"testing"
	"time"
)

// allEngines enumerates every public engine once for table-driven tests.
var allEngines = []Engine{
	EngineCrossbar, EngineCrossbarLargeScale, EnginePDIP, EnginePDIPReduced, EngineSimplex,
	EngineConic, EnginePDHG,
}

func TestIncompatibleOptions(t *testing.T) {
	tests := []struct {
		name   string
		engine Engine
		opts   []Option
	}{
		{"variation on pdip", EnginePDIP, []Option{WithVariation(0.1)}},
		{"seed on pdip-reduced", EnginePDIPReduced, []Option{WithSeed(7)}},
		{"iobits on simplex", EngineSimplex, []Option{WithIOBits(8)}},
		{"noc on pdip", EnginePDIP, []Option{WithNoC("mesh", 16)}},
		{"wire resistance on simplex", EngineSimplex, []Option{WithWireResistance(1)}},
		{"constant step on crossbar", EngineCrossbar, []Option{WithConstantStep(0.3)}},
		{"literal fillers on pdip", EnginePDIP, []Option{WithLiteralFillers()}},
		{"max iterations on simplex", EngineSimplex, []Option{WithMaxIterations(10)}},
		{"alpha on simplex", EngineSimplex, []Option{WithAlpha(1.1)}},
		{"fault model on pdip", EnginePDIP, []Option{WithFaultModel(FaultModel{StuckOnDensity: 0.01})}},
		{"write verify on simplex", EngineSimplex, []Option{WithWriteVerify(3, 0.01)}},
		{"parallelism on pdip", EnginePDIP, []Option{WithParallelism(2)}},
		{"parallelism on simplex", EngineSimplex, []Option{WithParallelism(2)}},
		// Batching is Algorithm 1 only; the pool option must be rejected on
		// the serial-only large-scale engine too.
		{"parallelism on large-scale", EngineCrossbarLargeScale, []Option{WithParallelism(2)}},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			_, err := NewSolver(tc.engine, tc.opts...)
			if !errors.Is(err, ErrIncompatibleOption) {
				t.Errorf("err = %v, want ErrIncompatibleOption", err)
			}
			if !errors.Is(err, ErrInvalid) {
				t.Errorf("err = %v, should also match ErrInvalid", err)
			}
		})
	}

	// Valid combinations must still construct.
	valid := []struct {
		name   string
		engine Engine
		opts   []Option
	}{
		{"bare simplex", EngineSimplex, nil},
		{"pdip with iterations", EnginePDIP, []Option{WithMaxIterations(50)}},
		{"crossbar full hardware", EngineCrossbar, []Option{
			WithVariation(0.1), WithSeed(2), WithIOBits(8), WithNoC("hierarchical", 16)}},
		{"large-scale alg2 knobs", EngineCrossbarLargeScale, []Option{
			WithConstantStep(0.3), WithLiteralFillers(), WithSeed(1)}},
		{"crossbar fault hardware", EngineCrossbar, []Option{
			WithFaultModel(FaultModel{StuckOnDensity: 0.005, StuckOffDensity: 0.005}),
			WithWriteVerify(3, 0.02)}},
		{"crossbar with parallelism", EngineCrossbar, []Option{
			WithParallelism(4), WithVariation(0.1), WithSeed(3)}},
	}
	for _, tc := range valid {
		t.Run(tc.name, func(t *testing.T) {
			s, err := NewSolver(tc.engine, tc.opts...)
			if err != nil {
				t.Fatalf("NewSolver: %v", err)
			}
			if s.Engine() != tc.engine {
				t.Errorf("Engine() = %v, want %v", s.Engine(), tc.engine)
			}
		})
	}
}

// TestSolveCanceledContext pins the acceptance criterion: a Solve with an
// already-canceled context returns promptly from every engine with
// StatusCanceled and the wrapped context error, without panicking.
func TestSolveCanceledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	p := tiny(t)
	for _, eng := range allEngines {
		t.Run(eng.String(), func(t *testing.T) {
			s, err := NewSolver(eng)
			if err != nil {
				t.Fatalf("NewSolver: %v", err)
			}
			start := time.Now()
			sol, err := s.Solve(ctx, p)
			if elapsed := time.Since(start); elapsed > 2*time.Second {
				t.Errorf("canceled solve took %v, want prompt return", elapsed)
			}
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
			if sol == nil {
				t.Fatal("canceled solve returned nil solution")
			}
			if sol.Status != StatusCanceled {
				t.Errorf("status = %v, want %v", sol.Status, StatusCanceled)
			}
		})
	}
}

// TestSolveBatchCanceledContext covers the batching path's cancellation.
func TestSolveBatchCanceledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s, err := NewSolver(EngineCrossbar)
	if err != nil {
		t.Fatalf("NewSolver: %v", err)
	}
	_, err = s.SolveBatch(ctx, []*Problem{tiny(t), tiny(t)})
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
}

// TestSolverConcurrent hammers one handle from many goroutines; run under
// -race this pins the concurrency-safety contract. Without variation the
// crossbar is deterministic, so every goroutine must see the same optimum.
func TestSolverConcurrent(t *testing.T) {
	s, err := NewSolver(EngineCrossbar)
	if err != nil {
		t.Fatalf("NewSolver: %v", err)
	}
	ctx := context.Background()
	p := tiny(t)
	ref, err := s.Solve(ctx, p)
	if err != nil {
		t.Fatalf("reference solve: %v", err)
	}

	const goroutines, repeats = 8, 5
	var wg sync.WaitGroup
	errs := make(chan error, goroutines*repeats)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < repeats; i++ {
				sol, err := s.Solve(ctx, p)
				if err != nil {
					errs <- err
					return
				}
				if sol.Status != StatusOptimal {
					errs <- errors.New("status " + sol.Status.String())
					return
				}
				if math.Abs(sol.Objective-ref.Objective) > 1e-6 {
					errs <- errors.New("objective drifted across concurrent solves")
					return
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

// TestSolverConcurrentFaulty extends TestSolverConcurrent to the fault
// subsystem: one handle with a seeded fault model and write-verify is
// hammered by goroutines mixing Solve and SolveBatch. Under -race this pins
// that the stateless hash-based fault placement, the retry counters, and the
// recovery ladder's fabric mutations are all safe behind the handle's lock,
// and that concurrent callers still only ever see honest statuses.
func TestSolverConcurrentFaulty(t *testing.T) {
	s, err := NewSolver(EngineCrossbar,
		WithSeed(11),
		WithFaultModel(FaultModel{StuckOnDensity: 0.005, StuckOffDensity: 0.005}),
		WithWriteVerify(2, 0.01))
	if err != nil {
		t.Fatalf("NewSolver: %v", err)
	}
	ctx := context.Background()
	p := tiny(t)

	const goroutines, repeats = 6, 4
	var wg sync.WaitGroup
	errs := make(chan error, goroutines*repeats)
	for g := 0; g < goroutines; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < repeats; i++ {
				if g%2 == 0 {
					sol, err := s.Solve(ctx, p)
					if err != nil {
						errs <- err
						return
					}
					if sol.Status != StatusOptimal && sol.Status != StatusDegraded {
						errs <- errors.New("single solve status " + sol.Status.String())
						return
					}
					if sol.Diagnostics == nil {
						errs <- errors.New("fault-model solve without diagnostics")
						return
					}
				} else {
					sols, err := s.SolveBatch(ctx, []*Problem{p, p})
					if err != nil {
						errs <- err
						return
					}
					for _, sol := range sols {
						if sol.Status != StatusOptimal && sol.Status != StatusDegraded &&
							sol.Status != StatusNumericalFailure {
							errs <- errors.New("batch solve status " + sol.Status.String())
							return
						}
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

// TestSolveBatchPartialResultsOnCancel pins the batch cancellation contract:
// the Solutions completed before the interruption come back alongside the
// wrapped context error, with the interrupted solve's StatusCanceled partial
// as the last element.
func TestSolveBatchPartialResultsOnCancel(t *testing.T) {
	p, err := GenerateFeasible(20, 0, 9)
	if err != nil {
		t.Fatalf("GenerateFeasible: %v", err)
	}
	problems := make([]*Problem, 200)
	for i := range problems {
		problems[i] = p
	}
	s, err := NewSolver(EngineCrossbar)
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
	last := sols[len(sols)-1]
	if last.Status != StatusCanceled {
		t.Errorf("last partial status = %v, want %v", last.Status, StatusCanceled)
	}
	for i, sol := range sols[:len(sols)-1] {
		if sol.Status != StatusOptimal {
			t.Errorf("completed solution %d: status %v, want %v", i, sol.Status, StatusOptimal)
		}
	}
}

// TestSolverReuseAllocations pins how little a repeated same-shape solve on
// one handle allocates. The bound is on the handle's own count, so a
// cheaper one-shot Solve, whose count is logged beside it, cannot fail it.
func TestSolverReuseAllocations(t *testing.T) {
	p, err := GenerateFeasible(8, 0, 1)
	if err != nil {
		t.Fatalf("GenerateFeasible: %v", err)
	}
	s, err := NewSolver(EngineCrossbar)
	if err != nil {
		t.Fatalf("NewSolver: %v", err)
	}
	ctx := context.Background()
	if _, err := s.Solve(ctx, p); err != nil {
		t.Fatalf("warmup solve: %v", err)
	}

	reuse := testing.AllocsPerRun(10, func() {
		if _, err := s.Solve(ctx, p); err != nil {
			t.Fatal(err)
		}
	})
	oneShot := testing.AllocsPerRun(10, func() {
		if _, err := Solve(p, EngineCrossbar); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("allocs/solve: handle reuse %.0f, one-shot %.0f", reuse, oneShot)
	if reuse > 5 {
		t.Errorf("handle reuse allocates %.0f/solve, want at most 5", reuse)
	}
}

// TestSolverAllocationsAcrossSizes pins that a handle whose problems change
// size allocates per solve no more than one repeating a single problem,
// give or take a small constant: the fabric, the extended system and every
// workspace keep the capacity of the largest system solved, so a smaller
// one reallocates nothing.
func TestSolverAllocationsAcrossSizes(t *testing.T) {
	ctx := context.Background()
	// Extended sizes 37, 33, 38 and 34, in a cycle: every solve changes it.
	var problems []*Problem
	for _, seed := range []int64{7, 5, 2, 3} {
		p, err := GenerateFeasible(8, 0, seed)
		if err != nil {
			t.Fatalf("GenerateFeasible: %v", err)
		}
		problems = append(problems, p)
	}
	s, err := NewSolver(EngineCrossbar, WithVariation(0.05))
	if err != nil {
		t.Fatalf("NewSolver: %v", err)
	}
	for _, p := range problems {
		if _, err := s.Solve(ctx, p); err != nil {
			t.Fatalf("warmup solve: %v", err)
		}
	}
	same := testing.AllocsPerRun(8, func() {
		if _, err := s.Solve(ctx, problems[0]); err != nil {
			t.Fatal(err)
		}
	})
	k := 0
	changing := testing.AllocsPerRun(8, func() {
		if _, err := s.Solve(ctx, problems[k%len(problems)]); err != nil {
			t.Fatal(err)
		}
		k++
	})
	t.Logf("allocs/solve: one size %.1f, changing sizes %.1f", same, changing)
	if changing > same+2 {
		t.Errorf("solves of changing size allocate %.1f each, one size %.1f: want at most 2 more", changing, same)
	}
}

// TestSolveBatchPerSolveWallTime checks each batched Solution carries its own
// measured wall time rather than a share of the batch total.
func TestSolveBatchPerSolveWallTime(t *testing.T) {
	problems := make([]*Problem, 4)
	for i := range problems {
		problems[i] = tiny(t)
	}
	sols, err := SolveBatch(problems, WithSeed(5))
	if err != nil {
		t.Fatalf("SolveBatch: %v", err)
	}
	allEqual := true
	for i, sol := range sols {
		if sol.WallTime <= 0 {
			t.Errorf("solution %d: WallTime = %v, want > 0", i, sol.WallTime)
		}
		if sol.WallTime != sols[0].WallTime {
			allEqual = false
		}
	}
	if allEqual {
		t.Error("all batched WallTimes identical — looks like a divided batch total, not per-solve measurement")
	}
}
