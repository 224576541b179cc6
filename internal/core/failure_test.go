package core

// Failure-injection tests: the solvers must degrade gracefully — returning
// classified statuses or wrapped errors, never panicking or reporting a
// bogus optimum — when the analog fabric misbehaves.

import (
	"context"
	"errors"
	"strings"
	"testing"

	"github.com/memlp/memlp/internal/crossbar"
	"github.com/memlp/memlp/internal/engine"
	"github.com/memlp/memlp/internal/linalg"
	"github.com/memlp/memlp/internal/lp"
)

// faultyFabric wraps the ideal fabric and injects failures.
type faultyFabric struct {
	inner Fabric
	// failSolveAfter injects ErrSingular on the k-th Solve (1-based);
	// 0 disables.
	failSolveAfter int
	// corruptSolve returns NaN-poisoned directions when true.
	corruptSolve bool
	// failProgram makes Program fail immediately.
	failProgram bool
	// solveErr, when non-nil, is returned by every Solve: a fabric fault
	// that is not a singular system.
	solveErr error
	// onFail, when non-nil, runs when failSolveAfter injects its failure.
	onFail func()

	solves int
}

func (f *faultyFabric) Program(a *linalg.Matrix) error {
	if f.failProgram {
		return crossbar.ErrTooLarge
	}
	return f.inner.Program(a)
}
func (f *faultyFabric) UpdateRow(i int, row linalg.Vector) error {
	return f.inner.UpdateRow(i, row)
}
func (f *faultyFabric) UpdateCellInPlace(i, j int, v float64) error {
	return f.inner.UpdateCellInPlace(i, j, v)
}
func (f *faultyFabric) MatVecResidual(base, v, factor linalg.Vector) (linalg.Vector, error) {
	return f.inner.MatVecResidual(base, v, factor)
}
func (f *faultyFabric) Solve(b linalg.Vector) (linalg.Vector, error) {
	f.solves++
	if f.solveErr != nil {
		return nil, f.solveErr
	}
	if f.failSolveAfter > 0 && f.solves >= f.failSolveAfter {
		if f.onFail != nil {
			f.onFail()
		}
		return nil, crossbar.ErrSingular
	}
	out, err := f.inner.Solve(b)
	if err != nil {
		return nil, err
	}
	if f.corruptSolve {
		for i := range out {
			out[i] = nan()
		}
	}
	return out, nil
}
func (f *faultyFabric) Counters() crossbar.Counters { return f.inner.Counters() }

func nan() float64  { return float64(0) / zero() }
func zero() float64 { return 0 }

func faultyFactory(mutate func(*faultyFabric)) FabricFactory {
	return func(size int) (Fabric, error) {
		inner, err := newIdealFabric(size)
		if err != nil {
			return nil, err
		}
		f := &faultyFabric{inner: inner}
		mutate(f)
		return f, nil
	}
}

func testProblem(t *testing.T) *lp.Problem {
	t.Helper()
	p, err := lp.GenerateFeasible(lp.GenConfig{Constraints: 9, Seed: 4})
	if err != nil {
		t.Fatalf("GenerateFeasible: %v", err)
	}
	return p
}

func TestSolverSingularMidSolve(t *testing.T) {
	s, err := NewSolver(Options{Fabric: faultyFactory(func(f *faultyFabric) { f.failSolveAfter = 3 })})
	if err != nil {
		t.Fatalf("NewSolver: %v", err)
	}
	res, err := s.Solve(testProblem(t))
	if err != nil {
		t.Fatalf("Solve returned hard error: %v", err)
	}
	if res.Status != lp.StatusNumericalFailure {
		t.Errorf("status = %v, want numerical-failure", res.Status)
	}
}

func TestSolverNaNDirections(t *testing.T) {
	s, err := NewSolver(Options{Fabric: faultyFactory(func(f *faultyFabric) { f.corruptSolve = true })})
	if err != nil {
		t.Fatalf("NewSolver: %v", err)
	}
	res, err := s.Solve(testProblem(t))
	if err != nil {
		t.Fatalf("Solve returned hard error: %v", err)
	}
	if res.Status != lp.StatusNumericalFailure {
		t.Errorf("status = %v, want numerical-failure", res.Status)
	}
	if !linalg.Vector(res.X).AllFinite() {
		t.Error("returned solution contains non-finite values")
	}
}

func TestSolverProgramFailure(t *testing.T) {
	s, err := NewSolver(Options{Fabric: faultyFactory(func(f *faultyFabric) { f.failProgram = true })})
	if err != nil {
		t.Fatalf("NewSolver: %v", err)
	}
	if _, err := s.Solve(testProblem(t)); !errors.Is(err, crossbar.ErrTooLarge) {
		t.Errorf("Solve = %v, want wrapped ErrTooLarge", err)
	}
}

// TestSolveBatchReturnsFabricErrors: only a singular settle is a numerical
// failure. Any other Solve error is a fault of the fabric, and the batch
// returns it as a hard error naming the problem, as a single solve does.
func TestSolveBatchReturnsFabricErrors(t *testing.T) {
	s, err := NewSolver(Options{Fabric: faultyFactory(func(f *faultyFabric) { f.solveErr = crossbar.ErrNotProgrammed })})
	if err != nil {
		t.Fatalf("NewSolver: %v", err)
	}
	if _, err := s.Solve(testProblem(t)); !errors.Is(err, crossbar.ErrNotProgrammed) {
		t.Errorf("Solve = %v, want wrapped ErrNotProgrammed", err)
	}
	res, err := s.SolveBatch([]*lp.Problem{testProblem(t)})
	if !errors.Is(err, crossbar.ErrNotProgrammed) || !strings.HasPrefix(err.Error(), "problem 0: ") {
		t.Fatalf("SolveBatch = %v, want ErrNotProgrammed wrapped with the problem index", err)
	}
	if res != nil {
		t.Errorf("SolveBatch returned %d results with its error", len(res))
	}
}

func TestLargeScaleSingularTriggersResolve(t *testing.T) {
	// The first attempt's M1 solve fails; the double-check scheme must
	// retry on a fresh fabric and succeed.
	attempt := 0
	factory := func(size int) (Fabric, error) {
		inner, err := newIdealFabric(size)
		if err != nil {
			return nil, err
		}
		attempt++
		f := &faultyFabric{inner: inner}
		if attempt == 1 { // only the first attempt's M1 fabric fails
			f.failSolveAfter = 1
		}
		return f, nil
	}
	s, err := NewLargeScaleSolver(Options{Fabric: factory})
	if err != nil {
		t.Fatalf("NewLargeScaleSolver: %v", err)
	}
	res, err := s.Solve(testProblem(t))
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if res.Status != lp.StatusOptimal {
		t.Fatalf("status = %v after resolve, want optimal", res.Status)
	}
	if res.Resolves != 1 {
		t.Errorf("resolves = %d, want 1", res.Resolves)
	}
}

func TestLargeScaleAllAttemptsFail(t *testing.T) {
	s, err := NewLargeScaleSolver(Options{
		Fabric: faultyFactory(func(f *faultyFabric) { f.failSolveAfter = 1 }),
	})
	if err != nil {
		t.Fatalf("NewLargeScaleSolver: %v", err)
	}
	res, err := s.Solve(testProblem(t))
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if res.Status != lp.StatusNumericalFailure {
		t.Errorf("status = %v, want numerical-failure", res.Status)
	}
	if res.Resolves != maxResolves {
		t.Errorf("resolves = %d, want %d", res.Resolves, maxResolves)
	}
}

// TestCancelBetweenAttempts: a context canceled after a failed attempt's
// last check ends the solve before its re-solve, on both algorithms. The
// caller gets the failed attempt's iterate as a StatusCanceled partial with
// the wrapped context error, and is charged no second attempt.
func TestCancelBetweenAttempts(t *testing.T) {
	type ctxSolver interface {
		SolveContext(context.Context, *lp.Problem) (*engine.Result, error)
	}
	for _, tc := range []struct {
		name  string
		build func(Options) (ctxSolver, error)
	}{
		{"alg1-recovery", func(o Options) (ctxSolver, error) {
			o.Recovery = true
			s, err := NewSolver(o)
			return s, err
		}},
		{"alg2", func(o Options) (ctxSolver, error) {
			s, err := NewLargeScaleSolver(o)
			return s, err
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			// The first settle fails as singular and cancels the context
			// after the loop's check, so the attempt ends as a numerical
			// failure and the cancellation lands between attempts.
			s, err := tc.build(Options{Fabric: faultyFactory(func(f *faultyFabric) {
				f.failSolveAfter, f.onFail = 1, cancel
			})})
			if err != nil {
				t.Fatalf("build: %v", err)
			}
			res, err := s.SolveContext(ctx, testProblem(t))
			if !errors.Is(err, context.Canceled) || !strings.HasPrefix(err.Error(), "core: solve canceled") {
				t.Fatalf("err = %v, want a wrapped context.Canceled", err)
			}
			if res == nil {
				t.Fatal("no partial result")
			}
			if res.Status != lp.StatusCanceled {
				t.Errorf("status = %v, want %v", res.Status, lp.StatusCanceled)
			}
			if res.Resolves != 0 {
				t.Errorf("resolves = %d, want 0: a canceled caller was charged a re-solve", res.Resolves)
			}
		})
	}
}

func TestSolverFabricConstructionFailure(t *testing.T) {
	s, err := NewSolver(Options{Fabric: func(int) (Fabric, error) {
		return nil, crossbar.ErrBadConfig
	}})
	if err != nil {
		t.Fatalf("NewSolver: %v", err)
	}
	if _, err := s.Solve(testProblem(t)); !errors.Is(err, crossbar.ErrBadConfig) {
		t.Errorf("Solve = %v, want wrapped ErrBadConfig", err)
	}
}
