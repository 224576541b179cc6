package core

import (
	"context"
	"errors"
	"testing"

	"github.com/memlp/memlp/internal/linalg"
	"github.com/memlp/memlp/internal/lp"
	"github.com/memlp/memlp/internal/trace"
)

// TestSolverReusesFabric pins the handle-reuse guarantee: a hundred
// sequential same-shape solves build the analog fabric exactly once, a
// larger problem afterwards forces exactly one rebuild, and a smaller one
// after that builds none: the fabric holds the largest system solved.
func TestSolverReusesFabric(t *testing.T) {
	builds := 0
	o := idealOpts()
	inner := o.Fabric
	o.Fabric = func(size int) (Fabric, error) {
		builds++
		return inner(size)
	}
	s, err := NewSolver(o)
	if err != nil {
		t.Fatalf("NewSolver: %v", err)
	}

	p := mustProblem(t, linalg.VectorOf(3, 2),
		mustMatrix(t, [][]float64{{1, 1}, {1, 3}}),
		linalg.VectorOf(4, 6))
	for i := 0; i < 100; i++ {
		res, err := s.Solve(p)
		if err != nil {
			t.Fatalf("solve %d: %v", i, err)
		}
		if res.Status != lp.StatusOptimal {
			t.Fatalf("solve %d: status = %v, want optimal", i, res.Status)
		}
	}
	if builds != 1 {
		t.Errorf("fabric built %d times across 100 same-shape solves, want 1", builds)
	}

	// A larger extended system cannot fit the cached fabric: one rebuild.
	p2 := mustProblem(t, linalg.VectorOf(1, 1, 1),
		mustMatrix(t, [][]float64{{1, 1, 1}, {1, 2, 0}, {0, 1, 2}}),
		linalg.VectorOf(3, 2, 2))
	if _, err := s.Solve(p2); err != nil {
		t.Fatalf("resized solve: %v", err)
	}
	if builds != 2 {
		t.Errorf("fabric built %d times after a shape change, want 2", builds)
	}
	if _, err := s.Solve(p); err != nil {
		t.Fatalf("smaller solve: %v", err)
	}
	if builds != 2 {
		t.Errorf("fabric built %d times after a smaller system, want 2", builds)
	}
}

// TestSolveContextCancelMidIteration cancels from inside the iteration loop
// (via the Trace hook) and checks the solver stops at the next loop-top
// check, reporting the partial iterate with StatusCanceled.
func TestSolveContextCancelMidIteration(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	o := idealOpts()
	o.Trace = &TraceOptions{OnRecord: func(r trace.Record) {
		if r.Event == trace.EventIteration && r.Iteration >= 1 {
			cancel()
		}
	}}
	s, err := NewSolver(o)
	if err != nil {
		t.Fatalf("NewSolver: %v", err)
	}
	p := mustProblem(t, linalg.VectorOf(3, 2),
		mustMatrix(t, [][]float64{{1, 1}, {1, 3}}),
		linalg.VectorOf(4, 6))

	res, err := s.SolveContext(ctx, p)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res == nil {
		t.Fatal("canceled solve returned nil result")
	}
	if res.Status != lp.StatusCanceled {
		t.Errorf("status = %v, want canceled", res.Status)
	}
	if res.Iterations > 2 {
		t.Errorf("ran %d iterations after cancellation at iteration 1", res.Iterations)
	}
}
