package core

import (
	"errors"
	"math"
	"testing"

	"github.com/memlp/memlp/internal/engine"
	"github.com/memlp/memlp/internal/linalg"
	"github.com/memlp/memlp/internal/lp"
)

// socpTestProblem is max x₀+x₁ s.t. x₀+x₁ ≤ 5 (orthant, loose) and ‖x‖ ≤ 3
// (soc slack (3, −x₀, −x₁)), x ≥ 0. The cone binds: optimum 3√2 at
// x₀ = x₁ = 3/√2.
func socpTestProblem(t *testing.T) (*lp.Problem, float64) {
	t.Helper()
	a := mustMatrix(t, [][]float64{
		{1, 1},
		{0, 0},
		{1, 0},
		{0, 1},
	})
	p, err := lp.NewConic("socp-circle", linalg.VectorOf(1, 1), a,
		linalg.VectorOf(5, 3, 0, 0),
		[]lp.Cone{{Type: lp.ConeNonNeg, Dim: 1}, {Type: lp.ConeSOC, Dim: 3}})
	if err != nil {
		t.Fatalf("NewConic: %v", err)
	}
	return p, 3 * math.Sqrt2
}

// TestAnalogSolveSOCP drives the SOCP through the full extended-matrix
// crossbar path on a variation-free fabric: the NT blocks ride the same
// Eq. 14a mapping as the LP diagonals.
func TestAnalogSolveSOCP(t *testing.T) {
	p, want := socpTestProblem(t)
	s, err := NewSolver(crossbarOpts(t, 0, 1))
	if err != nil {
		t.Fatalf("NewSolver: %v", err)
	}
	res, err := s.Solve(p)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if res.Status != lp.StatusOptimal {
		t.Fatalf("status = %v, want optimal (pinf=%g dinf=%g gap=%g cinf=%g after %d iters)",
			res.Status, res.PrimalInfeasibility, res.DualInfeasibility,
			res.DualityGap, res.ConeInfeasibility, res.Iterations)
	}
	if math.Abs(res.Objective-want) > 5e-3*(1+want) {
		t.Errorf("objective = %v, want %v", res.Objective, want)
	}
	if res.ConeInfeasibility > 1e-3 {
		t.Errorf("cone infeasibility %v at the optimum", res.ConeInfeasibility)
	}
	ok, err := p.IsFeasible(res.X, 1e-3)
	if err != nil || !ok {
		t.Errorf("returned point infeasible: ok=%v err=%v", ok, err)
	}
}

// TestAnalogSolveGeneratedSOCPs cross-checks the analog answers against the
// software PDIP on generated instances.
func TestAnalogSolveGeneratedSOCPs(t *testing.T) {
	for _, cfg := range []lp.SOCGenConfig{
		{GenConfig: lp.GenConfig{Constraints: 8, Seed: 3}},
		{GenConfig: lp.GenConfig{Constraints: 12, Seed: 11}, Blocks: 2, BlockDim: 3},
	} {
		p, err := lp.GenerateFeasibleSOCP(cfg)
		if err != nil {
			t.Fatalf("generate: %v", err)
		}
		want := referenceObjective(t, p)
		s, err := NewSolver(crossbarOpts(t, 0, 1))
		if err != nil {
			t.Fatalf("NewSolver: %v", err)
		}
		res, err := s.Solve(p)
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		if res.Status != lp.StatusOptimal {
			t.Errorf("%s: status = %v, want optimal", p.Name, res.Status)
			continue
		}
		if math.Abs(res.Objective-want) > 1e-2*(1+math.Abs(want)) {
			t.Errorf("%s: objective %v, software reference %v", p.Name, res.Objective, want)
		}
	}
}

// TestAnalogConicLPDegenerateIdentical pins the refactor's core promise on
// the analog path: a pure LP carrying an explicit all-orthant cone list must
// produce bit-identical iterates to the nil-cones problem — same extended
// matrix, same µ rule, same step lengths.
func TestAnalogConicLPDegenerateIdentical(t *testing.T) {
	base, err := lp.GenerateFeasible(lp.GenConfig{Constraints: 9, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	tagged, err := lp.NewConic(base.Name, base.C, base.A, base.B,
		[]lp.Cone{{Type: lp.ConeNonNeg, Dim: base.NumConstraints()}})
	if err != nil {
		t.Fatal(err)
	}

	solve := func(p *lp.Problem) *engine.Result {
		o := crossbarOpts(t, 0, 1)
		o.Trace = &TraceOptions{}
		s, err := NewSolver(o)
		if err != nil {
			t.Fatalf("NewSolver: %v", err)
		}
		res, err := s.Solve(p)
		if err != nil {
			t.Fatalf("Solve: %v", err)
		}
		return res
	}
	r1, r2 := solve(base), solve(tagged)
	if r1.Iterations != r2.Iterations || r1.Status != r2.Status {
		t.Fatalf("trajectories diverge: %d/%v vs %d/%v",
			r1.Iterations, r1.Status, r2.Iterations, r2.Status)
	}
	for i := range r1.X {
		if r1.X[i] != r2.X[i] {
			t.Fatalf("x[%d] differs bitwise: %v vs %v", i, r1.X[i], r2.X[i])
		}
	}
	if len(r1.Trace) != len(r2.Trace) {
		t.Fatalf("trace lengths differ: %d vs %d", len(r1.Trace), len(r2.Trace))
	}
	for i := range r1.Trace {
		if r1.Trace[i] != r2.Trace[i] {
			t.Fatalf("trace[%d] differs: %+v vs %+v", i, r1.Trace[i], r2.Trace[i])
		}
	}
}

// TestConicRejectedWhereUnsupported pins the per-algorithm conic surface:
// Algorithm 2 and the batch pool refuse SOC blocks with the sentinel error.
func TestConicRejectedWhereUnsupported(t *testing.T) {
	p, _ := socpTestProblem(t)
	ls, err := NewLargeScaleSolver(idealOpts())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ls.Solve(p); !errors.Is(err, lp.ErrConicUnsupported) {
		t.Errorf("large-scale Solve error = %v, want ErrConicUnsupported", err)
	}
	s, err := NewSolver(idealOpts())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.SolveBatch([]*lp.Problem{p}); !errors.Is(err, lp.ErrConicUnsupported) {
		t.Errorf("SolveBatch error = %v, want ErrConicUnsupported", err)
	}
}

// TestAnalogSOCPWithFaultRecovery exercises the recovery ladder on a conic
// problem: the software fallback rung must carry the conic solve.
func TestAnalogSOCPWithFaultRecovery(t *testing.T) {
	p, want := socpTestProblem(t)
	o := crossbarOpts(t, 0, 1)
	o.Recovery = true
	s, err := NewSolver(o)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Solve(p)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if res.Status != lp.StatusOptimal && res.Status != lp.StatusDegraded {
		t.Fatalf("status = %v, want optimal or degraded", res.Status)
	}
	if math.Abs(res.Objective-want) > 5e-3*(1+want) {
		t.Errorf("objective = %v, want %v", res.Objective, want)
	}
}
