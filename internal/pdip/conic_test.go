package pdip

import (
	"math"
	"testing"

	"github.com/memlp/memlp/internal/linalg"
	"github.com/memlp/memlp/internal/lp"
)

// socpFixture is max x₀+x₁ s.t. x₀+x₁ ≤ 5 (orthant, loose) and ‖x‖ ≤ 3
// (soc block with slack (3, −x₀, −x₁)), x ≥ 0. The cone binds: the optimum
// sits on the circle at x₀ = x₁ = 3/√2, objective 3√2 ≈ 4.243 < 5.
func socpFixture(t *testing.T) (*lp.Problem, float64) {
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

func TestSolveSOCPBothBackends(t *testing.T) {
	for _, backend := range []NewtonBackend{NewtonFull, NewtonReduced} {
		t.Run(backend.String(), func(t *testing.T) {
			p, want := socpFixture(t)
			s := mustSolver(t, WithBackend(backend))
			res, err := s.Solve(p)
			if err != nil {
				t.Fatalf("Solve: %v", err)
			}
			if res.Status != lp.StatusOptimal {
				t.Fatalf("status = %v, want optimal (pinf=%g dinf=%g gap=%g)",
					res.Status, res.PrimalInfeasibility, res.DualInfeasibility, res.DualityGap)
			}
			if math.Abs(res.Objective-want) > 1e-4*(1+want) {
				t.Errorf("objective = %v, want %v", res.Objective, want)
			}
			if res.ConeInfeasibility > 1e-6 {
				t.Errorf("cone infeasibility %v at the optimum", res.ConeInfeasibility)
			}
			ok, err := p.IsFeasible(res.X, 1e-6)
			if err != nil || !ok {
				t.Errorf("returned point infeasible: ok=%v err=%v", ok, err)
			}
		})
	}
}

func TestSolveGeneratedSOCPs(t *testing.T) {
	for _, cfg := range []lp.SOCGenConfig{
		{GenConfig: lp.GenConfig{Constraints: 8, Seed: 3}},
		{GenConfig: lp.GenConfig{Constraints: 12, Seed: 11}, Blocks: 2, BlockDim: 3},
		{GenConfig: lp.GenConfig{Constraints: 15, Seed: 5}, Blocks: 1, BlockDim: 5},
	} {
		p, err := lp.GenerateFeasibleSOCP(cfg)
		if err != nil {
			t.Fatalf("generate: %v", err)
		}
		for _, backend := range []NewtonBackend{NewtonFull, NewtonReduced} {
			s := mustSolver(t, WithBackend(backend))
			res, err := s.Solve(p)
			if err != nil {
				t.Fatalf("%s/%s: %v", p.Name, backend, err)
			}
			if res.Status != lp.StatusOptimal {
				t.Errorf("%s/%s: status = %v, want optimal", p.Name, backend, res.Status)
				continue
			}
			ok, err := p.IsFeasible(res.X, 1e-5)
			if err != nil || !ok {
				t.Errorf("%s/%s: optimal point infeasible (ok=%v err=%v)", p.Name, backend, ok, err)
			}
		}
	}
}

// TestBackendsAgreeOnSOCP pins the full and reduced systems to the same
// objective — they are algebraically the same Newton step.
func TestBackendsAgreeOnSOCP(t *testing.T) {
	p, err := lp.GenerateFeasibleSOCP(lp.SOCGenConfig{
		GenConfig: lp.GenConfig{Constraints: 10, Seed: 21}, Blocks: 1, BlockDim: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	full, err := mustSolver(t, WithBackend(NewtonFull)).Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	red, err := mustSolver(t, WithBackend(NewtonReduced)).Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if full.Status != lp.StatusOptimal || red.Status != lp.StatusOptimal {
		t.Fatalf("statuses %v/%v, want optimal/optimal", full.Status, red.Status)
	}
	if math.Abs(full.Objective-red.Objective) > 1e-5*(1+math.Abs(full.Objective)) {
		t.Errorf("backends disagree: full %v vs reduced %v", full.Objective, red.Objective)
	}
}

// TestConicLPDegenerateIdentical pins the conic refactor's core promise at
// the pdip layer: a pure LP with an explicit all-orthant cone list takes the
// exact same code path — bit-identical iterates — as the nil-cones LP.
func TestConicLPDegenerateIdentical(t *testing.T) {
	base, err := lp.GenerateFeasible(lp.GenConfig{Constraints: 9, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	tagged, err := lp.NewConic(base.Name, base.C, base.A, base.B,
		[]lp.Cone{{Type: lp.ConeNonNeg, Dim: base.NumConstraints()}})
	if err != nil {
		t.Fatal(err)
	}

	for _, backend := range []NewtonBackend{NewtonFull, NewtonReduced} {
		r1, err := mustSolver(t, WithBackend(backend), WithTrace(0)).Solve(base)
		if err != nil {
			t.Fatal(err)
		}
		r2, err := mustSolver(t, WithBackend(backend), WithTrace(0)).Solve(tagged)
		if err != nil {
			t.Fatal(err)
		}
		if r1.Iterations != r2.Iterations || r1.Status != r2.Status {
			t.Fatalf("%s: trajectories diverge: %d/%v vs %d/%v",
				backend, r1.Iterations, r1.Status, r2.Iterations, r2.Status)
		}
		for i := range r1.X {
			if r1.X[i] != r2.X[i] {
				t.Fatalf("%s: x[%d] differs bitwise: %v vs %v", backend, i, r1.X[i], r2.X[i])
			}
		}
		if len(r1.Trace) != len(r2.Trace) {
			t.Fatalf("%s: trace lengths differ", backend)
		}
		for i := range r1.Trace {
			if r1.Trace[i] != r2.Trace[i] {
				t.Fatalf("%s: trace[%d] differs: %+v vs %+v", backend, i, r1.Trace[i], r2.Trace[i])
			}
		}
	}
}
