package core

import (
	"errors"
	"math"
	"testing"

	"github.com/memlp/memlp/internal/engine"
	"github.com/memlp/memlp/internal/linalg"
	"github.com/memlp/memlp/internal/lp"
)

// TestWarmStartRepeatSolve pins the hot-path contract on the serial
// Algorithm 1 path: re-solving the same problem seeded from its own optimum
// must stay optimal and converge in no more iterations than the cold solve.
func TestWarmStartRepeatSolve(t *testing.T) {
	p, err := lp.GenerateFeasible(lp.GenConfig{Constraints: 12, Seed: 7})
	if err != nil {
		t.Fatalf("GenerateFeasible: %v", err)
	}
	s, err := NewSolver(idealOpts())
	if err != nil {
		t.Fatalf("NewSolver: %v", err)
	}
	cold, err := s.Solve(p)
	if err != nil {
		t.Fatalf("cold Solve: %v", err)
	}
	if cold.Status != lp.StatusOptimal {
		t.Fatalf("cold status = %v, want optimal", cold.Status)
	}
	s.SetWarmStart(cold.X, cold.Y)
	warm, err := s.Solve(p)
	if err != nil {
		t.Fatalf("warm Solve: %v", err)
	}
	if warm.Status != lp.StatusOptimal {
		t.Fatalf("warm status = %v, want optimal", warm.Status)
	}
	if warm.Iterations > cold.Iterations {
		t.Errorf("warm solve took %d iterations, cold took %d — warm start made it worse",
			warm.Iterations, cold.Iterations)
	}
	if math.Abs(warm.Objective-cold.Objective) > 1e-6*(1+math.Abs(cold.Objective)) {
		t.Errorf("warm objective %v, cold %v", warm.Objective, cold.Objective)
	}
}

// TestWarmStartDimensionMismatch: warm vectors sized for a different problem
// must fail the solve loudly with lp.ErrInvalid, not silently seed garbage.
func TestWarmStartDimensionMismatch(t *testing.T) {
	p, err := lp.GenerateFeasible(lp.GenConfig{Constraints: 10, Seed: 5})
	if err != nil {
		t.Fatalf("GenerateFeasible: %v", err)
	}
	s, err := NewSolver(idealOpts())
	if err != nil {
		t.Fatalf("NewSolver: %v", err)
	}
	s.SetWarmStart(linalg.NewVector(3), linalg.NewVector(4))
	if _, err := s.Solve(p); !errors.Is(err, lp.ErrInvalid) {
		t.Fatalf("mismatched warm dims: err = %v, want lp.ErrInvalid", err)
	}
	// Clearing the warm state restores normal solving.
	s.SetWarmStart(nil, nil)
	res, err := s.Solve(p)
	if err != nil {
		t.Fatalf("Solve after clear: %v", err)
	}
	if res.Status != lp.StatusOptimal {
		t.Errorf("status after clear = %v, want optimal", res.Status)
	}
}

// TestWarmStartNonFiniteFallsBackCold: a degraded previous solution (NaN/Inf
// iterate, e.g. from a failed attempt) must be ignored, producing exactly the
// cold-start trajectory rather than an error or a poisoned iterate.
func TestWarmStartNonFiniteFallsBackCold(t *testing.T) {
	p, err := lp.GenerateFeasible(lp.GenConfig{Constraints: 10, Seed: 11})
	if err != nil {
		t.Fatalf("GenerateFeasible: %v", err)
	}
	s, err := NewSolver(idealOpts())
	if err != nil {
		t.Fatalf("NewSolver: %v", err)
	}
	cold, err := s.Solve(p)
	if err != nil {
		t.Fatalf("cold Solve: %v", err)
	}
	n, m := p.NumVariables(), p.NumConstraints()
	badX := linalg.NewVector(n)
	badX.Fill(1)
	badX[0] = math.NaN()
	badY := linalg.NewVector(m)
	badY.Fill(1)
	badY[m-1] = math.Inf(1)
	s.SetWarmStart(badX, badY)
	warm, err := s.Solve(p)
	if err != nil {
		t.Fatalf("Solve with non-finite warm vectors: %v", err)
	}
	if warm.Status != cold.Status || warm.Iterations != cold.Iterations {
		t.Errorf("non-finite warm start changed the trajectory: status %v/%d iters, cold %v/%d",
			warm.Status, warm.Iterations, cold.Status, cold.Iterations)
	}
	if !linalg.Identical(warm.Objective, cold.Objective) {
		t.Errorf("objective %v, want bit-identical cold %v", warm.Objective, cold.Objective)
	}
}

// TestWarmStartConic: warm-starting a conic solve must keep the seeded slacks
// strictly interior to the second-order cone (ClampInterior) and still reach
// the optimum.
func TestWarmStartConic(t *testing.T) {
	p, want := socpTestProblem(t)
	s, err := NewSolver(crossbarOpts(t, 0, 1))
	if err != nil {
		t.Fatalf("NewSolver: %v", err)
	}
	cold, err := s.Solve(p)
	if err != nil {
		t.Fatalf("cold Solve: %v", err)
	}
	if cold.Status != lp.StatusOptimal {
		t.Fatalf("cold status = %v, want optimal", cold.Status)
	}
	s.SetWarmStart(cold.X, cold.Y)
	warm, err := s.Solve(p)
	if err != nil {
		t.Fatalf("warm Solve: %v", err)
	}
	if warm.Status != lp.StatusOptimal {
		t.Fatalf("warm status = %v, want optimal (cinf=%g after %d iters)",
			warm.Status, warm.ConeInfeasibility, warm.Iterations)
	}
	if math.Abs(warm.Objective-want) > 5e-3*(1+want) {
		t.Errorf("warm objective = %v, want %v", warm.Objective, want)
	}
}

// TestWarmStartBatchDeterministicAcrossParallelism extends the pool's
// bit-identity contract to warm-started solves: the warm vectors are read-only
// shared state, so every width must still produce identical bits under full
// stochastic hardware.
func TestWarmStartBatchDeterministicAcrossParallelism(t *testing.T) {
	problems := batchProblems(t, 8)

	// A prior solution of the first instance seeds every later batch.
	seedSolver, err := NewSolver(noisyPoolOptions(t, 1))
	if err != nil {
		t.Fatalf("NewSolver(seed): %v", err)
	}
	prior, err := seedSolver.Solve(problems[0])
	if err != nil {
		t.Fatalf("seed Solve: %v", err)
	}

	var ref []*engine.Result
	for _, par := range []int{1, 2, 8} {
		s, err := NewSolver(noisyPoolOptions(t, par))
		if err != nil {
			t.Fatalf("NewSolver(par=%d): %v", par, err)
		}
		s.SetWarmStart(prior.X, prior.Y)
		results, err := s.SolveBatch(problems)
		if err != nil {
			t.Fatalf("SolveBatch(par=%d): %v", par, err)
		}
		if ref == nil {
			ref = results
			continue
		}
		for i, res := range results {
			want := ref[i]
			if res.Status != want.Status {
				t.Errorf("par=%d problem %d: status %v, want %v", par, i, res.Status, want.Status)
			}
			if res.Iterations != want.Iterations {
				t.Errorf("par=%d problem %d: iterations %d, want %d", par, i, res.Iterations, want.Iterations)
			}
			if !linalg.Identical(res.Objective, want.Objective) {
				t.Errorf("par=%d problem %d: objective %v, want bit-identical %v", par, i, res.Objective, want.Objective)
			}
			for j := range want.X {
				if !linalg.Identical(res.X[j], want.X[j]) {
					t.Fatalf("par=%d problem %d: X[%d] = %v, want bit-identical %v", par, i, j, res.X[j], want.X[j])
				}
			}
			for j := range want.Y {
				if !linalg.Identical(res.Y[j], want.Y[j]) {
					t.Fatalf("par=%d problem %d: Y[%d] = %v, want bit-identical %v", par, i, j, res.Y[j], want.Y[j])
				}
			}
		}
	}
}
