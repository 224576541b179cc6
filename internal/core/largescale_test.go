package core

import (
	"math"
	"testing"

	"github.com/memlp/memlp/internal/linalg"
	"github.com/memlp/memlp/internal/lp"
)

func TestLSSystemShape(t *testing.T) {
	// A = [[1, -2], [-3, 4], [1, 1]]: m=3 > n=2 ⇒ RU (diagonal ε in the Δy
	// columns of the A rows); both columns and two rows carry negatives.
	p := mustProblem(t, linalg.VectorOf(1, 1),
		mustMatrix(t, [][]float64{{1, -2}, {-3, 4}, {1, 1}}), linalg.VectorOf(5, 5, 5))
	sys, err := newLSSystemInto(nil, p, 0.02, true, linalg.Ones(p.NumVariables()), linalg.Ones(p.NumConstraints()), linalg.Ones(p.NumConstraints()), linalg.Ones(p.NumVariables()))
	if err != nil {
		t.Fatalf("newLSSystemInto: %v", err)
	}
	// q = 2 x-mirrors (both columns have negatives) + 3 y-mirrors (every
	// constraint gets one; they carry |negative| Aᵀ entries and, in the
	// default mode, the w/y coupling diagonal).
	if sys.q != 2+3 {
		t.Errorf("q = %d, want 5", sys.q)
	}
	if sys.size != 2+3+5 {
		t.Errorf("size = %d, want 10", sys.size)
	}
	if !sys.matrix.AllNonNegative() {
		t.Error("M1 has negative entries")
	}
	// RU diagonal present on the A rows.
	for i := 0; i < 3; i++ {
		if sys.matrix.At(sys.rowA(i), sys.colY(i)) != sys.eps {
			t.Errorf("RU diag missing at row %d", i)
		}
	}
	// RL absent (m > n).
	for i := 0; i < 2; i++ {
		if sys.matrix.At(sys.rowAT(i), sys.colX(i)) != 0 {
			t.Errorf("RL unexpectedly present at row %d", i)
		}
	}
	if _, err := linalg.Factorize(sys.matrix); err != nil {
		t.Errorf("M1 singular despite regularizer: %v", err)
	}
}

func TestLSSystemTallVariables(t *testing.T) {
	// n > m ⇒ RL fills the Aᵀ-row diagonal instead.
	p := mustProblem(t, linalg.VectorOf(1, 1, 1),
		mustMatrix(t, [][]float64{{1, -1, 2}, {2, 1, -1}}), linalg.VectorOf(5, 5))
	sys, err := newLSSystemInto(nil, p, 0.02, true, linalg.Ones(p.NumVariables()), linalg.Ones(p.NumConstraints()), linalg.Ones(p.NumConstraints()), linalg.Ones(p.NumVariables()))
	if err != nil {
		t.Fatalf("newLSSystemInto: %v", err)
	}
	for i := 0; i < 2; i++ {
		if sys.matrix.At(sys.rowA(i), sys.colY(i)) != 0 {
			t.Errorf("RU unexpectedly present at row %d", i)
		}
	}
	for i := 0; i < 2; i++ {
		if sys.matrix.At(sys.rowAT(i), sys.colX(i)) != sys.eps {
			t.Errorf("RL diag missing at row %d", i)
		}
	}
}

func TestLSSystemMatVecIdentity(t *testing.T) {
	// Eq. 17a: M1·[x, y, p] must equal [Ax + ε·y-term; Aᵀy; ≈0] up to the
	// regularizer contribution on the A rows.
	p := mustProblem(t, linalg.VectorOf(1, 2),
		mustMatrix(t, [][]float64{{1, -2}, {-3, 4}, {0.5, 1}}), linalg.VectorOf(5, 5, 5))
	sys, err := newLSSystemInto(nil, p, 0.02, true, linalg.Ones(p.NumVariables()), linalg.Ones(p.NumConstraints()), linalg.Ones(p.NumConstraints()), linalg.Ones(p.NumVariables()))
	if err != nil {
		t.Fatalf("newLSSystemInto: %v", err)
	}
	x := linalg.VectorOf(1.5, 2.5)
	y := linalg.VectorOf(0.5, 1.5, 2)
	s := sys.stateVector(x, y)
	got, err := sys.matrix.MatVec(s)
	if err != nil {
		t.Fatalf("MatVec: %v", err)
	}
	ax, err := p.A.MatVec(x)
	if err != nil {
		t.Fatal(err)
	}
	aty, err := p.A.MatVecTranspose(y)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		want := ax[i] + sys.eps*y[i]
		if math.Abs(got[sys.rowA(i)]-want) > 1e-12 {
			t.Errorf("A row %d = %v, want %v", i, got[sys.rowA(i)], want)
		}
	}
	for i := 0; i < 2; i++ {
		if math.Abs(got[sys.rowAT(i)]-aty[i]) > 1e-12 {
			t.Errorf("Aᵀ row %d = %v, want %v", i, got[sys.rowAT(i)], aty[i])
		}
	}
	for k := 0; k < sys.q; k++ {
		if math.Abs(got[sys.rowP(k)]) > 1e-12 {
			t.Errorf("p row %d = %v, want 0", k, got[sys.rowP(k)])
		}
	}
}

func TestLargeScaleIdealFabric(t *testing.T) {
	s, err := NewLargeScaleSolver(idealOpts())
	if err != nil {
		t.Fatalf("NewLargeScaleSolver: %v", err)
	}
	for seed := int64(0); seed < 6; seed++ {
		p, err := lp.GenerateFeasible(lp.GenConfig{Constraints: 12, Seed: seed})
		if err != nil {
			t.Fatalf("GenerateFeasible: %v", err)
		}
		want := referenceObjective(t, p)
		res, err := s.Solve(p)
		if err != nil {
			t.Fatalf("seed %d: Solve: %v", seed, err)
		}
		if res.Status != lp.StatusOptimal {
			t.Errorf("seed %d: status = %v (iters %d, pinf %v, gap %v)",
				seed, res.Status, res.Iterations, res.PrimalInfeasibility, res.DualityGap)
			continue
		}
		if rel := math.Abs(res.Objective-want) / (1 + math.Abs(want)); rel > 0.1 {
			t.Errorf("seed %d: objective %v, want %v (rel %v)", seed, res.Objective, want, rel)
		}
	}
}

func TestLargeScaleCrossbar(t *testing.T) {
	for _, varPct := range []float64{0, 0.10} {
		s, err := NewLargeScaleSolver(crossbarOpts(t, varPct, 9))
		if err != nil {
			t.Fatalf("NewLargeScaleSolver: %v", err)
		}
		var relSum float64
		var ok int
		const trials = 3
		for seed := int64(0); seed < trials; seed++ {
			p, err := lp.GenerateFeasible(lp.GenConfig{Constraints: 12, Seed: seed})
			if err != nil {
				t.Fatalf("GenerateFeasible: %v", err)
			}
			want := referenceObjective(t, p)
			res, err := s.Solve(p)
			if err != nil {
				t.Fatalf("var %v seed %d: Solve: %v", varPct, seed, err)
			}
			if res.Status == lp.StatusOptimal {
				ok++
				relSum += math.Abs(res.Objective-want) / (1 + math.Abs(want))
			}
		}
		if ok == 0 {
			t.Fatalf("var %v: no instance solved", varPct)
		}
		if mean := relSum / float64(ok); mean > 0.15 {
			t.Errorf("var %v: mean relative error %v, want ≤ 0.15", varPct, mean)
		}
	}
}

func TestLargeScaleDetectsInfeasible(t *testing.T) {
	s, err := NewLargeScaleSolver(idealOpts())
	if err != nil {
		t.Fatalf("NewLargeScaleSolver: %v", err)
	}
	detected := 0
	const trials = 5
	for seed := int64(0); seed < trials; seed++ {
		p, err := lp.GenerateInfeasible(lp.GenConfig{Constraints: 9, Seed: seed})
		if err != nil {
			t.Fatalf("GenerateInfeasible: %v", err)
		}
		res, err := s.Solve(p)
		if err != nil {
			t.Fatalf("seed %d: Solve: %v", seed, err)
		}
		if res.Status == lp.StatusInfeasible {
			detected++
		} else if res.Status == lp.StatusOptimal {
			// An "optimal" answer to an infeasible problem must at least be
			// flagged by the α-check — reaching here is a bug.
			t.Errorf("seed %d: infeasible problem reported optimal", seed)
		}
	}
	if detected == 0 {
		t.Error("no infeasible instance detected as infeasible")
	}
}

func TestLargeScaleCountsResolves(t *testing.T) {
	s, err := NewLargeScaleSolver(idealOpts())
	if err != nil {
		t.Fatalf("NewLargeScaleSolver: %v", err)
	}
	p, err := lp.GenerateFeasible(lp.GenConfig{Constraints: 9, Seed: 2})
	if err != nil {
		t.Fatalf("GenerateFeasible: %v", err)
	}
	res, err := s.Solve(p)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if res.Counters.CellWrites == 0 || res.Counters.SolveOps == 0 {
		t.Errorf("counters not populated: %+v", res.Counters)
	}
	if res.Resolves < 0 || res.Resolves > 1 {
		t.Errorf("resolves = %d", res.Resolves)
	}
}

// TestLargeScaleSolveAllocations pins that an Algorithm 2 solve on a reused
// solver allocates a fixed number of times, however many iterations it
// runs: the per-iteration residual bases live in buffers of the attempt.
// A 77-iteration m=96 solve may allocate no more than a 60-iteration m=24
// one, and neither as often as once per iteration.
func TestLargeScaleSolveAllocations(t *testing.T) {
	s, err := NewLargeScaleSolver(crossbarOpts(t, 0, 1))
	if err != nil {
		t.Fatalf("NewLargeScaleSolver: %v", err)
	}
	var iters, allocs [2]float64
	for k, m := range []int{24, 96} {
		p, err := lp.GenerateFeasible(lp.GenConfig{Constraints: m, Seed: 1})
		if err != nil {
			t.Fatalf("GenerateFeasible: %v", err)
		}
		res, err := s.Solve(p)
		if err != nil || res.Status != lp.StatusOptimal {
			t.Fatalf("m=%d: status %v, err %v", m, res.Status, err)
		}
		iters[k] = float64(res.Iterations)
		allocs[k] = testing.AllocsPerRun(5, func() {
			if _, err := s.Solve(p); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("m=%d: %.0f iterations, %.0f allocations per solve", m, iters[k], allocs[k])
	}
	if iters[1] <= iters[0] {
		t.Fatalf("the m=96 solve ran %.0f iterations, the m=24 one %.0f: want more", iters[1], iters[0])
	}
	if allocs[1] > allocs[0] {
		t.Errorf("allocations grow with the iteration count: %.0f at %.0f iterations, %.0f at %.0f",
			allocs[1], iters[1], allocs[0], iters[0])
	}
	for k := range allocs {
		if allocs[k] >= iters[k] {
			t.Errorf("%.0f allocations for %.0f iterations: want fewer than one per iteration", allocs[k], iters[k])
		}
	}
}
