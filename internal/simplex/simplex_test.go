package simplex

import (
	"errors"
	"math"
	"testing"

	"github.com/memlp/memlp/internal/linalg"
	"github.com/memlp/memlp/internal/lp"
	"github.com/memlp/memlp/internal/pdip"
)

func mustProblem(t *testing.T, c []float64, rows [][]float64, b []float64) *lp.Problem {
	t.Helper()
	a, err := linalg.MatrixFromRows(rows)
	if err != nil {
		t.Fatalf("MatrixFromRows: %v", err)
	}
	p, err := lp.New("t", linalg.VectorOf(c...), a, linalg.VectorOf(b...))
	if err != nil {
		t.Fatalf("lp.New: %v", err)
	}
	return p
}

func TestKnownOptima(t *testing.T) {
	tests := []struct {
		name string
		c    []float64
		a    [][]float64
		b    []float64
		opt  float64
	}{
		{"corner", []float64{3, 2}, [][]float64{{1, 1}, {1, 3}}, []float64{4, 6}, 12},
		{"box", []float64{1, 1}, [][]float64{{1, 0}, {0, 1}}, []float64{2, 3}, 5},
		{"vanderbei", []float64{5, 4, 3},
			[][]float64{{2, 3, 1}, {4, 1, 2}, {3, 4, 2}}, []float64{5, 11, 8}, 13},
		{"negative-coeffs", []float64{1, -1}, [][]float64{{-1, 1}, {1, 1}}, []float64{1, 3}, 3},
		{"degenerate", []float64{2, 1}, [][]float64{{1, 1}, {1, 1}, {1, 0}}, []float64{4, 4, 4}, 8},
	}
	s := New()
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			res, err := s.Solve(mustProblem(t, tc.c, tc.a, tc.b))
			if err != nil {
				t.Fatalf("Solve: %v", err)
			}
			if res.Status != lp.StatusOptimal {
				t.Fatalf("status = %v", res.Status)
			}
			if math.Abs(res.Objective-tc.opt) > 1e-8 {
				t.Errorf("objective = %v, want %v", res.Objective, tc.opt)
			}
		})
	}
}

func TestNegativeRHSPhase1(t *testing.T) {
	// x ≥ 1 encoded as −x ≤ −1; max −x ⇒ x = 1, objective −1.
	p := mustProblem(t, []float64{-1}, [][]float64{{-1}}, []float64{-1})
	res, err := New().Solve(p)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if res.Status != lp.StatusOptimal {
		t.Fatalf("status = %v", res.Status)
	}
	if math.Abs(res.Objective-(-1)) > 1e-9 {
		t.Errorf("objective = %v, want -1", res.Objective)
	}
	if math.Abs(res.X[0]-1) > 1e-9 {
		t.Errorf("x = %v, want 1", res.X[0])
	}
}

func TestInfeasible(t *testing.T) {
	// x ≤ 1 and x ≥ 2.
	p := mustProblem(t, []float64{1}, [][]float64{{1}, {-1}}, []float64{1, -2})
	res, err := New().Solve(p)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if res.Status != lp.StatusInfeasible {
		t.Errorf("status = %v, want infeasible", res.Status)
	}
}

func TestUnbounded(t *testing.T) {
	p := mustProblem(t, []float64{1, 0}, [][]float64{{-1, 1}}, []float64{1})
	res, err := New().Solve(p)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if res.Status != lp.StatusUnbounded {
		t.Errorf("status = %v, want unbounded", res.Status)
	}
}

func TestGeneratedInfeasibleDetected(t *testing.T) {
	s := New()
	for seed := int64(0); seed < 10; seed++ {
		p, err := lp.GenerateInfeasible(lp.GenConfig{Constraints: 9, Seed: seed})
		if err != nil {
			t.Fatalf("GenerateInfeasible: %v", err)
		}
		res, err := s.Solve(p)
		if err != nil {
			t.Fatalf("seed %d: Solve: %v", seed, err)
		}
		if res.Status != lp.StatusInfeasible {
			t.Errorf("seed %d: status = %v, want infeasible", seed, res.Status)
		}
	}
}

func TestAgreesWithPDIP(t *testing.T) {
	s := New()
	ip, err := pdip.New()
	if err != nil {
		t.Fatalf("pdip.New: %v", err)
	}
	for seed := int64(0); seed < 15; seed++ {
		p, err := lp.GenerateFeasible(lp.GenConfig{Constraints: 15, Seed: seed})
		if err != nil {
			t.Fatalf("GenerateFeasible: %v", err)
		}
		sres, err := s.Solve(p)
		if err != nil {
			t.Fatalf("seed %d: simplex: %v", seed, err)
		}
		ipres, err := ip.Solve(p)
		if err != nil {
			t.Fatalf("seed %d: pdip: %v", seed, err)
		}
		if sres.Status != lp.StatusOptimal || ipres.Status != lp.StatusOptimal {
			t.Fatalf("seed %d: statuses %v / %v", seed, sres.Status, ipres.Status)
		}
		if rel := math.Abs(sres.Objective-ipres.Objective) / (1 + math.Abs(sres.Objective)); rel > 1e-4 {
			t.Errorf("seed %d: simplex %v vs pdip %v", seed, sres.Objective, ipres.Objective)
		}
		ok, err := p.IsFeasible(sres.X, 1e-7)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Errorf("seed %d: simplex point infeasible", seed)
		}
	}
}

func TestPivotLimit(t *testing.T) {
	s := New()
	s.maxPivots = 1
	p, err := lp.GenerateFeasible(lp.GenConfig{Constraints: 12, Seed: 1})
	if err != nil {
		t.Fatalf("GenerateFeasible: %v", err)
	}
	if _, err := s.Solve(p); !errors.Is(err, ErrPivotLimit) {
		t.Errorf("Solve = %v, want ErrPivotLimit", err)
	}
}

func TestInvalidProblem(t *testing.T) {
	s := New()
	if _, err := s.Solve(&lp.Problem{}); !errors.Is(err, lp.ErrInvalid) {
		t.Errorf("Solve = %v, want ErrInvalid", err)
	}
}
