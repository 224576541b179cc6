package core

// Tests for the recovery-escalation ladder: rung selection, the digital
// optimality cross-check, and the StatusDegraded software-fallback contract.

import (
	"context"
	"testing"

	"github.com/memlp/memlp/internal/crossbar"
	"github.com/memlp/memlp/internal/engine"
	"github.com/memlp/memlp/internal/linalg"
	"github.com/memlp/memlp/internal/lp"
	"github.com/memlp/memlp/internal/memristor"
)

func TestNeedsEscalation(t *testing.T) {
	tests := []struct {
		status lp.Status
		faults bool
		want   bool
	}{
		{lp.StatusOptimal, false, false},
		{lp.StatusOptimal, true, false},
		{lp.StatusNumericalFailure, false, true},
		{lp.StatusNumericalFailure, true, true},
		{lp.StatusIterationLimit, true, true},
		{lp.StatusInfeasible, false, false},
		{lp.StatusInfeasible, true, true},
		{lp.StatusUnbounded, false, false},
		{lp.StatusUnbounded, true, true},
		{lp.StatusCanceled, true, false},
	}
	for _, tc := range tests {
		if got := needsEscalation(tc.status, tc.faults); got != tc.want {
			t.Errorf("needsEscalation(%v, faults=%v) = %v, want %v", tc.status, tc.faults, got, tc.want)
		}
	}
}

// TestAnalogAnswerConsistent exercises the digital optimality cross-check on
// a problem whose optimum is known exactly: maximize x s.t. x ≤ 1 has
// x* = 1, y* = 1, objective 1.
func TestAnalogAnswerConsistent(t *testing.T) {
	a, err := linalg.MatrixFromRows([][]float64{{1}})
	if err != nil {
		t.Fatal(err)
	}
	p, err := lp.New("unit", linalg.Vector{1}, a, linalg.Vector{1})
	if err != nil {
		t.Fatal(err)
	}
	tol := 0.1
	tests := []struct {
		name string
		x, y linalg.Vector
		want bool
	}{
		{"true optimum", linalg.Vector{1}, linalg.Vector{1}, true},
		{"small analog error", linalg.Vector{0.98}, linalg.Vector{1.01}, true},
		{"suboptimal pair (dual infeasible)", linalg.Vector{0.2}, linalg.Vector{0.2}, false},
		{"gap violation", linalg.Vector{0.2}, linalg.Vector{1}, false},
		{"dimension mismatch skips check", linalg.Vector{1, 2}, linalg.Vector{1}, true},
	}
	for _, tc := range tests {
		res := &engine.Result{X: tc.x, Y: tc.y}
		if got := analogAnswerConsistent(p, res, tol); got != tc.want {
			t.Errorf("%s: consistent = %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestCrossCheckTolTracksAlpha(t *testing.T) {
	loose := crossCheckTol(Options{Alpha: 1.45})
	tight := crossCheckTol(Options{Alpha: 1.0})
	def := crossCheckTol(Options{})
	if loose <= tight {
		t.Errorf("tolerance does not grow with alpha: %v vs %v", loose, tight)
	}
	if def <= 0 || def >= 1 {
		t.Errorf("default tolerance %v implausible", def)
	}
}

// faultyCrossbarOptions builds Options whose fabric carries heavy stuck-cell
// defects — enough that the analog path cannot deliver the true optimum —
// with the recovery ladder on.
func faultyCrossbarOptions(density float64) Options {
	return Options{
		Fabric: SingleCrossbarFactory(crossbar.Config{
			Faults: &memristor.FaultModel{
				StuckOnDensity:  density / 2,
				StuckOffDensity: density / 2,
				Seed:            17,
			},
		}),
		Recovery: true,
	}
}

// TestLadderSoftwareFallbackDegraded drives the full ladder on a hopelessly
// defective fabric: the answer must come from rung 2, flagged Degraded, with
// the true optimum and populated diagnostics.
func TestLadderSoftwareFallbackDegraded(t *testing.T) {
	p := testProblem(t)
	sw, err := softwareSolve(context.Background(), p)
	if err != nil {
		t.Fatalf("software reference: %v", err)
	}

	for _, alg := range []string{"alg1", "alg2"} {
		t.Run(alg, func(t *testing.T) {
			opts := faultyCrossbarOptions(0.2)
			var res *engine.Result
			if alg == "alg1" {
				s, err := NewSolver(opts)
				if err != nil {
					t.Fatalf("NewSolver: %v", err)
				}
				res, err = s.Solve(p)
				if err != nil {
					t.Fatalf("Solve: %v", err)
				}
			} else {
				s, err := NewLargeScaleSolver(opts)
				if err != nil {
					t.Fatalf("NewLargeScaleSolver: %v", err)
				}
				res, err = s.Solve(p)
				if err != nil {
					t.Fatalf("Solve: %v", err)
				}
			}
			if res.Status != lp.StatusDegraded {
				t.Fatalf("status = %v, want degraded at 20%% stuck density", res.Status)
			}
			d := res.Diagnostics
			if d == nil {
				t.Fatal("no diagnostics on recovered result")
			}
			if !d.SoftwareFallback || d.RecoveredBy != "software" {
				t.Errorf("diagnostics = %+v, want software rung", d)
			}
			if d.StuckOn+d.StuckOff == 0 {
				t.Error("census empty at 20% density")
			}
			if d.Attempts < 1 {
				t.Errorf("Attempts = %d, want ≥ 1", d.Attempts)
			}
			if diff := res.Objective - sw.Objective; diff > 1e-6 || diff < -1e-6 {
				t.Errorf("degraded objective %v != software %v", res.Objective, sw.Objective)
			}
		})
	}
}

// TestLadderCleanFabricFirstTry: with a recovery policy but no defects the
// ladder accepts the first attempt and reports it as such.
func TestLadderCleanFabricFirstTry(t *testing.T) {
	s, err := NewSolver(Options{
		Fabric:   SingleCrossbarFactory(crossbar.Config{}),
		Recovery: true,
	})
	if err != nil {
		t.Fatalf("NewSolver: %v", err)
	}
	res, err := s.Solve(testProblem(t))
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if res.Status != lp.StatusOptimal {
		t.Fatalf("status = %v", res.Status)
	}
	d := res.Diagnostics
	if d == nil {
		t.Fatal("no diagnostics")
	}
	if d.Attempts != 1 || d.RecoveredBy != "" || d.SoftwareFallback {
		t.Errorf("clean solve diagnostics = %+v, want untouched first try", d)
	}
}
