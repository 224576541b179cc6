package core

import (
	"fmt"
	"math"
	"testing"

	"github.com/memlp/memlp/internal/crossbar"
	"github.com/memlp/memlp/internal/engine"
	"github.com/memlp/memlp/internal/linalg"
	"github.com/memlp/memlp/internal/lp"
	"github.com/memlp/memlp/internal/simplex"
	"github.com/memlp/memlp/internal/trace"
)

// TestStopRule drives the shared loop-exit test directly: which rule fires,
// when, and what pauses or resets each stall count.
func TestStopRule(t *testing.T) {
	const window = 4
	tol := lp.Tolerances{}.WithDefaults()
	steady := linalg.VectorOf(1, 2)
	grown := func(k int) linalg.Vector { return linalg.VectorOf(1, 2*math.Pow(1.1, float64(k))) }
	// A residual-limited snapshot (its score is the measured pinf).
	floorBest := &snapshot{ok: true, pinf: 1e-2, dinf: 1e-3, gap: 1e-4}
	// A gap-limited one (its score is the gap).
	gapBest := &snapshot{ok: true, pinf: 1e-3, dinf: 1e-3, gap: 1e-2}

	// run feeds iterations with a falling gap (so the gap-stall rule never
	// fires) and reports the iteration the loop ends on, or 0.
	run := func(best *snapshot, iters int, changedAt, growingAt map[int]bool) (int, lp.Status, string) {
		r := newStopRule(tol, window)
		gap := 1.0
		for it := 1; it <= iters; it++ {
			gap /= 2
			x := steady
			if growingAt[it] {
				x = grown(it)
			}
			if status, done := r.check(1, 1, gap, x, steady, best, changedAt[it]); done {
				return it, status, r.reason(status)
			}
		}
		return 0, lp.StatusIterationLimit, r.reason(lp.StatusIterationLimit)
	}

	t.Run("floor fires window iterations after the last change", func(t *testing.T) {
		it, status, rule := run(floorBest, 50, map[int]bool{1: true, 3: true}, nil)
		if it != 3+window || status != lp.StatusOptimal || rule != trace.StopFloor {
			t.Errorf("ended at %d with %v/%q, want %d optimal/%q", it, status, rule, 3+window, trace.StopFloor)
		}
	})
	t.Run("growing iterations pause the count", func(t *testing.T) {
		// Iteration 1 is always growing (the norm starts from zero).
		it, _, rule := run(floorBest, 50, nil, map[int]bool{3: true, 5: true})
		if want := 1 + window + 2; it != want || rule != trace.StopFloor {
			t.Errorf("ended at %d on %q, want %d on %q", it, rule, want, trace.StopFloor)
		}
	})
	t.Run("a gap-limited snapshot never floor-stops", func(t *testing.T) {
		if it, _, rule := run(gapBest, 50, nil, nil); it != 0 || rule != trace.StopIterationLimit {
			t.Errorf("ended at %d on %q, want the iteration limit", it, rule)
		}
	})
	t.Run("gap-stall fires on a flat gap", func(t *testing.T) {
		r := newStopRule(tol, window)
		for it := 1; it <= 50; it++ {
			// The snapshot keeps changing, so only the gap rule can fire.
			if status, done := r.check(1, 1, 0.5, steady, steady, gapBest, true); done {
				if it != 1+window || status != lp.StatusOptimal || r.reason(status) != trace.StopGapStall {
					t.Errorf("ended at %d with %v/%q, want %d optimal/%q", it, status, r.reason(status), 1+window, trace.StopGapStall)
				}
				return
			}
		}
		t.Error("gap-stall never fired")
	})
	t.Run("tolerance and blow-up", func(t *testing.T) {
		r := newStopRule(tol, window)
		if status, done := r.check(0, 0, 0, steady, steady, floorBest, true); !done || status != lp.StatusOptimal || r.reason(status) != trace.StopTolerance {
			t.Errorf("converged point: %v/%v/%q", done, status, r.reason(status))
		}
		huge := linalg.VectorOf(2 * tol.BlowupLimit)
		r = newStopRule(tol, window)
		if status, done := r.check(1, 1, 1, huge, steady, floorBest, true); !done || status != lp.StatusUnbounded || r.reason(status) != "" {
			t.Errorf("diverged x: %v/%v/%q", done, status, r.reason(status))
		}
		r = newStopRule(tol, window)
		if status, done := r.check(1, 1, 1, steady, huge, floorBest, true); !done || status != lp.StatusInfeasible || r.reason(status) != "" {
			t.Errorf("diverged y: %v/%v/%q", done, status, r.reason(status))
		}
	})
}

// floorProblems builds k m=96, n=32 LPs sharing A, with b scaled per
// instance.
func floorProblems(t *testing.T, k int) []*lp.Problem {
	t.Helper()
	base, err := lp.GenerateFeasible(lp.GenConfig{Constraints: 96, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	out := make([]*lp.Problem, k)
	for i := range out {
		b := base.B.Clone()
		for j := range b {
			b[j] *= 1 + 0.1*float64(i)
		}
		if out[i], err = lp.New(base.Name, base.C, base.A, b); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// checkStop asserts that an Algorithm 1 result ended on the rule before
// the iteration budget and that its answer is optimal and within 5% of the
// simplex optimum. It returns the answer's relative objective error.
func checkStop(t *testing.T, label string, p *lp.Problem, res *engine.Result, rule string) float64 {
	t.Helper()
	done := res.Trace[len(res.Trace)-1]
	if limit := (lp.Tolerances{}).WithDefaults().MaxIterations; done.Stop != rule || res.Iterations >= limit {
		t.Errorf("%s: stopped on %q after %d iterations, want %q before %d",
			label, done.Stop, res.Iterations, rule, limit)
	}
	if res.Status != lp.StatusOptimal {
		t.Fatalf("%s: status %v", label, res.Status)
	}
	ref, err := simplex.New().Solve(p)
	if err != nil || ref.Status != lp.StatusOptimal {
		t.Fatalf("%s: simplex reference: %v %v", label, ref, err)
	}
	rel := math.Abs(res.Objective-ref.Objective) / (1 + math.Abs(ref.Objective))
	if rel > 0.05 {
		t.Errorf("%s: objective %v, simplex %v (rel %v)", label, res.Objective, ref.Objective, rel)
	}
	return rel
}

// TestFloorStopWithoutVariation: in the paper's mode with no variation at
// m=96 the duality gap keeps falling while the analog residuals sit at the
// 8-bit floor, so the gap rule alone ran every solve into the 200-iteration
// cap. The single and batch paths both stop on the floor rule instead. The
// default mode's digital residual has no such floor: the same solves end on
// the tolerance rule in fewer iterations, with a smaller objective error.
func TestFloorStopWithoutVariation(t *testing.T) {
	if testing.Short() {
		t.Skip("m=96 crossbar solves")
	}
	problems := floorProblems(t, 2)
	solveAll := func(analog bool) (single, batch []*engine.Result) {
		t.Helper()
		opts := Options{Fabric: SingleCrossbarFactory(crossbar.Config{}), Parallelism: 1,
			Trace: &TraceOptions{}, AnalogResidual: analog}
		s, err := NewSolver(opts)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range problems {
			res, err := s.Solve(p)
			if err != nil {
				t.Fatal(err)
			}
			single = append(single, res)
		}
		batch, err = s.SolveBatch(problems)
		if err != nil {
			t.Fatal(err)
		}
		return single, batch
	}
	paperSingle, paperBatch := solveAll(true)
	mixedSingle, mixedBatch := solveAll(false)
	for _, c := range []struct {
		path         string
		paper, mixed []*engine.Result
	}{{"single", paperSingle, mixedSingle}, {"batch", paperBatch, mixedBatch}} {
		for i, p := range problems {
			label := fmt.Sprintf("%s %d", c.path, i)
			paperErr := checkStop(t, "paper "+label, p, c.paper[i], trace.StopFloor)
			mixedErr := checkStop(t, "default "+label, p, c.mixed[i], trace.StopTolerance)
			if c.mixed[i].Iterations >= c.paper[i].Iterations || mixedErr >= paperErr {
				t.Errorf("%s: default mode took %d iterations to error %.3g, paper mode %d to %.3g",
					label, c.mixed[i].Iterations, mixedErr, c.paper[i].Iterations, paperErr)
			}
		}
	}
}

// TestGapLimitedPlateauRunsToGapStall: in the paper's mode the SOCP of
// TestAnalogSolveSOCP keeps a gap-limited best iterate on a θ-collapse
// plateau for more than stallWindow iterations before the gap improves
// again. A floor rule without its residual-limited condition stops there
// and returns a point that is infeasible at 1e-3. The default mode reaches
// the tolerance without the plateau.
func TestGapLimitedPlateauRunsToGapStall(t *testing.T) {
	p, _ := socpTestProblem(t)
	for _, c := range []struct {
		analog bool
		rule   string
	}{{true, trace.StopGapStall}, {false, trace.StopTolerance}} {
		opts := crossbarOpts(t, 0, 1)
		opts.Trace = &TraceOptions{}
		opts.AnalogResidual = c.analog
		s, err := NewSolver(opts)
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Solve(p)
		if err != nil {
			t.Fatal(err)
		}
		if done := res.Trace[len(res.Trace)-1]; done.Stop != c.rule {
			t.Errorf("analog=%v: stopped on %q after %d iterations, want %q", c.analog, done.Stop, res.Iterations, c.rule)
		}
	}
}
