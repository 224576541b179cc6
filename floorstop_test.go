package memlp

import (
	"context"
	"math"
	"testing"

	"github.com/memlp/memlp/internal/trace"
)

// stallWindow is the core package's stall-rule patience, which every public
// crossbar engine runs with.
const stallWindow = 10

func goldenCase(t *testing.T, name string) goldenTraceCase {
	t.Helper()
	for _, gc := range goldenTraceCases() {
		if gc.name == name {
			return gc
		}
	}
	t.Fatalf("no golden case %q", name)
	return goldenTraceCase{}
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// TestFloorStopEndsAtLastSnapshotChange pins the floor rule on the paper
// mode's crossbar-gen12 trajectory: the loop ends exactly stallWindow
// iterations after the best iterate last changed, and it returns that
// iterate bit for bit — the same answer a run cut off at that iteration
// returns. The default mode's gen12 trajectory ends on the tolerance rule.
func TestFloorStopEndsAtLastSnapshotChange(t *testing.T) {
	if recs := runGoldenCase(t, goldenCase(t, "crossbar-gen12")); recs[len(recs)-1].Stop != trace.StopTolerance {
		t.Errorf("default mode ended on %q, want %q", recs[len(recs)-1].Stop, trace.StopTolerance)
	}
	gc := goldenCase(t, "crossbar-gen12-paper")
	recs := runGoldenCase(t, gc)
	done := recs[len(recs)-1]
	if done.Event != trace.EventDone || done.Stop != trace.StopFloor || done.Status != StatusOptimal.String() {
		t.Fatalf("done record = %+v, want an optimal floor stop", done)
	}

	// The snapshot changes whenever an iteration's score, the worst of its
	// measured residuals and gap, undercuts every earlier one.
	bestScore, last := math.Inf(1), trace.Record{}
	for _, r := range recs[:len(recs)-1] {
		if s := max(r.PrimalInfeasibility, r.DualInfeasibility, r.DualityGap); s < bestScore {
			bestScore, last = s, r
		}
	}
	if done.Iteration != last.Iteration+stallWindow {
		t.Errorf("loop ended at iteration %d, want %d (last snapshot change at %d + window %d)",
			done.Iteration, last.Iteration+stallWindow, last.Iteration, stallWindow)
	}
	if !sameBits(done.PrimalInfeasibility, last.PrimalInfeasibility) ||
		!sameBits(done.DualInfeasibility, last.DualInfeasibility) ||
		!sameBits(done.DualityGap, last.DualityGap) {
		t.Errorf("done measures (%v, %v, %v) are not iteration %d's (%v, %v, %v)",
			done.PrimalInfeasibility, done.DualInfeasibility, done.DualityGap, last.Iteration,
			last.PrimalInfeasibility, last.DualInfeasibility, last.DualityGap)
	}
	if last.DualityGap > max(last.PrimalInfeasibility, last.DualInfeasibility) {
		t.Errorf("floor stop on a gap-limited snapshot (gap %v, pinf %v, dinf %v)",
			last.DualityGap, last.PrimalInfeasibility, last.DualInfeasibility)
	}

	// Cut off at the last change, the loop returns its best snapshot on the
	// iteration-limit path: the iterate of that very iteration.
	solve := func(extra ...Option) *Solution {
		t.Helper()
		sol, err := newCaseSolver(t, gc, extra...).Solve(context.Background(), gc.problems(t)[0])
		if err != nil {
			t.Fatal(err)
		}
		return sol
	}
	full, cut := solve(), solve(WithMaxIterations(last.Iteration))
	if tr := cut.Trace(); tr[len(tr)-1].Stop != trace.StopIterationLimit {
		t.Errorf("cut run stopped on %q, want %q", tr[len(tr)-1].Stop, trace.StopIterationLimit)
	}
	if len(full.X) != len(cut.X) {
		t.Fatalf("answer lengths %d and %d", len(full.X), len(cut.X))
	}
	for j := range full.X {
		if !sameBits(full.X[j], cut.X[j]) {
			t.Fatalf("x[%d] = %v after the floor stop, %v at iteration %d", j, full.X[j], cut.X[j], last.Iteration)
		}
	}
	if !sameBits(full.Objective, cut.Objective) {
		t.Errorf("objective %v after the floor stop, %v at iteration %d", full.Objective, cut.Objective, last.Iteration)
	}
}

// TestConicGoldensEndOnGapStall guards the paper mode's conic trajectories
// against the floor rule: both keep the length they had before it and
// still end on the gap rule (DESIGN.md D19). In the default mode the
// portfolio reaches the tolerance, and gen12 still ends on the gap rule,
// sooner.
func TestConicGoldensEndOnGapStall(t *testing.T) {
	for _, c := range []struct {
		name  string
		stop  string
		iters int
	}{
		{"conic-portfolio-paper", trace.StopGapStall, 42},
		{"conic-gen12-paper", trace.StopGapStall, 49},
		{"conic-portfolio", trace.StopTolerance, 16},
		{"conic-gen12", trace.StopGapStall, 43},
	} {
		recs := runGoldenCase(t, goldenCase(t, c.name))
		done := recs[len(recs)-1]
		if done.Stop != c.stop || done.Iteration != c.iters {
			t.Errorf("%s ended on %q after %d iterations, want %q after %d",
				c.name, done.Stop, done.Iteration, c.stop, c.iters)
		}
	}
}
