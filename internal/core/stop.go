package core

import (
	"github.com/memlp/memlp/internal/linalg"
	"github.com/memlp/memlp/internal/lp"
	"github.com/memlp/memlp/internal/trace"
)

// stopRule is the exit test of the interior-point loops: Algorithm 1's loop
// and Algorithm 2. Each loop calls check once per iteration, after the
// residual read and the best-iterate snapshot update and before the Newton
// settle.
//
// Besides the tolerance and blow-up tests it runs two stall rules, both
// paused while the iterates are still growing (an infeasible or unbounded
// instance marching toward the blow-up limit):
//
//   - gap-stall: the duality gap has not improved for window iterations;
//   - floor: the snapshot the solver would return has not changed for
//     window iterations, and its score is set by a measured residual rather
//     than by the gap (DESIGN.md D19). Past that point the loop only spends
//     settles on iterates the snapshot rejects.
type stopRule struct {
	tol    lp.Tolerances
	window int

	bestGap    float64
	gapStall   int
	floorStall int
	prevNorm   float64
	// fired names the rule that ended the loop (a trace.Stop* value);
	// empty while the loop runs and after a blow-up.
	fired string
}

// stallWindow is the patience of both stall rules at the analog accuracy
// floor, in iterations (D19). Algorithm 2's constant-θ split iteration
// converges more gradually than Algorithm 1's damped Newton and waits twice
// as long.
const stallWindow = 10

func newStopRule(tol lp.Tolerances, window int) stopRule {
	return stopRule{tol: tol, window: window, bestGap: infNaN()}
}

// check reports whether the loop ends at this iteration and with which
// status. pinf, dinf and gap are this iteration's measures, and changed is
// what best.consider returned for them.
//
//memlp:hotpath
func (r *stopRule) check(pinf, dinf, gap float64, x, y linalg.Vector, best *snapshot, changed bool) (lp.Status, bool) {
	if pinf <= r.tol.PrimalFeasTol && dinf <= r.tol.DualFeasTol && gap <= r.tol.GapTol {
		r.fired = trace.StopTolerance
		return lp.StatusOptimal, true
	}
	norm := x.NormInf()
	if norm > r.tol.BlowupLimit {
		return lp.StatusUnbounded, true
	}
	yn := y.NormInf()
	if yn > r.tol.BlowupLimit {
		return lp.StatusInfeasible, true
	}
	if yn > norm {
		norm = yn
	}
	growing := norm > r.prevNorm*1.02
	r.prevNorm = norm
	if gap < r.bestGap*(1-1e-3) {
		r.bestGap = gap
		r.gapStall = 0
	} else if !growing {
		r.gapStall++
		if r.gapStall >= r.window {
			r.fired = trace.StopGapStall
			return lp.StatusOptimal, true
		}
	}
	if changed {
		r.floorStall = 0
	} else if !growing {
		r.floorStall++
		if r.floorStall >= r.window && best.gap <= max(best.pinf, best.dinf) {
			r.fired = trace.StopFloor
			return lp.StatusOptimal, true
		}
	}
	return lp.StatusIterationLimit, false
}

// reason names the rule that ended a loop which finished with status: the
// one check fired, or trace.StopIterationLimit when the budget ran out.
func (r *stopRule) reason(status lp.Status) string {
	if status == lp.StatusIterationLimit {
		return trace.StopIterationLimit
	}
	return r.fired
}
