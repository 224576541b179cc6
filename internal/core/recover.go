package core

import (
	"context"
	"fmt"
	"math"

	"github.com/memlp/memlp/internal/cone"
	"github.com/memlp/memlp/internal/crossbar"
	"github.com/memlp/memlp/internal/engine"
	"github.com/memlp/memlp/internal/lp"
	"github.com/memlp/memlp/internal/pdip"
	"github.com/memlp/memlp/internal/trace"
)

// RecoveryPolicy configures the escalation ladder that generalizes the
// paper's §4.3 "double checking scheme". The paper retries a failed
// Algorithm 2 solve once on freshly written coefficients; with permanent
// defects in the array a rewrite is not enough, so the ladder adds two more
// rungs:
//
//	rung 1 — re-solve on the same fabric (fresh writes, fresh variation
//	         draws), up to Options.MaxResolves extra attempts;
//	rung 2 — remap the programmed matrix onto a different physical region
//	         of the array, avoiding the stuck cells found by the census,
//	         then re-solve once;
//	rung 3 — abandon the analog path and solve in software (dense-LU PDIP);
//	         an optimal answer from this rung is reported as
//	         lp.StatusDegraded, because it is correct but was not computed
//	         in-memory.
//
// The zero value (no policy) preserves the legacy behavior exactly:
// Algorithm 1 fails fast, Algorithm 2 re-solves per MaxResolves.
type RecoveryPolicy struct {
	// Remap enables rung 2 on fabrics that support it (see Remapper).
	Remap bool
	// SoftwareFallback enables rung 3.
	SoftwareFallback bool
}

// FaultReporter is implemented by fabrics that can census their mapped
// region for permanent defects (a *crossbar.Crossbar with a fault model).
type FaultReporter interface {
	FaultCensus() crossbar.FaultCensus
}

// Remapper is implemented by fabrics that can move the programmed matrix to
// a different physical region to dodge stuck cells. RemapAvoidingFaults
// returns true when the mapping moved; the fabric is then unprogrammed and
// the next Program call writes the new region.
type Remapper interface {
	RemapAvoidingFaults() bool
}

// Compile-time checks: a single crossbar supports the full ladder.
var (
	_ FaultReporter = (*crossbar.Crossbar)(nil)
	_ Remapper      = (*crossbar.Crossbar)(nil)
)

// ladderFuncs adapts one solver (Algorithm 1 or 2) to the shared ladder.
type ladderFuncs struct {
	// attempt runs one full analog solve attempt. Same contract as
	// solveOnce: (result, ctxErr, hard error).
	attempt func(ctx context.Context) (*engine.Result, error, error)
	// census tallies stuck cells across the solver's fabric(s); nil when no
	// fabric is built yet or none can report.
	census func() crossbar.FaultCensus
	// remap asks the fabric(s) to move off their defects; nil or returning
	// false skips rung 2.
	remap func() bool
	// resetFresh drops cached fabrics so the next attempt rebuilds them
	// (Algorithm 2's fresh-fabric double-check semantics); may be nil.
	resetFresh func()
	// event records a ladder escalation in the iteration trace; nil-safe
	// (a traceState method value with a nil receiver is inert).
	event func(ev, status string)
}

// analogAnswerConsistent is the digital half of the double-check scheme,
// extended from primal feasibility (the α-check the solvers already run) to
// optimality. A stuck cell perturbs the realized constraint matrix, so the
// analog loop can converge — and pass the α-check — on the optimum of the
// WRONG problem. Optimality of the true problem is cheap to check digitally
// (O(mn), versus the O(N³)-equivalent solve): the claimed primal/dual pair
// must close the duality gap, cᵀx ≈ bᵀy, and satisfy dual feasibility
// Aᵀy ≥ c, both against the TRUE coefficients and within the analog
// tolerance. For conic problems the dual cone membership y ∈ K is checked
// as well (K is self-dual, so the same Dist test applies); this is the
// conic generalization of the duality cross-check. Dimension mismatches
// skip the check (nothing to compare).
func analogAnswerConsistent(p *lp.Problem, res *engine.Result, tol float64) bool {
	m, n := p.A.Rows(), p.A.Cols()
	if len(res.X) != n || len(res.Y) != m {
		return true
	}
	for _, blk := range p.SOCBlocks() {
		yb := res.Y[blk.Start : blk.Start+blk.Dim]
		var nrm float64
		for _, v := range yb {
			nrm += v * v
		}
		if cone.Dist(yb) > tol*(1+math.Sqrt(nrm)) {
			return false
		}
	}
	primal, err := p.Objective(res.X)
	if err != nil {
		return true
	}
	var dual float64
	for i, y := range res.Y {
		dual += p.B[i] * y
	}
	if math.Abs(primal-dual) > tol*(1+math.Abs(primal)+math.Abs(dual)) {
		return false
	}
	for j := 0; j < n; j++ {
		var aty float64
		for i := 0; i < m; i++ {
			aty += p.A.At(i, j) * res.Y[i]
		}
		if aty < p.C[j]-tol*(1+math.Abs(p.C[j])) {
			return false
		}
	}
	return true
}

// crossCheckTol derives the optimality-check tolerance from the solve's
// α-relaxation: under variation v, α ≈ 1+2v and the optimum legitimately
// moves by O(v), so the gap check must not reject honest analog answers.
func crossCheckTol(opts Options) float64 {
	alpha := opts.Alpha
	if alpha < 1 {
		alpha = 1.05
	}
	return 0.05 + 2*(alpha-1)
}

// needsEscalation decides whether a finished attempt's outcome warrants
// climbing to the next rung. Hard non-answers always escalate. Infeasible
// and unbounded classifications escalate only when the fabric is known to
// carry defects: a stuck cell perturbs the realized constraint matrix, so a
// "diverged" dual ray may be an artifact of the faults rather than a
// property of the problem — silently trusting it would be a wrong answer
// with a confident label. On a defect-free fabric the classification stands.
func needsEscalation(status lp.Status, faultsPresent bool) bool {
	switch status {
	case lp.StatusNumericalFailure, lp.StatusIterationLimit:
		return true
	case lp.StatusInfeasible, lp.StatusUnbounded:
		return faultsPresent
	}
	return false
}

// runRecoveryLadder drives the escalation ladder for one solve. The caller
// holds the solver's mutex and has validated the problem.
func runRecoveryLadder(ctx context.Context, p *lp.Problem, opts Options, f ladderFuncs) (*engine.Result, error) {
	rec := opts.Recovery
	diag := &engine.Diagnostics{}
	var counters crossbar.Counters
	var last *engine.Result

	finish := func(res *engine.Result, rung string) *engine.Result {
		diag.RecoveredBy = rung
		diag.WriteRetries = counters.WriteRetries
		if opts.EnergyModel != nil {
			diag.EnergyJoules = opts.EnergyModel(counters)
		}
		res.Diagnostics = diag
		res.Resolves = diag.Attempts - 1
		return res
	}

	// emitEvent records an escalation in the iteration trace, labeled with
	// the status of the attempt that forced it.
	emitEvent := func(ev string, prev *engine.Result) {
		if f.event == nil {
			return
		}
		status := ""
		if prev != nil {
			status = prev.Status.String()
		}
		f.event(ev, status)
	}

	attemptOnce := func() (*engine.Result, error, error) {
		res, ctxErr, err := f.attempt(ctx)
		if res != nil {
			diag.Attempts++
			counters = counters.Add(res.Counters)
			res.Counters = counters
		}
		return res, ctxErr, err
	}

	refreshCensus := func() {
		if f.census == nil {
			return
		}
		c := f.census()
		diag.StuckOn, diag.StuckOff = c.StuckOn, c.StuckOff
	}

	// acceptable reports whether an attempt's outcome ends the ladder: the
	// status must not warrant escalation, and on a fabric with known defects
	// an "optimal" claim must additionally survive the digital optimality
	// cross-check — a fault-perturbed matrix can yield a confidently wrong
	// optimum that the α-check alone cannot see.
	acceptable := func(res *engine.Result) bool {
		faults := diag.StuckOn+diag.StuckOff > 0
		if needsEscalation(res.Status, faults) {
			return false
		}
		if res.Status == lp.StatusOptimal && faults {
			return analogAnswerConsistent(p, res, crossCheckTol(opts))
		}
		return true
	}

	// Rung 1: the initial attempt plus up to MaxResolves re-solves on the
	// same (re-written) fabric.
	for attempt := 0; attempt <= opts.MaxResolves; attempt++ {
		// Cancellation during a solve is handled inside f.attempt; this
		// check closes the gap between re-solves, so a cancelled caller is
		// never charged another full attempt.
		if last != nil && ctx.Err() != nil {
			return finish(last, ""), ctx.Err()
		}
		if attempt > 0 {
			emitEvent(trace.EventResolve, last)
		}
		res, ctxErr, err := attemptOnce()
		if err != nil {
			return nil, err
		}
		refreshCensus()
		if ctxErr != nil {
			return finish(res, ""), ctxErr
		}
		if acceptable(res) {
			rung := ""
			if attempt > 0 {
				rung = "resolve"
			}
			return finish(res, rung), nil
		}
		last = res
		if f.resetFresh != nil && attempt < opts.MaxResolves {
			f.resetFresh()
		}
	}

	// Rung 2: remap away from the stuck cells and try once more.
	if rec.Remap && f.remap != nil && f.remap() {
		diag.Remapped = true
		emitEvent(trace.EventRemap, last)
		res, ctxErr, err := attemptOnce()
		if err != nil {
			return nil, err
		}
		refreshCensus()
		if ctxErr != nil {
			return finish(res, "remap"), ctxErr
		}
		if acceptable(res) {
			return finish(res, "remap"), nil
		}
		last = res
	}

	// Rung 3: software fallback. Its classification is exact (no analog
	// noise), so infeasible/unbounded verdicts are reported directly; an
	// optimum is honest about its provenance via StatusDegraded.
	if rec.SoftwareFallback {
		diag.SoftwareFallback = true
		emitEvent(trace.EventSoftware, last)
		res, err := softwareSolve(ctx, p)
		if err != nil {
			if res == nil {
				return nil, err
			}
			res.Counters = counters
			return finish(res, "software"), err
		}
		if res.Status == lp.StatusOptimal {
			res.Status = lp.StatusDegraded
		}
		res.Counters = counters
		return finish(res, "software"), nil
	}

	return finish(last, ""), nil
}

// softwareSolve is rung 3: the dense-LU software PDIP at default tolerances
// (the hardware-oriented stall/alpha machinery does not apply). The returned
// Result carries no fabric counters; the caller attaches the ones already
// spent on the failed analog attempts.
func softwareSolve(ctx context.Context, p *lp.Problem) (*engine.Result, error) {
	sw, err := pdip.New(pdip.WithBackend(pdip.NewtonFull))
	if err != nil {
		return nil, fmt.Errorf("core: building software fallback: %w", err)
	}
	return sw.SolveContext(ctx, p)
}
