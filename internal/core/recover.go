package core

import (
	"context"
	"fmt"
	"math"
	"time"

	"github.com/memlp/memlp/internal/cone"
	"github.com/memlp/memlp/internal/crossbar"
	"github.com/memlp/memlp/internal/engine"
	"github.com/memlp/memlp/internal/lp"
	"github.com/memlp/memlp/internal/noc"
	"github.com/memlp/memlp/internal/pdip"
	"github.com/memlp/memlp/internal/trace"
)

// maxResolves is the re-solve budget of the paper's §4.3 "double checking
// scheme": a failed attempt is re-solved once on freshly written (hence
// freshly perturbed) coefficients.
const maxResolves = 1

// FaultReporter is implemented by fabrics that can census their mapped
// region for permanent defects (a *crossbar.Crossbar with a fault model, or
// a *noc.TiledFabric of them).
type FaultReporter interface {
	FaultCensus() crossbar.FaultCensus
}

var (
	_ FaultReporter = (*crossbar.Crossbar)(nil)
	_ FaultReporter = (*noc.TiledFabric)(nil)
)

// faultCensus tallies the stuck cells of the slots' fabrics that can report
// them; an empty slot reports none.
func faultCensus(slots []*fabricSlot) (stuckOn, stuckOff int) {
	for _, sl := range slots {
		if fr, ok := sl.fab.(FaultReporter); ok {
			c := fr.FaultCensus()
			stuckOn += c.StuckOn
			stuckOff += c.StuckOff
		}
	}
	return stuckOn, stuckOff
}

// ladderFuncs adapts one solver (Algorithm 1 or 2) to runRecoveryLadder.
type ladderFuncs struct {
	// attempt runs one full analog solve attempt. Same contract as
	// solveOnce: (result, ctxErr, hard error).
	attempt func(ctx context.Context) (*engine.Result, error, error)
	// slots holds the solver's fabrics: the ladder censuses them for stuck
	// cells, and empties them after a failed attempt when fresh is set.
	slots []*fabricSlot
	// resolves is the re-solve budget: maxResolves, or zero for Algorithm 1
	// without Options.Recovery.
	resolves int
	// problem is the batch index the trace and the noise epoch are keyed
	// by; zero for single solves.
	problem int
	// fresh empties the slots after a failed attempt, so the next attempt
	// builds new fabrics (Algorithm 2's fresh-fabric double-check without a
	// recovery policy).
	fresh bool
	// tr records the iteration trace; nil when tracing is off.
	tr *traceState
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

// acceptable reports whether an attempt's outcome ends the ladder: the
// status must not warrant escalation, and on a fabric with known defects an
// "optimal" claim must additionally survive the digital optimality
// cross-check — a fault-perturbed matrix can yield a confidently wrong
// optimum that the α-check alone cannot see.
func acceptable(p *lp.Problem, res *engine.Result, faults bool, opts Options) bool {
	if needsEscalation(res.Status, faults) {
		return false
	}
	return res.Status != lp.StatusOptimal || !faults || analogAnswerConsistent(p, res, crossCheckTol(opts))
}

// runRecoveryLadder runs one solve of either crossbar algorithm, the only
// path by which they run attempts. Rung 1 is the first attempt plus up to
// f.resolves re-solves; with Options.Recovery, rung 2 falls back to
// software. It begins and finishes the trace and measures WallTime from
// start. The caller owns the fabrics f drives (under the solver's mutex, or
// as a batch shard) and has validated the problem.
func runRecoveryLadder(ctx context.Context, p *lp.Problem, opts Options, start time.Time, f ladderFuncs) (*engine.Result, error) {
	f.tr.begin(f.problem, int64(f.problem))
	var diag engine.Diagnostics
	// counters and transfers sum the attempts' windows: the result of a
	// re-solved or fallen-back solve is charged for every attempt.
	var counters crossbar.Counters
	var transfers noc.Stats

	// finish stamps the answer. Diagnostics are attached only with a
	// recovery policy, so plain solves allocate nothing here.
	finish := func(res *engine.Result, rung string) *engine.Result {
		res.Resolves = diag.Attempts - 1
		if opts.Recovery {
			diag.RecoveredBy = rung
			diag.WriteRetries = counters.WriteRetries
			d := diag
			res.Diagnostics = &d
		}
		res.WallTime = engine.WallSince(start)
		res.Trace = f.tr.finish(res)
		return res
	}

	// Rung 1: the initial attempt plus up to f.resolves re-solves.
	var last *engine.Result
	for attempt := 0; attempt <= f.resolves; attempt++ {
		if last != nil {
			// Cancellation during a solve is handled inside f.attempt; this
			// check closes the gap between re-solves, so a cancelled caller
			// is never charged another full attempt. The failed attempt's
			// iterate is the partial answer.
			if err := ctx.Err(); err != nil {
				last.Status = lp.StatusCanceled
				return finish(last, ""), fmt.Errorf("core: solve canceled before re-solve %d: %w", attempt, err)
			}
			f.tr.event(trace.EventResolve, last.Status.String())
		}
		res, ctxErr, err := f.attempt(ctx)
		if err != nil {
			return nil, err
		}
		diag.Attempts++
		counters = counters.Add(res.Counters)
		res.Counters = counters
		transfers = transfers.Add(res.NoC)
		res.NoC = transfers
		if opts.Recovery {
			diag.StuckOn, diag.StuckOff = faultCensus(f.slots)
		}
		if ctxErr != nil {
			return finish(res, ""), ctxErr
		}
		if acceptable(p, res, diag.StuckOn+diag.StuckOff > 0, opts) {
			rung := ""
			if attempt > 0 {
				rung = "resolve"
			}
			return finish(res, rung), nil
		}
		last = res
		if f.fresh {
			for _, sl := range f.slots {
				sl.fab = nil
			}
		}
	}
	if !opts.Recovery {
		return finish(last, ""), nil
	}

	// Rung 2: software fallback. Its classification is exact (no analog
	// noise), so infeasible/unbounded verdicts are reported directly; an
	// optimum is honest about its provenance via StatusDegraded.
	diag.SoftwareFallback = true
	f.tr.event(trace.EventSoftware, last.Status.String())
	res, err := softwareSolve(ctx, p)
	if res == nil {
		return nil, err
	}
	if err == nil && res.Status == lp.StatusOptimal {
		res.Status = lp.StatusDegraded
	}
	res.Counters, res.NoC = counters, transfers
	return finish(res, "software"), err
}

// softwareSolve is rung 2: the dense-LU software PDIP at default tolerances
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
