// Package pdhg implements a distributed first-order LP solver: restarted
// primal–dual hybrid gradient (PDHG, the Chambolle–Pock scheme that PDLP
// and the "From GPUs to RRAMs" line of work scale to huge LPs) with both
// per-iteration mat-vecs executed on a grid of memristor crossbar tiles.
//
// Unlike the interior-point engines, PDHG needs no linear-system solve —
// only A·x and Aᵀ·y — so the constraint matrix can be cut into
// crossbar-sized blocks with no coupling beyond vector segments. The matrix
// is tiled into canonical t×t blocks (four physical crossbars per block:
// the differential A⁺/A⁻ pair and its transpose pair), the blocks are
// swept by a worker grid, and the primal/dual vector segments are
// scattered/gathered over the modeled NoC between half-iterations. That
// scales past the single-fabric ceiling: a problem too large for any one
// crossbar solves on many small tiles.
//
// Determinism contract (the PR 4 pool-width contract, extended to tiles):
// the canonical tiling depends only on the tile size, every tile's noise
// epoch is derived from (block index, slot) before programming, reductions
// run in canonical block order on the controller, and NoC accounting is
// keyed to canonical block coordinates — so results, traces, and modeled
// energy are bit-identical across worker-grid shapes 1×1, 2×2, 4×4.
//
// Termination is by relative KKT residuals. The analog iterates are
// monitored through the recurrence A·x⁺ = (v + A·x)/2 (no third analog
// pass), and a candidate is only accepted after the digital cross-check —
// exact A, exact transpose — confirms primal feasibility, dual feasibility,
// and duality gap at the configured tolerances. The 8-bit ADC floor makes
// ~5e-3 the practical relative tolerance, which is what DefaultTolerances
// uses.
package pdhg

import (
	"context"
	"fmt"
	"math"
	"sync"

	"github.com/memlp/memlp/internal/crossbar"
	"github.com/memlp/memlp/internal/engine"
	"github.com/memlp/memlp/internal/linalg"
	"github.com/memlp/memlp/internal/lp"
	"github.com/memlp/memlp/internal/noc"
	"github.com/memlp/memlp/internal/perf"
	"github.com/memlp/memlp/internal/trace"
)

const (
	// etaStep is the step-size safety factor: τ = σ = η/‖A‖₂ keeps
	// τσ‖A‖² = η² < 1 with margin for the analog operator's variation.
	etaStep = 0.9
	// spectralSteps is the fixed power-iteration count estimating ‖A‖₂
	// (deterministic: all-ones start, no randomness).
	spectralSteps = 40
	// confirmCooldown spaces out digital KKT cross-checks once the
	// monitored residuals first pass, so a hovering iterate cannot trigger
	// an exact O(mn) check every iteration.
	confirmCooldown = 10
	// traceStride decimates per-iteration trace records: PDHG runs orders
	// of magnitude more (much cheaper) iterations than the Newton engines,
	// so recording every 25th keeps golden traces reviewable. Restart
	// events and the done record always emit.
	traceStride = 25

	defaultRestartEvery = 40
	defaultRefreshEvery = 500
)

// DefaultTolerances returns the PDHG stopping parameters: the relative KKT
// tolerances sit at the 8-bit ADC floor (5e-3) rather than the
// interior-point 1e-6, and the iteration budget reflects a first-order
// method's rate.
func DefaultTolerances() lp.Tolerances {
	t := lp.DefaultTolerances()
	t.PrimalFeasTol = 5e-3
	t.DualFeasTol = 5e-3
	t.GapTol = 5e-3
	t.MaxIterations = 20000
	return t
}

// Solver runs restarted PDHG on a tiled crossbar fabric. Safe for
// concurrent use: calls serialize on the handle.
type Solver struct {
	mu sync.Mutex

	ncfg         noc.Config
	xcfg         crossbar.Config
	grid         int
	tol          lp.Tolerances
	restartEvery int
	refreshEvery int
	ring         *trace.Ring
	energy       func(crossbar.Counters) float64
}

// Option configures a Solver.
type Option func(*Solver)

// WithNoC sets the interconnect configuration; cfg.TileSize is the
// canonical block size (and each tile crossbar's dimension).
func WithNoC(cfg noc.Config) Option {
	return func(s *Solver) { s.ncfg = cfg }
}

// WithCrossbar sets the per-tile crossbar configuration (Size is overridden
// with the tile size).
func WithCrossbar(cfg crossbar.Config) Option {
	return func(s *Solver) { s.xcfg = cfg }
}

// WithGrid sets the worker-grid side g: g² goroutines sweep the canonical
// blocks each half-iteration. Results are bit-identical for every g.
func WithGrid(g int) Option {
	return func(s *Solver) { s.grid = g }
}

// WithTolerances overrides DefaultTolerances (zero fields fall back to the
// interior-point defaults of lp.DefaultTolerances, not the PDHG ones).
func WithTolerances(t lp.Tolerances) Option {
	return func(s *Solver) { s.tol = t }
}

// WithTrace enables per-iteration trace recording into a bounded ring of
// the given capacity (<= 0 means trace.DefaultCapacity).
func WithTrace(capacity int) Option {
	return func(s *Solver) { s.ring = trace.NewRing(capacity) }
}

// WithEnergyModel prices aggregate crossbar counters in joules; NoC hop
// energy is added on top from the router's config.
func WithEnergyModel(f func(crossbar.Counters) float64) Option {
	return func(s *Solver) { s.energy = f }
}

// WithRestartInterval sets how many iterations pass between adaptive
// restart checks.
func WithRestartInterval(n int) Option {
	return func(s *Solver) { s.restartEvery = n }
}

// WithRefreshInterval sets how many iterations pass between full tile
// conductance refreshes (0 disables refreshing).
func WithRefreshInterval(n int) Option {
	return func(s *Solver) { s.refreshEvery = n }
}

// New returns a configured Solver.
func New(opts ...Option) (*Solver, error) {
	s := &Solver{
		grid:         1,
		tol:          DefaultTolerances(),
		restartEvery: defaultRestartEvery,
		refreshEvery: defaultRefreshEvery,
	}
	for _, fn := range opts {
		fn(s)
	}
	s.tol = s.tol.WithDefaults()
	if err := s.tol.Validate(); err != nil {
		return nil, err
	}
	if s.grid < 1 {
		return nil, fmt.Errorf("pdhg: %w: worker grid %d", lp.ErrInvalid, s.grid)
	}
	if s.restartEvery < 1 {
		return nil, fmt.Errorf("pdhg: %w: restart interval %d", lp.ErrInvalid, s.restartEvery)
	}
	if s.refreshEvery < 0 {
		return nil, fmt.Errorf("pdhg: %w: refresh interval %d", lp.ErrInvalid, s.refreshEvery)
	}
	return s, nil
}

// kkt bundles one set of relative KKT measures.
type kkt struct {
	pinf, dinf, gap, obj float64
}

func (k kkt) within(tol lp.Tolerances) bool {
	return k.pinf <= tol.PrimalFeasTol && k.dinf <= tol.DualFeasTol && k.gap <= tol.GapTol
}

// Solve runs PDHG without cancellation.
func (s *Solver) Solve(p *lp.Problem) (*engine.Result, error) {
	return s.SolveContext(context.Background(), p)
}

// SolveContext runs restarted PDHG on p, honoring ctx inside the iteration
// loop: a canceled context returns the partial result with
// lp.StatusCanceled and the wrapped context error. Residuals and the
// objective of the result are the exact digital values of the returned
// iterate, not the analog monitors; Counters aggregates all tiles' crossbar
// activity, NoC is the scatter/gather traffic, and Diagnostics.EnergyJoules
// prices both.
func (s *Solver) SolveContext(ctx context.Context, p *lp.Problem) (*engine.Result, error) {
	start := engine.WallClock()
	s.mu.Lock()
	defer s.mu.Unlock()
	if p == nil {
		return nil, fmt.Errorf("pdhg: %w: nil problem", lp.ErrInvalid)
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if p.IsConic() {
		return nil, fmt.Errorf("pdhg: %w", lp.ErrConicUnsupported)
	}
	if s.ring != nil {
		s.ring.Reset()
	}

	fab, err := newFabric(p.A, s.ncfg, s.xcfg)
	if err != nil {
		return nil, err
	}
	workers := s.grid * s.grid
	m, n := p.NumConstraints(), p.NumVariables()

	// Iterate state. x₀ = y₀ = 0, so A·x₀ = 0 exactly and the recurrence
	// A·x⁺ = (v + A·x)/2 stays anchored to analog reality from the start.
	x := linalg.NewVector(n)
	xbar := linalg.NewVector(n)
	y := linalg.NewVector(m)
	z := linalg.NewVector(n) // analog Aᵀ·y, start of each iteration
	v := linalg.NewVector(m) // analog A·x̄
	ax := linalg.NewVector(m)
	xsum := linalg.NewVector(n)
	ysum := linalg.NewVector(m)
	xavg := linalg.NewVector(n)
	yavg := linalg.NewVector(m)
	axAvg := linalg.NewVector(m)
	zAvg := linalg.NewVector(n)
	axd := linalg.NewVector(m) // digital cross-check scratch
	zd := linalg.NewVector(n)

	bInf := 1 + p.B.NormInf()
	cInf := 1 + p.C.NormInf()

	// Deterministic digital power iteration for ‖A‖₂; the step sizes are
	// computed once per solve (digital preprocessing, like the interior
	// engines' scaling pass).
	norm := spectralNorm(p.A, zd, axd)
	if !(norm > 0) {
		norm = 1
	}
	tau := etaStep / norm
	sigma := tau

	emit := func(event string, iteration int, k kkt, status string) {
		if s.ring == nil {
			return
		}
		ctr := fab.counters()
		s.ring.Emit(trace.Record{
			Attempt:             1,
			Iteration:           iteration,
			Event:               event,
			Status:              status,
			DualityGap:          k.gap,
			PrimalInfeasibility: k.pinf,
			DualInfeasibility:   k.dinf,
			Theta:               tau,
			Objective:           k.obj,
			WriteRetries:        ctr.WriteRetries,
			CellsWritten:        ctr.CellWrites,
			CellsSkipped:        ctr.CellSkips,
			TilesRefreshed:      fab.tilesRefreshed,
			EnergyJoules:        s.energyFor(ctr, fab),
		})
	}

	status := lp.StatusIterationLimit
	var ctxErr error
	var final kkt
	confirmed := false
	restarts := 0
	sinceRestart := 0
	lastConfirm := -confirmCooldown
	done := 0

	for iter := 1; iter <= s.tol.MaxIterations; iter++ {
		if err := ctx.Err(); err != nil {
			status = lp.StatusCanceled
			ctxErr = fmt.Errorf("pdhg: solve canceled at iteration %d: %w", iter, err)
			break
		}
		// Adjoint half-iteration: z ← Aᵀ·y on the transpose tiles.
		if err := fab.matVecT(z, y, workers); err != nil {
			return nil, err
		}
		primalStep(x, xbar, z, p.C, tau)
		// Forward half-iteration: v ← A·x̄ on the forward tiles.
		if err := fab.matVec(v, xbar, workers); err != nil {
			return nil, err
		}
		dualStep(y, v, p.B, sigma)
		axUpdate(ax, v)
		done = iter

		if !x.AllFinite() || !y.AllFinite() {
			status = lp.StatusNumericalFailure
			break
		}
		if x.NormInf() > s.tol.BlowupLimit {
			status = lp.StatusUnbounded
			break
		}
		if y.NormInf() > s.tol.BlowupLimit {
			status = lp.StatusInfeasible
			break
		}
		accumulate(xsum, x)
		accumulate(ysum, y)
		sinceRestart++

		// Monitored (analog) residuals: ax tracks A·x through the
		// recurrence; z lags one half-iteration, which is fine for gating.
		obj := dot(p.C, x)
		mon := kkt{
			pinf: maxPosDiff(ax, p.B) / bInf,
			dinf: maxPosDiff(p.C, z) / cInf,
			gap:  relGap(obj, dot(p.B, y)),
			obj:  obj,
		}

		if iter == 1 || iter%traceStride == 0 {
			emit(trace.EventIteration, iter, mon, "")
		}

		// Candidate termination: the monitors gate the exact digital
		// cross-check; only the cross-check declares optimality.
		if mon.within(s.tol) && iter-lastConfirm >= confirmCooldown {
			lastConfirm = iter
			k := digitalKKT(p, x, y, axd, zd, bInf, cInf)
			if k.within(s.tol) {
				status = lp.StatusOptimal
				final = k
				confirmed = true
				break
			}
		}

		// Adaptive restart: every restartEvery iterations, jump to the
		// ergodic average when its (analog) KKT score beats the current
		// iterate's; either way the averaging window resets.
		if sinceRestart >= s.restartEvery {
			inv := 1 / float64(sinceRestart)
			scaleInto(xavg, xsum, inv)
			scaleInto(yavg, ysum, inv)
			if err := fab.matVec(axAvg, xavg, workers); err != nil {
				return nil, err
			}
			if err := fab.matVecT(zAvg, yavg, workers); err != nil {
				return nil, err
			}
			objA := dot(p.C, xavg)
			avg := kkt{
				pinf: maxPosDiff(axAvg, p.B) / bInf,
				dinf: maxPosDiff(p.C, zAvg) / cInf,
				gap:  relGap(objA, dot(p.B, yavg)),
				obj:  objA,
			}
			if max(avg.pinf, avg.dinf, avg.gap) < max(mon.pinf, mon.dinf, mon.gap) {
				copy(x, xavg)
				copy(y, yavg)
				copy(ax, axAvg)
				restarts++
				emit(trace.EventRestart, iter, avg, "")
			}
			xsum.Fill(0)
			ysum.Fill(0)
			sinceRestart = 0
		}

		// Periodic conductance refresh: numerically a no-op (same epochs,
		// same draws), honestly costed in writes and energy.
		if s.refreshEvery > 0 && iter%s.refreshEvery == 0 {
			if err := fab.refresh(); err != nil {
				return nil, err
			}
		}
	}

	if !confirmed {
		final = digitalKKT(p, x, y, axd, zd, bInf, cInf)
		if status == lp.StatusIterationLimit && final.within(s.tol) {
			status = lp.StatusOptimal
		}
	}

	ctr := fab.counters()
	res := &engine.Result{
		Status:              status,
		X:                   x,
		Y:                   y,
		Objective:           final.obj,
		Iterations:          done,
		Restarts:            restarts,
		TilesRefreshed:      fab.tilesRefreshed,
		PrimalInfeasibility: final.pinf,
		DualInfeasibility:   final.dinf,
		DualityGap:          final.gap,
		Counters:            ctr,
		NoC:                 fab.router.Stats(),
		MatrixSize:          max(m, n),
		Diagnostics: &engine.Diagnostics{
			WriteRetries: ctr.WriteRetries,
			Attempts:     1,
			EnergyJoules: s.energyFor(ctr, fab),
		},
	}
	emit(trace.EventDone, done, final, status.String())
	if s.ring != nil {
		res.Trace = s.ring.Snapshot()
	}
	res.WallTime = engine.WallSince(start)
	return res, ctxErr
}

// Tiles reports how many canonical blocks a problem of the given shape
// occupies under the solver's tile size (before any solve).
func (s *Solver) Tiles(m, n int) (int, error) {
	probe, err := noc.NewRouter(s.ncfg, 1, 1)
	if err != nil {
		return 0, err
	}
	t := probe.Config().TileSize
	return ((m + t - 1) / t) * ((n + t - 1) / t), nil
}

// energyFor prices the aggregate crossbar counters plus the NoC traffic.
func (s *Solver) energyFor(ctr crossbar.Counters, fab *fabric) float64 {
	e := perf.NoCCost(fab.router.Stats(), fab.router.Config()).Energy
	if s.energy != nil {
		e += s.energy(ctr)
	}
	return e
}

// digitalKKT evaluates the exact relative KKT measures of (x, y) with the
// true matrix A — the cross-check that decides optimality, independent of
// every analog non-ideality.
func digitalKKT(p *lp.Problem, x, y, axd, zd linalg.Vector, bInf, cInf float64) kkt {
	// Dimensions are fixed by construction; the Into errors cannot fire.
	_ = p.A.MatVecInto(axd, x)
	_ = p.A.MatVecTransposeInto(zd, y)
	obj := dot(p.C, x)
	return kkt{
		pinf: maxPosDiff(axd, p.B) / bInf,
		dinf: maxPosDiff(p.C, zd) / cInf,
		gap:  relGap(obj, dot(p.B, y)),
		obj:  obj,
	}
}

// relGap is the scaled duality-gap measure |cᵀx − bᵀy|/(1+|cᵀx|+|bᵀy|).
func relGap(obj, bty float64) float64 {
	return math.Abs(obj-bty) / (1 + math.Abs(obj) + math.Abs(bty))
}

// spectralNorm estimates ‖A‖₂ by a fixed number of deterministic power
// iterations on AᵀA (all-ones start). u must have length n, w length m.
func spectralNorm(a *linalg.Matrix, u, w linalg.Vector) float64 {
	u.Fill(1)
	lambda := 0.0
	for q := 0; q < spectralSteps; q++ {
		_ = a.MatVecInto(w, u)
		_ = a.MatVecTransposeInto(u, w)
		lambda = u.Norm2()
		if !(lambda > 0) {
			return 0
		}
		scaleInto(u, u, 1/lambda)
	}
	return math.Sqrt(lambda)
}
