package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"

	"github.com/memlp/memlp/internal/cone"
	"github.com/memlp/memlp/internal/crossbar"
	"github.com/memlp/memlp/internal/engine"
	"github.com/memlp/memlp/internal/linalg"
	"github.com/memlp/memlp/internal/lp"
	"github.com/memlp/memlp/internal/trace"
)

// ErrNoFabric is returned when a solver is constructed without a fabric
// factory and no default can be built.
var ErrNoFabric = errors.New("core: no fabric factory configured")

// Options configures both crossbar solvers.
type Options struct {
	// Tol holds the PDIP stopping parameters (εb, εc, εg, δ, r, …).
	Tol lp.Tolerances
	// Alpha is the relaxed feasibility parameter of §3.2: the final point
	// is accepted when A·x ≤ α·b element-wise (α slightly above 1 absorbs
	// process-variation distortion of the constraints). Zero means 1.05.
	Alpha float64
	// StallWindow stops the iteration when the duality gap has not improved
	// for this many consecutive iterations — the analog accuracy floor.
	// Zero means 10.
	StallWindow int
	// Fabric builds the analog substrate for a given matrix size.
	// Nil means a single ideal-variation-free crossbar of sufficient size
	// (crossbar defaults, no variation).
	Fabric FabricFactory
	// ConstantStep is Algorithm 2's fixed step length θ (§3.4: "constant to
	// guarantee convergence"). Zero means 0.2 (the AB1 ablation sweeps the
	// usable band). Ignored by Algorithm 1.
	ConstantStep float64
	// MaxResolves is Algorithm 2's "double checking scheme" budget: how many
	// times a failed solve is retried with freshly written (hence freshly
	// perturbed) coefficients. Zero means 1. Ignored by Algorithm 1.
	MaxResolves int
	// Regularization scales Algorithm 2's literal RU/RL filler entries
	// relative to the mean |A| entry (§3.4: "very small"); only used with
	// LiteralFillers. Zero means 0.02. Ignored by Algorithm 1.
	Regularization float64
	// LiteralFillers selects the paper-literal reading of Eq. 16c for
	// Algorithm 2: static εI fillers in the RU/RL slots instead of the
	// reduced-KKT diagonals (see the LargeScaleSolver doc). Unstable for
	// m ≠ n; kept for the AB2 ablation. Ignored by Algorithm 1.
	LiteralFillers bool
	// Recovery enables the fault-recovery escalation ladder shared by both
	// algorithms (see RecoveryPolicy): rung 1 re-solves per MaxResolves,
	// rung 2 remaps off stuck cells, rung 3 falls back to software. Nil
	// preserves the legacy behavior exactly (Algorithm 1 fails fast,
	// Algorithm 2 re-solves per MaxResolves only).
	Recovery *RecoveryPolicy
	// Parallelism is the fabric-pool width for SolveBatch: the shared
	// extended matrix is replicated onto this many shard fabrics, each driven
	// by its own worker goroutine. Zero means GOMAXPROCS; the width is always
	// clamped to the batch size. Results are bit-identical for every width
	// (per-problem noise epochs decouple the draws from the shard), so this
	// knob trades only memory for throughput. Ignored by single solves.
	Parallelism int
	// ReplicaFabric builds one shard fabric of the batch pool. Unlike Fabric
	// it is called once PER REPLICA, and every call must return an
	// independent fabric realizing the identical device-variation pattern
	// (clone the variation model at its base seed per call): replicas are
	// interchangeable dies holding the same programmed array. Nil falls back
	// to Fabric, which is only correct when that factory already returns
	// independent, identically-behaving fabrics (the variation-free default
	// does; a factory capturing one shared variation model does not).
	ReplicaFabric FabricFactory
	// Trace, when non-nil, enables per-iteration telemetry: every attempt
	// emits one trace.Record per iteration plus recovery events and a
	// terminal done record into a bounded ring, returned as engine.Result.Trace.
	Trace *TraceOptions
	// EnergyModel converts fabric counters into modeled energy (joules).
	// It prices the trace's cumulative energy field and
	// Diagnostics.EnergyJoules; nil leaves both zero.
	EnergyModel func(crossbar.Counters) float64
}

// TraceOptions configures the iteration-trace recorder (see internal/trace).
type TraceOptions struct {
	// Capacity bounds the per-solve ring buffer; <= 0 means
	// trace.DefaultCapacity. When a trajectory outgrows it, the oldest
	// records are dropped (the tail is what debugging needs).
	Capacity int
	// OnRecord, when non-nil, additionally receives every record as it is
	// emitted (before the solve finishes). Batch solves call it from the
	// pool's worker goroutines, so it must be safe for concurrent use.
	OnRecord func(trace.Record)
}

func (o Options) withDefaults() Options {
	o.Tol = o.Tol.WithDefaults()
	if o.Alpha == 0 {
		o.Alpha = 1.05
	}
	if o.StallWindow == 0 {
		o.StallWindow = 10
	}
	if o.Fabric == nil {
		o.Fabric = SingleCrossbarFactory(crossbar.Config{})
	}
	if o.ConstantStep == 0 {
		o.ConstantStep = 0.2
	}
	if o.MaxResolves == 0 {
		o.MaxResolves = 1
	}
	if o.Regularization == 0 {
		o.Regularization = 0.02
	}
	return o
}

func (o Options) validate() error {
	if err := o.Tol.Validate(); err != nil {
		return err
	}
	if o.Alpha < 1 {
		return fmt.Errorf("%w: alpha %v below 1", lp.ErrInvalid, o.Alpha)
	}
	if o.StallWindow < 1 {
		return fmt.Errorf("%w: stall window %d", lp.ErrInvalid, o.StallWindow)
	}
	if !(o.ConstantStep > 0 && o.ConstantStep < 1) {
		return fmt.Errorf("%w: constant step %v outside (0,1)", lp.ErrInvalid, o.ConstantStep)
	}
	if o.MaxResolves < 0 {
		return fmt.Errorf("%w: max resolves %d", lp.ErrInvalid, o.MaxResolves)
	}
	if !(o.Regularization > 0 && o.Regularization < 1) {
		return fmt.Errorf("%w: regularization %v outside (0,1)", lp.ErrInvalid, o.Regularization)
	}
	if o.Parallelism < 0 {
		return fmt.Errorf("%w: parallelism %d", lp.ErrInvalid, o.Parallelism)
	}
	return nil
}

// Result is the shared engine result. It stays as an alias only because
// the benchmark module (perfbench) names core.Result; new code uses
// engine.Result.
type Result = engine.Result

// Solver is Algorithm 1: the memristor crossbar-based linear program solver.
// A Solver is safe for concurrent use; solves are serialized on the single
// simulated fabric, which persists across calls so that same-sized problems
// reuse the programmed array and all iteration workspaces.
type Solver struct {
	opts Options

	mu      sync.Mutex
	ext     *extended
	fab     Fabric
	fabSize int
	// initBuf backs the all-ones starting iterate (x, y, w, z are sliced
	// from it before being copied into the extended state vector), reused
	// across solves under mu.
	initBuf linalg.Vector
	// warmX/warmY, when non-nil, seed subsequent solves from a prior
	// primal/dual point instead of the all-ones start (see SetWarmStart).
	warmX, warmY linalg.Vector
	// tr records the iteration trace under mu; nil when tracing is off.
	tr *traceState
}

// warmFloor is the strict-interior safeguard applied to a warm-started
// iterate: a converged previous solution sits on the boundary (inactive rows
// have y ≈ 0, basic variables have z ≈ 0), and seeding the interior-point
// iteration exactly on the boundary stalls the very first step. 1e-6 is far
// above the iteration's own representability floor (1e-12) but small enough
// that the centering work it re-introduces is a couple of iterations, not a
// cold start.
const warmFloor = 1e-6

// SetWarmStart seeds subsequent solves from a previously computed primal/dual
// point (typically Result.X and Result.Y of an earlier solve of a nearby
// problem) instead of the all-ones interior start. The slacks are re-derived
// from the new problem data (w = b − A·x, z = Aᵀ·y − c) and everything is
// clamped to the strict interior — orthant rows to warmFloor, second-order
// cone rows via the cone interior clamp — so a boundary point from a
// converged solve becomes a usable interior seed. The warm start stays in
// effect for every following solve (including batch members) until replaced
// or cleared; passing nil for either vector clears it. Vectors whose
// dimensions do not match a subsequent problem cause that solve to fail with
// lp.ErrInvalid; non-finite entries (a degraded previous solution) silently
// fall back to the cold start.
func (s *Solver) SetWarmStart(x0, y0 linalg.Vector) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if x0 == nil || y0 == nil {
		s.warmX, s.warmY = nil, nil
		return
	}
	s.warmX = append(s.warmX[:0], x0...)
	s.warmY = append(s.warmY[:0], y0...)
}

// applyWarmStart overwrites the freshly Fill(1)-ed iterate with the stored
// warm-start point when one is set and usable. yScale, when non-nil, maps the
// stored (user-unit) duals into the equilibrated problem's units: the batch
// path row-scales A, under which internal ŷᵢ = yᵢ·scaleᵢ. It reports whether
// the warm seed was applied (false → caller keeps the cold start). Callers
// must hold s.mu (single solves) or rely on the batch entry point having
// snapshotted the vectors (workers only read them).
func (s *Solver) applyWarmStart(p *lp.Problem, yScale, x, y, w, z linalg.Vector) (bool, error) {
	if s.warmX == nil || s.warmY == nil {
		return false, nil
	}
	if len(s.warmX) != len(x) || len(s.warmY) != len(y) {
		return false, fmt.Errorf("%w: warm start dimensions %d vars / %d duals, problem has %d vars / %d constraints",
			lp.ErrInvalid, len(s.warmX), len(s.warmY), len(x), len(y))
	}
	if !allFinite(s.warmX) || !allFinite(s.warmY) {
		return false, nil
	}
	seedWarmStart(p, s.warmX, s.warmY, yScale, x, y, w, z)
	return true, nil
}

func allFinite(v linalg.Vector) bool {
	for _, e := range v {
		if math.IsNaN(e) || math.IsInf(e, 0) {
			return false
		}
	}
	return true
}

// seedWarmStart fills the iterate from a prior point: x and y are taken from
// (x0, y0), the slacks are re-derived from the CURRENT problem data
// (w = b − A·x at zero primal residual, z = Aᵀ·y − c at zero dual residual),
// and all four are clamped to the strict interior. Cone-covered rows of y and
// w keep their sign-free warm values and get the cone interior clamp instead
// of the orthant floor.
func seedWarmStart(p *lp.Problem, x0, y0, yScale, x, y, w, z linalg.Vector) {
	for i, v := range x0 {
		if v < warmFloor {
			v = warmFloor
		}
		x[i] = v
	}
	for i, v := range y0 {
		if yScale != nil {
			v *= yScale[i]
		}
		y[i] = v
	}
	// Dimensions are pre-checked by applyWarmStart, so the Into errors
	// cannot fire.
	_ = p.A.MatVecInto(w, x)
	for i := range w {
		w[i] = p.B[i] - w[i]
	}
	_ = p.A.MatVecTransposeInto(z, y)
	for i := range z {
		v := z[i] - p.C[i]
		if v < warmFloor {
			v = warmFloor
		}
		z[i] = v
	}
	blocks := p.SOCBlocks()
	floorOrthantRows(y, blocks)
	floorOrthantRows(w, blocks)
	if len(blocks) > 0 {
		cone.ClampInterior(y, blocks, warmFloor)
		cone.ClampInterior(w, blocks, warmFloor)
	}
}

// floorOrthantRows applies the warm-start interior floor to every row of v
// not covered by a second-order cone block (blocks are ordered and disjoint
// per lp.Problem.Validate).
func floorOrthantRows(v linalg.Vector, blocks []cone.Block) {
	i := 0
	for _, b := range blocks {
		for ; i < b.Start; i++ {
			if v[i] < warmFloor {
				v[i] = warmFloor
			}
		}
		i = b.Start + b.Dim
	}
	for ; i < len(v); i++ {
		if v[i] < warmFloor {
			v[i] = warmFloor
		}
	}
}

// NewSolver returns an Algorithm 1 solver.
func NewSolver(opts Options) (*Solver, error) {
	opts = opts.withDefaults()
	if err := opts.validate(); err != nil {
		return nil, err
	}
	return &Solver{opts: opts, tr: newTraceState(opts)}, nil
}

// fabric returns the cached analog substrate for the given extended-system
// size, building one on first use or when the size changes. Callers must
// hold s.mu.
func (s *Solver) fabric(size int) (Fabric, error) {
	if s.fab != nil && s.fabSize == size {
		return s.fab, nil
	}
	fab, err := s.opts.Fabric(size)
	if err != nil {
		return nil, fmt.Errorf("core: building fabric: %w", err)
	}
	s.fab, s.fabSize = fab, size
	return fab, nil
}

// Fabrics returns the fabric the solver keeps for its next single solve
// (none before the first). Batch replicas are not kept: each batch builds
// its own and drops them when it returns.
func (s *Solver) Fabrics() []Fabric {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.fab == nil {
		return nil
	}
	return []Fabric{s.fab}
}

// Solve runs Algorithm 1 on p.
func (s *Solver) Solve(p *lp.Problem) (*engine.Result, error) {
	return s.SolveContext(context.Background(), p)
}

// SolveContext runs Algorithm 1 on p, honoring cancellation and deadlines:
// the context is checked once per iteration, and an interrupted solve
// returns its partial iterate with lp.StatusCanceled alongside the wrapped
// context error. With Options.Recovery configured, a failed attempt climbs
// the recovery-escalation ladder instead of being returned directly.
func (s *Solver) SolveContext(ctx context.Context, p *lp.Problem) (*engine.Result, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	start := engine.WallClock()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.tr.begin(0, 0)
	if s.opts.Recovery == nil {
		res, ctxErr, err := s.solveAttempt(ctx, p)
		if err != nil {
			return nil, err
		}
		res.WallTime = engine.WallSince(start)
		res.Trace = s.tr.finish(res)
		return res, ctxErr
	}
	res, err := runRecoveryLadder(ctx, p, s.opts, ladderFuncs{
		attempt: func(ctx context.Context) (*engine.Result, error, error) {
			return s.solveAttempt(ctx, p)
		},
		census: s.census,
		remap:  s.remapFabric,
		event:  s.tr.event,
	})
	if res != nil {
		res.WallTime = engine.WallSince(start)
		res.Trace = s.tr.finish(res)
	}
	return res, err
}

// census tallies the stuck cells on the cached fabric, when it can report.
func (s *Solver) census() crossbar.FaultCensus {
	if fr, ok := s.fab.(FaultReporter); ok {
		return fr.FaultCensus()
	}
	return crossbar.FaultCensus{}
}

// remapFabric asks the cached fabric to dodge its stuck cells (rung 2).
func (s *Solver) remapFabric() bool {
	r, ok := s.fab.(Remapper)
	return ok && r.RemapAvoidingFaults()
}

// solveAttempt runs one full Algorithm 1 attempt. It returns (result,
// ctxErr, err) with the solveOnce contract: ctxErr non-nil means the attempt
// was interrupted (the result carries the partial iterate); err is a hard
// failure with no usable result. Callers must hold s.mu.
func (s *Solver) solveAttempt(ctx context.Context, p *lp.Problem) (*engine.Result, error, error) {
	n, m := p.NumVariables(), p.NumConstraints()
	tol := s.opts.Tol

	if cap(s.initBuf) < 2*(n+m) {
		s.initBuf = linalg.NewVector(2 * (n + m))
	}
	s.initBuf = s.initBuf[:2*(n+m)]
	s.initBuf.Fill(1)
	x := s.initBuf[0:n]
	y := s.initBuf[n : n+m]
	w := s.initBuf[n+m : n+2*m]
	z := s.initBuf[n+2*m:]
	warm, err := s.applyWarmStart(p, nil, x, y, w, z)
	if err != nil {
		return nil, nil, err
	}
	// SOC blocks start at the Jordan identity e = (1, 0, …, 0): the all-ones
	// vector is NOT interior for cone dimension ≥ 3 (‖tail‖ ≥ axis).
	if blocks := p.SOCBlocks(); !warm && len(blocks) > 0 {
		cone.InitInterior(y, blocks)
		cone.InitInterior(w, blocks)
	}

	ext, err := newExtendedInto(s.ext, p, x, y, w, z)
	if err != nil {
		return nil, nil, err
	}
	s.ext = ext
	fab, err := s.fabric(ext.size)
	if err != nil {
		return nil, nil, err
	}
	if dp, ok := fab.(DeltaProgrammer); ok {
		// Delta-write skips are only valid for the scalar complementarity
		// rows of an orthant LP; conic NT blocks are structurally coupled.
		// Toggled per solve because the fabric is cached across problems.
		dp.SetDeltaProgramming(len(ext.blocks) == 0)
	}
	countersBase := fab.Counters()
	s.tr.beginAttempt(countersBase)
	if err := fab.Program(ext.matrix); err != nil {
		return nil, nil, fmt.Errorf("core: programming fabric: %w", err)
	}

	// The full extended state s = [x, y, w, z, u, v, p] is updated as one
	// vector with the fabric's Δs — exactly Algorithm 1's "s = s + θΔs".
	// Re-deriving u/v/p digitally each iteration (u = −w, …) would fight
	// the fabric's variation-perturbed consistency rows and leak a
	// var-proportional fraction of every step into the residuals.
	sExt := ext.stateVector(x, y, w, z)
	factor := ext.factorVector()
	x = sExt[0:n]
	y = sExt[n : n+m]
	w = sExt[n+m : n+2*m]
	z = sExt[n+2*m : 2*n+2*m]

	res := &engine.Result{Status: lp.StatusIterationLimit, MatrixSize: ext.size}
	conic := ext.conic()
	nu := ext.barrierDegree()
	bestConeInf := 0.0
	bestGap := infNaN()
	stall := 0
	prevNorm := 0.0
	// The controller monitors the measured residuals (they fall out of the
	// analog mat-vec for free) and keeps the best iterate seen: near the
	// accuracy floor the analog noise can push later iterates away from
	// feasibility again.
	best := snapshot{score: infNaN()}
	var ctxErr error

	for iter := 1; iter <= tol.MaxIterations; iter++ {
		if err := ctx.Err(); err != nil {
			res.Status = lp.StatusCanceled
			ctxErr = fmt.Errorf("core: solve canceled at iteration %d: %w", iter, err)
			break
		}
		res.Iterations = iter

		// The duality gap zᵀx + yᵀw is computed digitally (the controller
		// holds s) — Eq. 8.
		gap := dualityGap(x, z, y, w)
		mu := tol.Delta * gap / nu
		// Residual r in one fused analog operation (Eq. 15): the fabric
		// computes M·s, halves the r3/r4 rows with resistive dividers, and
		// subtracts from the calibrated base at the summing amplifiers —
		// only the residual itself passes the ADC, so there is no
		// large-product cancellation noise.
		r, err := fab.MatVecResidual(ext.baseVector(p, mu), sExt, factor)
		if err != nil {
			return nil, nil, fmt.Errorf("core: residual mat-vec: %w", err)
		}

		// Convergence measures come from the measured residual (the analog
		// path), exactly as the hardware controller would read them.
		res.PrimalInfeasibility = normInfRange(r, ext.rowR1(0), ext.m)
		res.DualInfeasibility = normInfRange(r, ext.rowR2(0), ext.n)
		res.DualityGap = gap
		if conic {
			res.ConeInfeasibility = ext.slackConeInf(r, w)
		}

		if best.consider(res.PrimalInfeasibility, res.DualInfeasibility, gap, x, y, w, z) {
			bestConeInf = res.ConeInfeasibility
		}

		if res.PrimalInfeasibility <= tol.PrimalFeasTol &&
			res.DualInfeasibility <= tol.DualFeasTol &&
			gap <= tol.GapTol {
			res.Status = lp.StatusOptimal
			break
		}
		if x.NormInf() > tol.BlowupLimit {
			res.Status = lp.StatusUnbounded
			break
		}
		if y.NormInf() > tol.BlowupLimit {
			res.Status = lp.StatusInfeasible
			break
		}
		// Analog accuracy floor: stop when the gap no longer improves —
		// but not while the iterates are still growing, which signals an
		// infeasible/unbounded instance marching toward the blow-up check.
		norm := x.NormInf()
		if yn := y.NormInf(); yn > norm {
			norm = yn
		}
		growing := norm > prevNorm*1.02
		prevNorm = norm
		if gap < bestGap*(1-1e-3) {
			bestGap = gap
			stall = 0
		} else if !growing {
			stall++
			if stall >= s.opts.StallWindow {
				res.Status = lp.StatusOptimal
				break
			}
		}

		// Newton step: one analog settle.
		ds, err := fab.Solve(r)
		if err != nil {
			if errors.Is(err, crossbar.ErrSingular) {
				res.Status = lp.StatusNumericalFailure
				break
			}
			return nil, nil, fmt.Errorf("core: analog solve: %w", err)
		}
		dx, dy, dw, dz := ext.split(ds)
		if !dx.AllFinite() || !dy.AllFinite() || !dw.AllFinite() || !dz.AllFinite() {
			res.Status = lp.StatusNumericalFailure
			break
		}

		var theta float64
		if conic {
			theta = stepLengthConic(tol.StepScale, ext, x, dx, y, dy, w, dw, z, dz)
		} else {
			theta = stepLength(tol.StepScale, [][2]linalg.Vector{
				{x, dx}, {y, dy}, {w, dw}, {z, dz},
			})
		}
		if s.tr.active() {
			s.tr.note(fab.Counters())
			s.tr.emit(trace.Record{
				Event:               trace.EventIteration,
				Iteration:           iter,
				Mu:                  mu,
				DualityGap:          gap,
				PrimalInfeasibility: res.PrimalInfeasibility,
				DualInfeasibility:   res.DualInfeasibility,
				ConeInfeasibility:   res.ConeInfeasibility,
				Theta:               theta,
			})
		}
		// One summing-amplifier update of the whole extended state
		// (x, y, w, z views alias sExt).
		if err := sExt.AxpyInPlace(theta, ds); err != nil {
			return nil, nil, err
		}
		if conic {
			clampPositive(x, z)
			clampOrthantRows(y, ext.socRow)
			clampOrthantRows(w, ext.socRow)
			cone.ClampInterior(y, ext.blocks, 1e-12)
			cone.ClampInterior(w, ext.blocks, 1e-12)
			if !ext.updateScalings(w, y) {
				res.Status = lp.StatusNumericalFailure
				break
			}
		} else {
			clampPositive(x, y, w, z)
		}

		// Refresh the complementarity diagonals on the fabric: the O(N)
		// per-iteration write (2(n+m) ≈ 2.7N cells for n = m/3).
		ext.fillDiagRows(x, y, w, z)
		for _, u := range ext.diagRowUpdates(x, y, w, z) {
			if err := fab.UpdateRow(u.index, u.row); err != nil {
				if errors.Is(err, crossbar.ErrTooLarge) {
					// Row outgrew the programmed headroom: reprogram the
					// full array (counted as a full rewrite).
					if err := fab.Program(ext.matrix); err != nil {
						return nil, nil, fmt.Errorf("core: reprogramming fabric: %w", err)
					}
					break
				}
				return nil, nil, fmt.Errorf("core: updating fabric row: %w", err)
			}
		}
	}

	// Prefer the best-residual iterate over the last one when the solver
	// converged normally; blow-up detections keep the final (diverged)
	// point so callers can inspect it. The final iterate is remembered
	// separately: divergence classification must look at where the
	// iteration was heading, not at the best snapshot.
	finalX, finalY, finalW, finalZ := x, y, w, z
	if res.Status == lp.StatusOptimal || res.Status == lp.StatusIterationLimit {
		if best.valid() {
			x, y, w, z = best.x, best.y, best.w, best.z
			res.PrimalInfeasibility = best.pinf
			res.DualInfeasibility = best.dinf
			res.DualityGap = best.gap
			res.ConeInfeasibility = bestConeInf
		}
	}
	res.X, res.Y, res.W, res.Z = x, y, w, z
	obj, err := p.Objective(x)
	if err != nil {
		return nil, nil, err
	}
	res.Objective = obj
	res.Counters = fab.Counters().Sub(countersBase)

	// Robust feasibility detection (§3.2): accept the converged point only
	// if A·x ≤ α·b; variation can distort the realized constraints, so α is
	// slightly above 1.
	// A budget-limited run that still passes the α-check is an acceptable
	// answer: the analog accuracy floor, not the budget, set its quality.
	if res.Status == lp.StatusOptimal || res.Status == lp.StatusIterationLimit {
		ok, err := p.IsFeasible(x, s.opts.Alpha-1)
		if err != nil {
			return nil, nil, err
		}
		if !ok {
			res.Status = classifyRejected(finalX, finalY, finalW, finalZ)
		} else {
			res.Status = lp.StatusOptimal
		}
	}
	return res, ctxErr, nil
}

// snapshot keeps the best iterate seen, scored by the worst of the measured
// convergence quantities (primal/dual infeasibility and duality gap).
type snapshot struct {
	ok              bool
	score           float64
	pinf, dinf, gap float64
	x, y, w, z      linalg.Vector
	// dual backs y, w and z, so a solve's first snapshot costs two
	// allocations rather than four. x keeps a buffer of its own: callers
	// often retain only the primal answer, which must not pin the duals.
	dual linalg.Vector
}

func (s *snapshot) consider(pinf, dinf, gap float64, x, y, w, z linalg.Vector) bool {
	score := pinf
	if dinf > score {
		score = dinf
	}
	if gap > score {
		score = gap
	}
	if score >= s.score {
		return false
	}
	s.ok = true
	s.score = score
	s.pinf, s.dinf, s.gap = pinf, dinf, gap
	// Copy into retained buffers (their capacity is reused across
	// iterations and solves, so steady-state snapshots allocate nothing).
	// Capacity-capped views keep an append to one dual off the next.
	s.x = append(s.x[:0], x...)
	ny, nw, nz := len(y), len(w), len(z)
	if total := ny + nw + nz; cap(s.dual) < total {
		s.dual = make(linalg.Vector, total)
	}
	s.y = s.dual[:ny:ny]
	s.w = s.dual[ny : ny+nw : ny+nw]
	s.z = s.dual[ny+nw : ny+nw+nz : ny+nw+nz]
	copy(s.y, y)
	copy(s.w, w)
	copy(s.z, z)
	return true
}

// reset invalidates the snapshot while keeping its buffers, so a pool worker
// reuses one snapshot across every solve it runs.
func (s *snapshot) reset() {
	s.ok = false
	s.score = infNaN()
}

func (s *snapshot) valid() bool { return s.ok }

// equilibrate row-scales the problem: each constraint row of [A | b] is
// divided by its maximum absolute coefficient, a standard digital presolve
// that the controller performs once in O(N²). It bounds the dynamic range
// of the slack variables w (and hence of the w/y coupling coefficients the
// analog fabric must represent) without changing the primal solution; the
// dual variables scale as y = y'/d and are unscaled before returning.
// Algorithm 2 depends on it (its M1 carries the w/y couplings); Algorithm 1
// deliberately does not use it — compressing b flattens the slack scale and
// slows its adaptive-step convergence measurably at large m.
func equilibrate(p *lp.Problem) (*lp.Problem, linalg.Vector) {
	m := p.NumConstraints()
	d := linalg.NewVector(m)
	a := p.A.Clone()
	b := p.B.Clone()
	for i := 0; i < m; i++ {
		var mx float64
		for _, v := range a.RawRow(i) {
			if v < 0 {
				v = -v
			}
			if v > mx {
				mx = v
			}
		}
		if bv := b[i]; bv < 0 && -bv > mx {
			mx = -bv
		} else if bv > mx {
			mx = bv
		}
		if mx == 0 {
			mx = 1
		}
		d[i] = mx
		row := a.RawRow(i)
		for j := range row {
			row[j] /= mx
		}
		b[i] /= mx
	}
	return &lp.Problem{Name: p.Name, C: p.C, A: a, B: b}, d
}

// unscaleDual maps the equilibrated problem's duals back to the original
// problem's units: y = y'/d (and the slacks w = d·w').
func unscaleDual(y, w, d linalg.Vector) {
	for i := range y {
		y[i] /= d[i]
		w[i] *= d[i]
	}
}

// --- shared helpers -------------------------------------------------------

func onesVector(n int) linalg.Vector {
	v := linalg.NewVector(n)
	v.Fill(1)
	return v
}

// dualityGap computes zᵀx + yᵀw, the Eq. 8 complementarity gap.
//
//memlp:hotpath
func dualityGap(x, z, y, w linalg.Vector) float64 {
	zx, _ := z.Dot(x)
	yw, _ := y.Dot(w)
	return zx + yw
}

// stepLength implements Eq. 11. Components that have shrunk far below their
// vector's scale are excluded from the ratio test: the analog fabric cannot
// represent coefficients that small (finite conductance dynamic range), so a
// floored complementarity row can demand pushing such a variable negative
// forever. Without the exclusion, a single such component collapses θ
// geometrically (θ ← θ/10 each iteration) and deadlocks every other variable.
//
//memlp:hotpath
func stepLength(r float64, pairs [][2]linalg.Vector) float64 {
	maxRatio := 0.0
	for _, pr := range pairs {
		v, dv := pr[0], pr[1]
		pin := 1e-6 * v.Max()
		if pin < 1e-10 {
			pin = 1e-10
		}
		for i := range v {
			if dv[i] < 0 && v[i] > pin {
				if ratio := -dv[i] / v[i]; ratio > maxRatio {
					maxRatio = ratio
				}
			}
		}
	}
	if maxRatio <= 1 {
		return r
	}
	return r / maxRatio
}

// stepLengthConic is stepLength for conic systems: x and z take the full
// componentwise Eq. 11 ratio test, y and w take it on their orthant rows
// only, and each SOC block contributes its cone-boundary exit ratio instead
// of per-component ratios — tail components of a cone block may legitimately
// cross zero.
//
//memlp:hotpath
func stepLengthConic(r float64, e *extended, x, dx, y, dy, w, dw, z, dz linalg.Vector) float64 {
	maxRatio := ratioFull(0, x, dx)
	maxRatio = ratioFull(maxRatio, z, dz)
	maxRatio = ratioOrthant(maxRatio, y, dy, e.socRow)
	maxRatio = ratioOrthant(maxRatio, w, dw, e.socRow)
	maxRatio = ratioConePinned(maxRatio, y, dy, e.blocks)
	maxRatio = ratioConePinned(maxRatio, w, dw, e.blocks)
	if maxRatio <= 1 {
		return r
	}
	return r / maxRatio
}

// ratioConePinned folds each SOC block's boundary-exit ratio into maxRatio,
// with the cone analog of stepLength's representability pin: a block whose
// interior margin has collapsed far below its own scale is EXCLUDED from the
// ratio test. At an optimum the active blocks sit exactly on the boundary
// (complementarity), so their analog-perturbed Newton directions keep
// pointing outward; without the exclusion the exit ratio grows geometrically
// (θ ← θ·(1−r) each iteration) and deadlocks every other variable, exactly
// the scalar deadlock the LP pin prevents. The per-iteration cone clamp
// keeps excluded blocks representably interior.
//
//memlp:hotpath
func ratioConePinned(maxRatio float64, v, dv linalg.Vector, blocks []cone.Block) float64 {
	for _, blk := range blocks {
		s := v[blk.Start : blk.Start+blk.Dim]
		ds := dv[blk.Start : blk.Start+blk.Dim]
		pin := 1e-6 * s[0]
		if pin < 1e-10 {
			pin = 1e-10
		}
		if -cone.Dist(s) <= pin {
			continue
		}
		t := cone.StepToBoundary(s, ds)
		if t > 0 && !math.IsInf(t, 1) {
			if ratio := 1 / t; ratio > maxRatio {
				maxRatio = ratio
			}
		}
	}
	return maxRatio
}

// ratioFull folds v's componentwise Eq. 11 ratios into maxRatio, with the
// same representability pin as stepLength.
//
//memlp:hotpath
func ratioFull(maxRatio float64, v, dv linalg.Vector) float64 {
	pin := 1e-6 * v.Max()
	if pin < 1e-10 {
		pin = 1e-10
	}
	for i := range v {
		if dv[i] < 0 && v[i] > pin {
			if ratio := -dv[i] / v[i]; ratio > maxRatio {
				maxRatio = ratio
			}
		}
	}
	return maxRatio
}

// ratioOrthant is ratioFull restricted to rows outside SOC blocks.
//
//memlp:hotpath
func ratioOrthant(maxRatio float64, v, dv linalg.Vector, socRow []int) float64 {
	pin := 1e-6 * v.Max()
	if pin < 1e-10 {
		pin = 1e-10
	}
	for i := range v {
		if socRow[i] >= 0 {
			continue
		}
		if dv[i] < 0 && v[i] > pin {
			if ratio := -dv[i] / v[i]; ratio > maxRatio {
				maxRatio = ratio
			}
		}
	}
	return maxRatio
}

// clampOrthantRows floors the orthant rows of a constraint-space vector at
// the representability floor, leaving SOC-block components untouched (their
// tails are legitimately signed; cone.ClampInterior handles the blocks).
//
//memlp:hotpath
func clampOrthantRows(v linalg.Vector, socRow []int) {
	const floor = 1e-12
	for i, x := range v {
		if socRow[i] < 0 && x < floor {
			v[i] = floor
		}
	}
}

// axpyAll applies v ← v + θ·dv to each (v, dv) pair of the flat argument
// list. The variadic slice is built at the (annotated-caller-free) call
// sites; the body itself must stay allocation-free.
//
//memlp:hotpath
func axpyAll(theta float64, pairs ...linalg.Vector) {
	for i := 0; i+1 < len(pairs); i += 2 {
		v, dv := pairs[i], pairs[i+1]
		for j := range v {
			v[j] += theta * dv[j]
		}
	}
}

// clampPositive floors every component at the representability floor,
// keeping the interior iterates strictly positive.
//
//memlp:hotpath
func clampPositive(vs ...linalg.Vector) {
	const floor = 1e-12
	for _, v := range vs {
		for i, x := range v {
			if x < floor {
				v[i] = floor
			}
		}
	}
}

// slewLimit returns the largest step fraction that keeps θ·|Δ|∞ within a few
// multiples of the state's own scale — the summing-amplifier saturation
// bound. Returns +Inf-like (1.0) when the step is already tame.
//
//memlp:hotpath
func slewLimit(state, delta linalg.Vector) float64 {
	const slewFactor = 4.0
	limit := slewFactor * (1 + state.NormInf())
	d := delta.NormInf()
	if d <= limit {
		return 1
	}
	return limit / d
}

// classifyRejected refines a stall-converged-but-α-rejected result using the
// §3.1 duality argument: a diverged dual side (y or the dual slacks z)
// indicates primal infeasibility, a diverged primal side (x or the primal
// slacks w) indicates an unbounded objective; otherwise the solve is a plain
// numerical failure. Interior points start at all-ones, so a side that has
// grown by orders of magnitude while the other stayed small is a divergence
// ray, even when step guards kept it below the hard blow-up limit.
func classifyRejected(x, y, w, z linalg.Vector) lp.Status {
	const grown = 1e3
	dual := y.NormInf()
	if zn := z.NormInf(); zn > dual {
		dual = zn
	}
	primal := x.NormInf()
	if wn := w.NormInf(); wn > primal {
		primal = wn
	}
	if dual > grown && dual > 10*primal {
		return lp.StatusInfeasible
	}
	if primal > grown && primal > 10*dual {
		return lp.StatusUnbounded
	}
	return lp.StatusNumericalFailure
}

// normInfRange returns ‖v[start:start+count]‖∞ without slicing scratch.
//
//memlp:hotpath
func normInfRange(v linalg.Vector, start, count int) float64 {
	var mx float64
	for _, x := range v[start : start+count] {
		if x < 0 {
			x = -x
		}
		if x > mx {
			mx = x
		}
	}
	return mx
}

func infNaN() float64 { return 1e308 }
