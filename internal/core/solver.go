package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"github.com/memlp/memlp/internal/cone"
	"github.com/memlp/memlp/internal/crossbar"
	"github.com/memlp/memlp/internal/engine"
	"github.com/memlp/memlp/internal/linalg"
	"github.com/memlp/memlp/internal/lp"
	"github.com/memlp/memlp/internal/noc"
	"github.com/memlp/memlp/internal/trace"
)

// Options configures both crossbar solvers.
type Options struct {
	// Tol holds the PDIP stopping parameters (εb, εc, εg, δ, r, …).
	Tol lp.Tolerances
	// Alpha is the relaxed feasibility parameter of §3.2: the final point
	// is accepted when A·x ≤ α·b element-wise (α slightly above 1 absorbs
	// process-variation distortion of the constraints). Zero means 1.05.
	Alpha float64
	// Fabric builds the analog substrate for a given matrix size.
	// Nil means a single ideal-variation-free crossbar of sufficient size
	// (crossbar defaults, no variation).
	Fabric FabricFactory
	// ConstantStep is Algorithm 2's fixed step length θ (§3.4: "constant to
	// guarantee convergence"). Zero means 0.2 (the AB1 ablation sweeps the
	// usable band). Ignored by Algorithm 1.
	ConstantStep float64
	// Regularization scales Algorithm 2's literal RU/RL filler entries
	// relative to the mean |A| entry (§3.4: "very small"); only used with
	// LiteralFillers. Zero means 0.02. Ignored by Algorithm 1.
	Regularization float64
	// LiteralFillers selects the paper-literal reading of Eq. 16c for
	// Algorithm 2: static εI fillers in the RU/RL slots instead of the
	// reduced-KKT diagonals (see the LargeScaleSolver doc). Unstable for
	// m ≠ n; kept for the AB2 ablation. Ignored by Algorithm 1.
	LiteralFillers bool
	// Recovery enables the fault-recovery ladder of both algorithms
	// (runRecoveryLadder, DESIGN.md D10): a failed attempt is re-solved once
	// on the same fabric, and when that fails too the solve falls back to
	// software and reports an optimum as lp.StatusDegraded. On a fabric
	// with stuck cells an infeasible or unbounded verdict, or an optimum
	// that flunks the digital cross-check, counts as failed. Every result
	// then carries Diagnostics. Without it Algorithm 1 returns its one
	// attempt, and Algorithm 2 re-solves a failed attempt once on freshly
	// built fabrics (the paper's §4.3 double-check).
	Recovery bool
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
	// It prices the trace's cumulative energy field; nil leaves it zero.
	EnergyModel func(crossbar.Counters) float64
	// AnalogResidual selects the paper's Algorithm 1 residual: r is read
	// from the array with one analog mat-vec (Eq. 15b), through the DAC and
	// the variation-perturbed conductances. The zero value computes r
	// digitally from the true coefficients instead (mixed-precision Newton,
	// DESIGN.md D20) and keeps the analog settle for the step. The paper's
	// figures and ablations regenerate with it set. Ignored by Algorithm 2.
	AnalogResidual bool
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
	if o.Fabric == nil {
		o.Fabric = SingleCrossbarFactory(crossbar.Config{})
	}
	if o.ConstantStep == 0 {
		o.ConstantStep = 0.2
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
	if !(o.Alpha >= 1 && o.Alpha <= math.MaxFloat64) {
		return fmt.Errorf("%w: alpha %v not finite and at least 1", lp.ErrInvalid, o.Alpha)
	}
	if !(o.ConstantStep > 0 && o.ConstantStep < 1) {
		return fmt.Errorf("%w: constant step %v outside (0,1)", lp.ErrInvalid, o.ConstantStep)
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

	mu sync.Mutex
	// single runs every single solve, under mu.
	single worker
}

// worker owns Algorithm 1's per-fabric state: the fabric slot, the
// extended system programmed on its fabric, the starting-iterate buffer,
// the best-iterate snapshot and the trace recorder. A Solver keeps one for
// its single solves; SolveBatchContext builds one per shard of its fabric
// pool, so concurrent shards share nothing they write.
type worker struct {
	slot fabricSlot
	ext  *extended
	// initBuf backs the starting iterate (x, y, w, z are sliced from it
	// before being copied into the extended state vector).
	initBuf linalg.Vector
	best    snapshot
	// tr records the iteration trace; nil when tracing is off.
	tr *traceState
	// warmX/warmY, when non-nil, seed every solve from a prior primal/dual
	// point instead of the all-ones start (see SetWarmStart). The shards of
	// a batch share one copy taken at batch entry, which nothing writes.
	warmX, warmY linalg.Vector

	// Pool shards only: the scaled-b scratch, the one-time programming cost
	// and transfers, and the shard's solve and busy-time tallies.
	bBuf     linalg.Vector
	progCost crossbar.Counters
	progNoC  noc.Stats
	solves   int
	busy     time.Duration
}

// writeDiagRows refreshes the X/Y/Z/W complementarity rows of the extended
// system and of the fabric for the iterate (x, y, w, z): the O(N) write of
// one iteration (2(n+m) ≈ 2.7N cells for n = m/3). The fabric reads the
// mirror's r3/r4 rows in place; it makes one pass over each and then
// programs only the row's non-zero and live cells.
func (wk *worker) writeDiagRows(x, y, w, z linalg.Vector) error {
	ext := wk.ext
	ext.fillDiagRows(x, y, w, z)
	for r := ext.rowR3(0); r < ext.rowR5(0); r++ {
		if err := wk.slot.fab.UpdateRow(r, ext.matrix.RawRow(r)); err != nil {
			return fmt.Errorf("core: updating fabric row: %w", err)
		}
	}
	return nil
}

// SetWarmStart seeds subsequent solves from a previously computed primal/dual
// point (typically Result.X and Result.Y of an earlier solve of a nearby
// problem) instead of the all-ones interior start. lp.Problem.SeedWarmStart
// re-derives the slacks from the new problem data (w = b − A·x,
// z = Aᵀ·y − c) and clamps everything to the strict interior, so a boundary
// point from a converged solve becomes a usable interior seed. The warm
// start stays in effect for every following solve (including batch members)
// until replaced or cleared; passing nil for either vector clears it.
// Vectors whose dimensions do not match a subsequent problem cause that
// solve to fail with lp.ErrInvalid; non-finite entries (a degraded previous
// solution) silently fall back to the cold start.
func (s *Solver) SetWarmStart(x0, y0 linalg.Vector) {
	s.mu.Lock()
	defer s.mu.Unlock()
	wk := &s.single
	if x0 == nil || y0 == nil {
		wk.warmX, wk.warmY = nil, nil
		return
	}
	wk.warmX = append(wk.warmX[:0], x0...)
	wk.warmY = append(wk.warmY[:0], y0...)
}

// NewSolver returns an Algorithm 1 solver.
func NewSolver(opts Options) (*Solver, error) {
	opts = opts.withDefaults()
	if err := opts.validate(); err != nil {
		return nil, err
	}
	return &Solver{opts: opts, single: worker{tr: newTraceState(opts)}}, nil
}

// Solve runs Algorithm 1 on p.
func (s *Solver) Solve(p *lp.Problem) (*engine.Result, error) {
	return s.SolveContext(context.Background(), p)
}

// SolveContext runs Algorithm 1 on p, honoring cancellation and deadlines:
// the context is checked once per iteration, and an interrupted solve
// returns its partial iterate with lp.StatusCanceled alongside the wrapped
// context error. With Options.Recovery configured, a failed attempt climbs
// the recovery ladder instead of being returned directly.
func (s *Solver) SolveContext(ctx context.Context, p *lp.Problem) (*engine.Result, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	start := engine.WallClock()
	s.mu.Lock()
	defer s.mu.Unlock()
	return runRecoveryLadder(ctx, p, s.opts, start, ladderFuncs{
		attempt: func(ctx context.Context) (*engine.Result, error, error) {
			return s.solveAttempt(ctx, p)
		},
		slots:    []*fabricSlot{&s.single.slot},
		resolves: s.resolves(),
		tr:       s.single.tr,
	})
}

// resolves is Algorithm 1's re-solve budget, for single solves and batch
// members alike: maxResolves with Options.Recovery, none without.
func (s *Solver) resolves() int {
	if s.opts.Recovery {
		return maxResolves
	}
	return 0
}

// solveAttempt runs one full Algorithm 1 attempt on the single-solve
// worker: it rebuilds the extended system for p at the start iterate, takes
// the slot's fabric (a new one only when the system outgrows it) and
// programs all of it. Callers must hold s.mu.
func (s *Solver) solveAttempt(ctx context.Context, p *lp.Problem) (*engine.Result, error, error) {
	wk := &s.single
	return s.solveOn(ctx, wk, p, p, nil, func(x, y, w, z linalg.Vector) error {
		ext, err := newExtendedInto(wk.ext, p, x, y, w, z)
		if err != nil {
			return err
		}
		wk.ext = ext
		fab, err := wk.slot.ensure(s.opts.Fabric, ext.size)
		if err != nil {
			return fmt.Errorf("core: building fabric: %w", err)
		}
		if dp, ok := fab.(DeltaProgrammer); ok {
			// Delta-write skips are only valid for the scalar complementarity
			// rows of an orthant LP; conic NT blocks are structurally coupled.
			// Toggled per solve because the fabric is cached across problems.
			dp.SetDeltaProgramming(!ext.cones.Conic())
		}
		wk.slot.begin()
		wk.tr.beginAttempt(wk.slot.base)
		if err := fab.Program(ext.matrix); err != nil {
			return fmt.Errorf("core: programming fabric: %w", err)
		}
		return nil
	})
}

// solveOn runs one Algorithm 1 solve of p on wk, for single solves and
// batch members alike: it sets up the start iterate, runs the Newton
// iterations and assembles the answer. It returns (result, ctxErr, err):
// ctxErr non-nil means the solve was interrupted (the result carries the
// partial iterate); err is a hard failure with no usable result.
//
// The paths differ only in load, which puts the start iterate on wk's
// fabric; once it returns, the attempt's counter window (fabricSlot.begin)
// must be open. p drives the iteration; orig is the caller's problem,
// which prices the objective and the §3.2 α-check. scales, when non-nil,
// are the batch's row scales: row i of p's [A | b] is orig's divided by
// scales[i], and the returned duals are unscaled.
func (s *Solver) solveOn(ctx context.Context, wk *worker, p, orig *lp.Problem, scales linalg.Vector,
	load func(x, y, w, z linalg.Vector) error) (*engine.Result, error, error) {
	n, m := p.NumVariables(), p.NumConstraints()
	tol := s.opts.Tol

	// The start iterate: all ones, or the warm start when one is set. The
	// batch's stored duals are user-unit, so scales maps them into p's.
	wk.initBuf = linalg.Resize(wk.initBuf, 2*(n+m))
	wk.initBuf.Fill(1)
	x := wk.initBuf[0:n]
	y := wk.initBuf[n : n+m]
	w := wk.initBuf[n+m : n+2*m]
	z := wk.initBuf[n+2*m:]
	warm, err := p.SeedWarmStart(wk.warmX, wk.warmY, scales, x, y, w, z)
	if err != nil {
		return nil, nil, err
	}
	// SOC blocks start at the Jordan identity e = (1, 0, …, 0): the all-ones
	// vector is NOT interior for cone dimension ≥ 3 (‖tail‖ ≥ axis).
	if blocks := p.SOCBlocks(); !warm && len(blocks) > 0 {
		cone.InitInterior(y, blocks)
		cone.InitInterior(w, blocks)
	}
	if err := load(x, y, w, z); err != nil {
		return nil, nil, err
	}
	ext, fab := wk.ext, wk.slot.fab

	// The full extended state s = [x, y, w, z, u, v, p] is updated as one
	// vector with the fabric's Δs — exactly Algorithm 1's "s = s + θΔs".
	// Re-deriving u/v/p digitally each iteration (u = −w, …) would fight
	// the fabric's variation-perturbed consistency rows and leak a
	// var-proportional fraction of every step into the residuals.
	sExt := ext.stateVector(x, y, w, z)
	factor := ext.factor
	x = sExt[0:n]
	y = sExt[n : n+m]
	w = sExt[n+m : n+2*m]
	z = sExt[n+2*m : 2*n+2*m]

	res := &engine.Result{Status: lp.StatusIterationLimit, MatrixSize: ext.size}
	conic := ext.cones.Conic()
	// µ's degree: the n x∘z pairs, and the cone layout's count over the
	// constraint rows, which takes each SOC block once.
	nu := float64(n + ext.cones.Degree())
	stop := newStopRule(tol, stallWindow)
	// The controller monitors the residuals it reads and keeps the best
	// iterate seen: near the accuracy floor the analog noise can push later
	// iterates away from feasibility again.
	best := &wk.best
	best.reset()
	var ctxErr error
	// macs counts the solve's digital residual work; the fabric's counters
	// do not see it.
	var macs int64

	for iter := 1; iter <= tol.MaxIterations; iter++ {
		if err := ctx.Err(); err != nil {
			res.Status = lp.StatusCanceled
			ctxErr = fmt.Errorf("core: solve canceled at iteration %d: %w", iter, err)
			break
		}
		res.Iterations = iter

		// The duality gap zᵀx + yᵀw is computed digitally (the controller
		// holds s) — Eq. 8.
		gap := lp.DualityGap(x, z, y, w)
		mu := tol.Delta * gap / nu
		// The residual r = base − factor∘(M·s). In the paper's mode
		// (Options.AnalogResidual) it is one fused analog operation
		// (Eq. 15): the fabric computes M·s, halves the r3/r4 rows with
		// resistive dividers and subtracts from the calibrated base at the
		// summing amplifiers, so only the residual passes the ADC. By
		// default the controller computes it digitally from the true
		// coefficients (D20).
		base := ext.baseVector(p, mu)
		var r linalg.Vector
		if s.opts.AnalogResidual {
			if r, err = fab.MatVecResidual(base, sExt, factor); err != nil {
				return nil, nil, fmt.Errorf("core: residual mat-vec: %w", err)
			}
		} else {
			macs += ext.residualMACs()
			r = ext.residual(base, sExt, factor)
		}

		// Convergence measures come from the residual the controller reads,
		// as the hardware controller would.
		res.PrimalInfeasibility = normInfRange(r, ext.rowA(0), ext.m)
		res.DualInfeasibility = normInfRange(r, ext.rowAT(0), ext.n)
		res.DualityGap = gap
		if conic {
			// r's primal rows are b − A·x − w as the controller reads them.
			res.ConeInfeasibility = ext.cones.SlackDist(r, w)
		}

		changed := best.consider(res.PrimalInfeasibility, res.DualInfeasibility, gap, x, y, w, z)
		if changed {
			best.coneInf = res.ConeInfeasibility
		}
		if status, done := stop.check(res.PrimalInfeasibility, res.DualInfeasibility, gap, x, y, best, changed); done {
			res.Status = status
			break
		}

		// Newton step: one analog settle. Only a singular system is a
		// numerical failure; any other error is a fault of the fabric.
		ds, err := fab.Solve(r)
		if err != nil {
			if errors.Is(err, crossbar.ErrSingular) {
				res.Status = lp.StatusNumericalFailure
				break
			}
			return nil, nil, fmt.Errorf("core: analog solve: %w", err)
		}
		// Views of ds: nothing writes it before the step below.
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
		if wk.tr.active() {
			wk.tr.note(withMACs(fab.Counters(), macs))
			wk.tr.emit(trace.Record{
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
		clampPositive(x, z)
		cone.FloorOrthant(y, ext.cones.Blocks, iterFloor)
		cone.FloorOrthant(w, ext.cones.Blocks, iterFloor)
		if conic {
			cone.ClampInterior(y, ext.cones.Blocks, iterFloor)
			cone.ClampInterior(w, ext.cones.Blocks, iterFloor)
			if !ext.cones.Update(w, y) {
				res.Status = lp.StatusNumericalFailure
				break
			}
		}
		if err := wk.writeDiagRows(x, y, w, z); err != nil {
			return nil, nil, err
		}
	}
	wk.tr.stopped(stop.reason(res.Status))
	wk.slot.end(res)
	res.Counters = withMACs(res.Counters, macs)
	if err := best.finish(res, orig, s.opts.Alpha, scales, x, y, w, z); err != nil {
		return nil, nil, err
	}
	return res, ctxErr, nil
}

// withMACs returns c with the controller's digital multiply-adds added.
func withMACs(c crossbar.Counters, macs int64) crossbar.Counters {
	c.DigitalMACs += macs
	return c
}

// snapshot keeps the best iterate seen, scored by the worst of the measured
// convergence quantities (primal/dual infeasibility and duality gap).
type snapshot struct {
	ok              bool
	score           float64
	pinf, dinf, gap float64
	// coneInf is the snapshot's cone infeasibility; the conic loop sets it
	// whenever consider keeps a new iterate.
	coneInf    float64
	x, y, w, z linalg.Vector
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

// reset empties the snapshot for a new solve, keeping whatever buffers the
// last result did not take.
func (s *snapshot) reset() {
	*s = snapshot{score: infNaN(), x: s.x, dual: s.dual}
}

func (s *snapshot) valid() bool { return s.ok }

// finish assembles an attempt's answer in res once its loop has ended, for
// both algorithms. (x, y, w, z) is the final iterate in the loop's units;
// orig is the caller's problem, which prices the objective and the §3.2
// α-check. scales, when non-nil, are the row scales of the problem the loop
// ran (its row i of [A | b] is orig's divided by scales[i]), and the
// returned duals are unscaled.
func (s *snapshot) finish(res *engine.Result, orig *lp.Problem, alpha float64, scales, x, y, w, z linalg.Vector) error {
	// Prefer the best-residual iterate over the last one when the solver
	// converged normally; blow-up detections keep the final (diverged)
	// point so callers can inspect it. The final iterate is remembered
	// separately: divergence classification must look at where the
	// iteration was heading, not at the best snapshot.
	finalX, finalY, finalW, finalZ := x, y, w, z
	if (res.Status == lp.StatusOptimal || res.Status == lp.StatusIterationLimit) && s.valid() {
		x, y, w, z = s.x, s.y, s.w, s.z
		res.PrimalInfeasibility = s.pinf
		res.DualInfeasibility = s.dinf
		res.DualityGap = s.gap
		res.ConeInfeasibility = s.coneInf
		// The result keeps the snapshot's buffers; the next solve allocates
		// its own.
		s.x, s.dual = nil, nil
	}
	res.X, res.Y, res.W, res.Z = x, y, w, z
	obj, err := orig.Objective(x)
	if err != nil {
		return err
	}
	res.Objective = obj

	// Robust feasibility detection (§3.2): accept the converged point only
	// if A·x ≤ α·b; variation can distort the realized constraints, so α is
	// slightly above 1.
	// A budget-limited run that still passes the α-check is an acceptable
	// answer: the analog accuracy floor, not the budget, set its quality.
	if res.Status == lp.StatusOptimal || res.Status == lp.StatusIterationLimit {
		ok, err := orig.IsFeasible(x, alpha-1)
		if err != nil {
			return err
		}
		if !ok {
			res.Status = classifyRejected(finalX, finalY, finalW, finalZ)
		} else {
			res.Status = lp.StatusOptimal
		}
	}
	// Unscale last: the classification above reads the final iterate in
	// the loop's units, and without a snapshot res.Y and res.W are it.
	if scales != nil {
		unscaleDual(res.Y, res.W, scales)
	}
	return nil
}

// equilibrate row-scales the problem: each constraint row of [A | b] is
// divided by its maximum absolute coefficient, a standard digital presolve
// that the controller performs once in O(N²). It bounds the dynamic range
// of the slack variables w (and hence of the w/y coupling coefficients the
// analog fabric must represent) without changing the primal solution; the
// dual variables scale as y = y'/d and are unscaled before returning.
// Algorithm 2 uses it, because its M1 carries the w/y couplings.
// Algorithm 1 uses neither it nor, for single solves, the batch's
// A-only scaling: compressing b flattens the slack scale and slows its
// adaptive-step convergence measurably at large m, and the A-only scaling
// raises single solves' modeled latency with no accuracy gain (DESIGN.md
// D12).
func equilibrate(p *lp.Problem) (*lp.Problem, linalg.Vector) {
	a, b, d := scaleRows(p.A, p.B)
	return &lp.Problem{Name: p.Name, C: p.C, A: a, B: b}, d
}

// scaleRows returns copies of a and, when b is non-nil, of b with each row
// divided by its scale, and the scales: the row's largest absolute
// coefficient, b's entry included, or 1 for an all-zero row.
func scaleRows(a *linalg.Matrix, b linalg.Vector) (*linalg.Matrix, linalg.Vector, linalg.Vector) {
	d := linalg.NewVector(a.Rows())
	a = a.Clone()
	if b != nil {
		b = b.Clone()
	}
	for i := range d {
		row := a.RawRow(i)
		var mx float64
		for _, v := range row {
			mx = max(mx, math.Abs(v))
		}
		if b != nil {
			mx = max(mx, math.Abs(b[i]))
		}
		if mx == 0 {
			mx = 1
		}
		d[i] = mx
		for j := range row {
			row[j] /= mx
		}
		if b != nil {
			b[i] /= mx
		}
	}
	return a, b, d
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
		maxRatio = ratioFull(maxRatio, pr[0], pr[1])
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
	maxRatio = ratioOrthant(maxRatio, y, dy, &e.cones)
	maxRatio = ratioOrthant(maxRatio, w, dw, &e.cones)
	maxRatio = ratioConePinned(maxRatio, y, dy, e.cones.Blocks)
	maxRatio = ratioConePinned(maxRatio, w, dw, e.cones.Blocks)
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
// representability pin stepLength describes.
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
func ratioOrthant(maxRatio float64, v, dv linalg.Vector, cones *cone.Layout) float64 {
	pin := 1e-6 * v.Max()
	if pin < 1e-10 {
		pin = 1e-10
	}
	for i := range v {
		if cones.InCone(i) {
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

// iterFloor is the representability floor the iterates are clamped to,
// which keeps them strictly interior.
const iterFloor = 1e-12

// clampPositive floors every component at iterFloor.
//
//memlp:hotpath
func clampPositive(vs ...linalg.Vector) {
	for _, v := range vs {
		for i, x := range v {
			if x < iterFloor {
				v[i] = iterFloor
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
