package core

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"github.com/memlp/memlp/internal/crossbar"
	"github.com/memlp/memlp/internal/engine"
	"github.com/memlp/memlp/internal/linalg"
	"github.com/memlp/memlp/internal/lp"
	"github.com/memlp/memlp/internal/trace"
)

// SolveBatch solves a sequence of problems that share one constraint matrix
// A but differ in b and c — the paper's "high-data-rate applications"
// scenario (e.g. a router re-solving the same topology as demands change).
// The extended system is programmed once per shard fabric; each solve only
// refreshes the X/Y/Z/W complementarity rows, so the dominant O(size²)
// programming cost is amortized across the whole batch. The batch fans out
// over a pool of replicated fabrics (Options.Parallelism shards), exactly as
// a multi-die deployment replicates one programmed array and load-balances
// incoming instances across the copies.
//
// All problems must have identical A (checked); b and c may vary freely.
func (s *Solver) SolveBatch(problems []*lp.Problem) ([]*engine.Result, error) {
	return s.SolveBatchContext(context.Background(), problems)
}

// batchWorker owns one shard of the fabric pool: a programmed fabric replica
// plus the private iteration workspace (extended system, starting-iterate
// buffer, scaled-b scratch, best-iterate snapshot) that lets a worker run
// back-to-back solves without per-solve allocations outside the result
// vectors themselves.
type batchWorker struct {
	shard    int
	fab      Fabric
	ext      *extended
	initBuf  linalg.Vector
	bBuf     linalg.Vector
	best     snapshot
	progCost crossbar.Counters
	solves   int
	busy     time.Duration
	// tr is this shard's private trace recorder (one ring per worker, so
	// concurrent shards never share trace state); nil when tracing is off.
	tr *traceState
}

// batchSlot collects one problem's outcome; slots are indexed by problem, so
// results are assembled in input order no matter which shard ran what.
type batchSlot struct {
	res    *engine.Result
	ctxErr error
	err    error
}

// SolveBatchContext is SolveBatch with cancellation: the context is checked
// once per iteration inside each solve, so cancellation aborts every
// in-flight and not-yet-started solve at its next check. The completed
// results up to the first interrupted problem are returned in input order
// with that problem's lp.StatusCanceled partial as the last element,
// alongside the wrapped context error — the same shape the serial path
// produced.
//
// Each result's Counters and WallTime are the per-solve marginals; the first
// result additionally carries the pool's one-time programming cost (×P for P
// replicas) and the BatchStats roll-up.
//
// Determinism contract: results are bit-identical for every pool width. Each
// problem's stochastic write-noise draws are rebased to (base seed, problem
// index) via NoiseEpocher before the solve, so they cannot depend on which
// shard — or how encumbered a shard — runs the problem.
func (s *Solver) SolveBatchContext(ctx context.Context, problems []*lp.Problem) ([]*engine.Result, error) {
	if len(problems) == 0 {
		return nil, fmt.Errorf("%w: empty batch", lp.ErrInvalid)
	}
	if err := validateBatch(problems); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("core: batch canceled before problem 0: %w", err)
	}

	// Shared digital presolve, once per batch: row equilibration depends only
	// on A (the b's differ across the batch), so the programmed A-blocks stay
	// valid for every instance.
	first := problems[0]
	aShared, scales := batchEquilibrate(first)

	width := s.batchWidth(len(problems))
	workers := make([]*batchWorker, width)
	for r := range workers {
		w, err := s.newBatchWorker(r, first, aShared, scales)
		if err != nil {
			return nil, err
		}
		workers[r] = w
	}

	// Bounded worker pool: the dispatcher feeds problem indices in order;
	// each worker drains the channel, solving on its own replica. Every
	// problem is dispatched even after a cancellation — a canceled job's
	// solve aborts at its first iteration check and contributes its
	// StatusCanceled starting-iterate partial, which is what guarantees the
	// collected results always end on the first interrupted problem's
	// partial, exactly like the serial path. Slots are per-problem, so no
	// two goroutines share memory beyond the read-only problem/scale data.
	slots := make([]batchSlot, len(problems))
	jobs := make(chan int)
	var wg sync.WaitGroup
	for _, w := range workers {
		wg.Add(1)
		go func(w *batchWorker) {
			defer wg.Done()
			for idx := range jobs {
				s.runBatchProblem(ctx, w, idx, problems[idx], aShared, scales, &slots[idx])
			}
		}(w)
	}
	go func() {
		defer close(jobs)
		for idx := range problems {
			jobs <- idx
		}
	}()
	wg.Wait()

	// Assemble in input order. A hard error wins over partial results (the
	// serial contract); an interruption returns the completed prefix plus the
	// first interrupted problem's partial. Later slots — including solves
	// that happened to complete after the interruption point — are dropped,
	// keeping the result shape identical to the serial path's.
	results := make([]*engine.Result, 0, len(problems))
	var tailErr error
	for idx := range slots {
		sl := &slots[idx]
		if sl.err != nil {
			return nil, fmt.Errorf("problem %d: %w", idx, sl.err)
		}
		if sl.res == nil {
			// Defensive: every problem is dispatched and every job fills its
			// slot, so an empty slot implies a logic error, not cancellation.
			return nil, fmt.Errorf("core: batch problem %d produced no result", idx)
		}
		results = append(results, sl.res)
		if sl.ctxErr != nil {
			tailErr = fmt.Errorf("problem %d: %w", idx, sl.ctxErr)
			break
		}
	}
	// Later hard errors must not be silently dropped by an earlier
	// cancellation prefix: scan the remainder so a real failure surfaces.
	if tailErr != nil {
		for idx := len(results); idx < len(slots); idx++ {
			if e := slots[idx].err; e != nil {
				return nil, fmt.Errorf("problem %d: %w", idx, e)
			}
		}
	}

	if len(results) > 0 {
		stats := &engine.BatchStats{
			Replicas:    width,
			ShardSolves: make([]int, width),
			ShardBusy:   make([]time.Duration, width),
		}
		for _, w := range workers {
			stats.Programming = stats.Programming.Add(w.progCost)
			stats.ShardSolves[w.shard] = w.solves
			stats.ShardBusy[w.shard] = w.busy
		}
		results[0].Counters = results[0].Counters.Add(stats.Programming)
		results[0].Batch = stats
	}
	return results, tailErr
}

// validateBatch validates every problem and checks the shared-A contract.
// Problems that share the literal *linalg.Matrix — the common streaming case,
// where one topology object is reused with fresh b/c — short-circuit on
// pointer identity instead of paying the O(mn) element compare.
func validateBatch(problems []*lp.Problem) error {
	first := problems[0]
	if err := first.Validate(); err != nil {
		return err
	}
	if first.IsConic() {
		return fmt.Errorf("core: batch solving: %w", lp.ErrConicUnsupported)
	}
	for i, p := range problems[1:] {
		if err := p.Validate(); err != nil {
			return fmt.Errorf("problem %d: %w", i+1, err)
		}
		if p.IsConic() {
			return fmt.Errorf("problem %d: %w", i+1, lp.ErrConicUnsupported)
		}
		if p.A != first.A && !p.A.Equal(first.A, 0) {
			return fmt.Errorf("%w: problem %d has a different constraint matrix", lp.ErrInvalid, i+1)
		}
	}
	return nil
}

// batchEquilibrate builds the batch's shared A-only row scaling: each row of
// the cloned A is divided by its maximum absolute coefficient. Unlike the
// single-solve equilibrate it must ignore b, whose value varies per instance.
func batchEquilibrate(first *lp.Problem) (*linalg.Matrix, []float64) {
	m := first.NumConstraints()
	scales := make([]float64, m)
	aShared := first.A.Clone()
	for i := 0; i < m; i++ {
		var mx float64
		for _, v := range aShared.RawRow(i) {
			if v < 0 {
				v = -v
			}
			if v > mx {
				mx = v
			}
		}
		if mx == 0 {
			mx = 1
		}
		scales[i] = mx
		row := aShared.RawRow(i)
		for j := range row {
			row[j] /= mx
		}
	}
	return aShared, scales
}

// batchWidth resolves the pool width: Options.Parallelism, defaulting to
// GOMAXPROCS, clamped to the batch size (an idle replica is pure programming
// cost).
func (s *Solver) batchWidth(batch int) int {
	p := s.opts.Parallelism
	if p == 0 {
		p = runtime.GOMAXPROCS(0)
	}
	if p > batch {
		p = batch
	}
	if p < 1 {
		p = 1
	}
	return p
}

// replicaFabric builds one shard fabric, preferring the replica-aware
// factory (see Options.ReplicaFabric).
func (s *Solver) replicaFabric(size int) (Fabric, error) {
	if s.opts.ReplicaFabric != nil {
		return s.opts.ReplicaFabric(size)
	}
	return s.opts.Fabric(size)
}

// newBatchWorker builds and programs one shard of the pool. Every shard
// programs the identical extended matrix (built from the first problem at
// the all-ones start) from an identically-seeded variation stream, so the
// replicas realize the same conductances cell for cell.
func (s *Solver) newBatchWorker(shard int, first *lp.Problem, aShared *linalg.Matrix, scales []float64) (*batchWorker, error) {
	n, m := first.NumVariables(), first.NumConstraints()
	b := first.B.Clone()
	for i := range b {
		b[i] /= scales[i]
	}
	scaled := &lp.Problem{Name: first.Name, C: first.C, A: aShared, B: b}
	x := onesVector(n)
	y := onesVector(m)
	ext, err := newExtended(scaled, x, y, y.Clone(), x.Clone())
	if err != nil {
		return nil, err
	}
	fab, err := s.replicaFabric(ext.size)
	if err != nil {
		return nil, fmt.Errorf("core: building batch replica %d: %w", shard, err)
	}
	if err := fab.Program(ext.matrix); err != nil {
		return nil, fmt.Errorf("core: programming batch replica %d: %w", shard, err)
	}
	return &batchWorker{
		shard:    shard,
		fab:      fab,
		ext:      ext,
		best:     snapshot{score: infNaN()},
		progCost: fab.Counters(),
		tr:       newTraceState(s.opts),
	}, nil
}

// runBatchProblem prepares problem idx for the shard (noise epoch, shared row
// scaling of b) and records its outcome in the slot. Counters and WallTime
// are the per-solve marginals on this shard's fabric.
func (s *Solver) runBatchProblem(ctx context.Context, bw *batchWorker, idx int, p *lp.Problem, aShared *linalg.Matrix, scales []float64, slot *batchSlot) {
	start := engine.WallClock()
	if ne, ok := bw.fab.(NoiseEpocher); ok {
		// Stochastic draws for this problem become a function of (base seed,
		// problem index): independent of the shard and of the pool width.
		ne.SetNoiseEpoch(int64(idx))
	}
	if cap(bw.bBuf) < len(p.B) {
		bw.bBuf = linalg.NewVector(len(p.B))
	}
	bw.bBuf = bw.bBuf[:len(p.B)]
	copy(bw.bBuf, p.B)
	for i := range bw.bBuf {
		bw.bBuf[i] /= scales[i]
	}
	scaled := &lp.Problem{Name: p.Name, C: p.C, A: aShared, B: bw.bBuf}

	// The trace is keyed by problem index (and so is the noise epoch, per
	// the determinism contract): its contents cannot depend on the shard.
	bw.tr.begin(idx, int64(idx))
	before := bw.fab.Counters()
	bw.tr.beginAttempt(before)
	res, ctxErr, err := s.solveOnShard(ctx, bw, scaled, p, scales)
	if err != nil {
		slot.err = err
		return
	}
	res.WallTime = engine.WallSince(start)
	res.Counters = bw.fab.Counters().Sub(before)
	res.Trace = bw.tr.finish(res)
	if s.opts.Recovery != nil {
		// The ladder itself does not run on the batch path (a pooled shard
		// cannot rebuild or remap mid-batch), but callers that configured
		// recovery still get the same per-solve telemetry the serial path
		// attaches: fault census, retry and energy totals.
		diag := &engine.Diagnostics{Attempts: 1, WriteRetries: res.Counters.WriteRetries}
		if fr, ok := bw.fab.(FaultReporter); ok {
			c := fr.FaultCensus()
			diag.StuckOn, diag.StuckOff = c.StuckOn, c.StuckOff
		}
		if s.opts.EnergyModel != nil {
			diag.EnergyJoules = s.opts.EnergyModel(res.Counters)
		}
		res.Diagnostics = diag
	}
	slot.res, slot.ctxErr = res, ctxErr
	bw.busy += res.WallTime
	if ctxErr == nil {
		bw.solves++
	}
}

// solveOnShard runs the Algorithm 1 iteration on the shard's already-
// programmed replica, resetting the complementarity rows to the all-ones
// start first. scaled is the equilibrated problem driving the iteration;
// orig is used for the final α-check and objective; scales unscale the
// duals. It follows the solveOnce contract: (result, ctxErr, err), where an
// interruption returns the partial iterate with lp.StatusCanceled in
// ctxErr's company.
func (s *Solver) solveOnShard(ctx context.Context, bw *batchWorker, scaled, orig *lp.Problem, scales []float64) (*engine.Result, error, error) {
	n, m := scaled.NumVariables(), scaled.NumConstraints()
	tol := s.opts.Tol
	ext, fab := bw.ext, bw.fab

	if cap(bw.initBuf) < 2*(n+m) {
		bw.initBuf = linalg.NewVector(2 * (n + m))
	}
	bw.initBuf = bw.initBuf[:2*(n+m)]
	bw.initBuf.Fill(1)
	x := bw.initBuf[0:n]
	y := bw.initBuf[n : n+m]
	w := bw.initBuf[n+m : n+2*m]
	z := bw.initBuf[n+2*m:]
	// Warm-start the shard iterate when set. The seed is derived from the
	// SCALED problem so the iteration sees consistent units; the stored duals
	// are user-unit, so scales maps them in (ŷᵢ = yᵢ·scaleᵢ, mirroring the
	// unscale below). The warm vectors are set before the batch starts and
	// only read here, so shard workers race neither with each other nor with
	// the pool — and the seed, like the noise epoch, is shard-independent,
	// preserving the bit-identical-across-widths contract.
	if _, err := s.applyWarmStart(scaled, scales, x, y, w, z); err != nil {
		return nil, nil, err
	}

	// Reset the complementarity rows for the fresh solve (2(n+m) cells).
	// Skip when already canceled: the iteration loop's first check then
	// yields the starting-iterate StatusCanceled partial without spending
	// fabric writes on a job that will not run.
	if ctx.Err() == nil {
		ext.fillDiagRows(x, y, w, z)
		for _, u := range ext.diagRowUpdates(x, y, w, z) {
			if err := fab.UpdateRow(u.index, u.row); err != nil {
				return nil, nil, fmt.Errorf("core: resetting fabric row: %w", err)
			}
		}
	}

	sExt := ext.stateVector(x, y, w, z)
	factor := ext.factorVector()
	x = sExt[0:n]
	y = sExt[n : n+m]
	w = sExt[n+m : n+2*m]
	z = sExt[n+2*m : 2*n+2*m]

	res := &engine.Result{Status: lp.StatusIterationLimit, MatrixSize: ext.size}
	bestGap := infNaN()
	stall := 0
	prevNorm := 0.0
	best := &bw.best
	best.reset()
	var ctxErr error

	for iter := 1; iter <= tol.MaxIterations; iter++ {
		if err := ctx.Err(); err != nil {
			res.Status = lp.StatusCanceled
			ctxErr = fmt.Errorf("core: solve canceled at iteration %d: %w", iter, err)
			break
		}
		res.Iterations = iter
		gap := dualityGap(x, z, y, w)
		mu := tol.Delta * gap / float64(n+m)
		r, err := fab.MatVecResidual(ext.baseVector(scaled, mu), sExt, factor)
		if err != nil {
			return nil, nil, fmt.Errorf("core: residual mat-vec: %w", err)
		}
		res.PrimalInfeasibility = normInfRange(r, ext.rowR1(0), ext.m)
		res.DualInfeasibility = normInfRange(r, ext.rowR2(0), ext.n)
		res.DualityGap = gap
		best.consider(res.PrimalInfeasibility, res.DualInfeasibility, gap, x, y, w, z)

		if res.PrimalInfeasibility <= tol.PrimalFeasTol &&
			res.DualInfeasibility <= tol.DualFeasTol && gap <= tol.GapTol {
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

		ds, err := fab.Solve(r)
		if err != nil {
			res.Status = lp.StatusNumericalFailure
			break
		}
		dx, dy, dw, dz := ext.split(ds)
		if !dx.AllFinite() || !dy.AllFinite() || !dw.AllFinite() || !dz.AllFinite() {
			res.Status = lp.StatusNumericalFailure
			break
		}
		theta := stepLength(tol.StepScale, [][2]linalg.Vector{
			{x, dx}, {y, dy}, {w, dw}, {z, dz},
		})
		if bw.tr.active() {
			bw.tr.note(fab.Counters())
			bw.tr.emit(trace.Record{
				Event:               trace.EventIteration,
				Iteration:           iter,
				Mu:                  mu,
				DualityGap:          gap,
				PrimalInfeasibility: res.PrimalInfeasibility,
				DualInfeasibility:   res.DualInfeasibility,
				Theta:               theta,
			})
		}
		if err := sExt.AxpyInPlace(theta, ds); err != nil {
			return nil, nil, err
		}
		clampPositive(x, y, w, z)
		ext.fillDiagRows(x, y, w, z)
		for _, u := range ext.diagRowUpdates(x, y, w, z) {
			if err := fab.UpdateRow(u.index, u.row); err != nil {
				return nil, nil, fmt.Errorf("core: updating fabric row: %w", err)
			}
		}
	}

	finalX, finalY, finalW, finalZ := x, y, w, z
	if res.Status == lp.StatusOptimal || res.Status == lp.StatusIterationLimit {
		if best.valid() {
			x, y, w, z = best.x, best.y, best.w, best.z
			res.PrimalInfeasibility = best.pinf
			res.DualInfeasibility = best.dinf
			res.DualityGap = best.gap
		}
	}
	res.X, res.Y, res.W, res.Z = x.Clone(), y.Clone(), w.Clone(), z.Clone()
	for i := range res.Y {
		res.Y[i] /= scales[i]
		res.W[i] *= scales[i]
	}
	obj, err := orig.Objective(res.X)
	if err != nil {
		return nil, nil, err
	}
	res.Objective = obj

	if res.Status == lp.StatusOptimal || res.Status == lp.StatusIterationLimit {
		ok, err := orig.IsFeasible(res.X, s.opts.Alpha-1)
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
