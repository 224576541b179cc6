package core

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"time"

	"github.com/memlp/memlp/internal/engine"
	"github.com/memlp/memlp/internal/linalg"
	"github.com/memlp/memlp/internal/lp"
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
// Each result's Counters, NoC transfers and WallTime are the per-solve
// marginals; the first result additionally carries the pool's one-time
// programming cost and transfers (×P for P replicas) and the BatchStats
// roll-up.
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

	// Shared digital presolve, once per batch: an A-only row scaling. Unlike
	// equilibrate it ignores b, whose value varies per instance, so the
	// programmed A-blocks stay valid for every instance. Only batches use
	// it: without it a batch's answers are measurably less accurate, while
	// single solves gain nothing from it (DESIGN.md D12).
	first := problems[0]
	aShared, _, scales := scaleRows(first.A, nil)

	// The shards read the warm start without s.mu, so they share a copy
	// taken under it: SetWarmStart rewrites the stored vectors in place.
	s.mu.Lock()
	warmX, warmY := slices.Clone(s.single.warmX), slices.Clone(s.single.warmY)
	s.mu.Unlock()

	width := s.batchWidth(len(problems))
	workers := make([]*worker, width)
	for r := range workers {
		w, err := s.newShard(r, first, aShared, scales)
		if err != nil {
			return nil, err
		}
		w.warmX, w.warmY = warmX, warmY
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
		go func(w *worker) {
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
		for shard, w := range workers {
			results[0].Counters = results[0].Counters.Add(w.progCost)
			results[0].NoC = results[0].NoC.Add(w.progNoC)
			stats.ShardSolves[shard] = w.solves
			stats.ShardBusy[shard] = w.busy
		}
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

// newShard builds and programs one shard of the pool. Every shard programs
// the identical extended matrix (built from the first problem at the
// all-ones start) from an identically-seeded variation stream, so the
// replicas realize the same conductances cell for cell.
func (s *Solver) newShard(shard int, first *lp.Problem, aShared *linalg.Matrix, scales linalg.Vector) (*worker, error) {
	wk := &worker{tr: newTraceState(s.opts)}
	x := linalg.Ones(first.NumVariables())
	y := linalg.Ones(first.NumConstraints())
	ext, err := newExtended(wk.scaled(first, aShared, scales), x, y, y.Clone(), x.Clone())
	if err != nil {
		return nil, err
	}
	fab, err := wk.slot.ensure(s.replicaFabric, ext.size)
	if err != nil {
		return nil, fmt.Errorf("core: building batch replica %d: %w", shard, err)
	}
	if err := fab.Program(ext.matrix); err != nil {
		return nil, fmt.Errorf("core: programming batch replica %d: %w", shard, err)
	}
	wk.ext, wk.progCost, wk.progNoC = ext, fab.Counters(), nocStats(fab)
	return wk, nil
}

// scaled returns p with the batch's row scaling applied: the shared scaled
// A, and b divided row by row into the worker's scratch.
func (wk *worker) scaled(p *lp.Problem, aShared *linalg.Matrix, scales linalg.Vector) *lp.Problem {
	wk.bBuf = linalg.Resize(wk.bBuf, len(p.B))
	for i, v := range p.B {
		wk.bBuf[i] = v / scales[i]
	}
	return &lp.Problem{Name: p.Name, C: p.C, A: aShared, B: wk.bBuf}
}

// runBatchProblem solves problem idx on the shard and records its outcome
// in the slot. It prepares the shard for the problem (noise epoch, row
// scaling of b); the solve runs the recovery ladder like a single solve,
// and every attempt is solveOn on the shard's programmed replica, which
// rewrites only the complementarity rows. Counters, NoC transfers and
// WallTime are the per-solve marginals on this shard's fabric.
func (s *Solver) runBatchProblem(ctx context.Context, bw *worker, idx int, p *lp.Problem, aShared *linalg.Matrix, scales linalg.Vector, slot *batchSlot) {
	start := engine.WallClock()
	if ne, ok := bw.slot.fab.(NoiseEpocher); ok {
		// Stochastic draws for this problem become a function of (base seed,
		// problem index): independent of the shard and of the pool width.
		ne.SetNoiseEpoch(int64(idx))
	}
	scaled := bw.scaled(p, aShared, scales)
	res, err := runRecoveryLadder(ctx, p, s.opts, start, ladderFuncs{
		attempt: func(ctx context.Context) (*engine.Result, error, error) {
			bw.slot.begin()
			bw.tr.beginAttempt(bw.slot.base)
			return s.solveOn(ctx, bw, scaled, p, scales, func(x, y, w, z linalg.Vector) error {
				// The shard's fabric already holds the batch's extended
				// system; only the complementarity rows change with the start
				// iterate. Skip when already canceled: the loop's first check
				// then yields the starting-iterate StatusCanceled partial
				// without spending fabric writes on a job that will not run.
				if ctx.Err() != nil {
					return nil
				}
				return bw.writeDiagRows(x, y, w, z)
			})
		},
		slots:    []*fabricSlot{&bw.slot},
		resolves: s.resolves(),
		// The trace is keyed by problem index (and so is the noise epoch,
		// per the determinism contract): its contents cannot depend on the
		// shard.
		problem: idx,
		tr:      bw.tr,
	})
	if res == nil {
		slot.err = err
		return
	}
	slot.res, slot.ctxErr = res, err
	bw.busy += res.WallTime
	if err == nil {
		bw.solves++
	}
}
