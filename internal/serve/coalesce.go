package serve

import (
	"bytes"
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/memlp/memlp"
	"github.com/memlp/memlp/internal/trace"
)

// batchRunner executes one coalesced batch: check a solver out of the pool,
// SolveBatch, check it back in. Injected by the server so the coalescer
// stays free of pool plumbing.
type batchRunner func(ctx context.Context, probs []*memlp.Problem) ([]*memlp.Solution, error)

// coalescer folds concurrent same-matrix submissions for one (engine,
// options) key into shared SolveBatch calls. A submission's constraint
// matrix is fingerprinted; when a batch for that fingerprint is open, the
// problem adopts the matrix object of the batch's first member (pointer
// identity, with element-equality confirming the hash) and joins it.
// Otherwise it opens a new batch. The batch launches when its coalesce
// window expires or it reaches maxBatch members. Nothing outlives its
// batch: once a batch launches, the coalescer holds none of its problems.
//
// Determinism contract: before launch the members are ordered by their
// textual serialization (Problem.WriteText bytes, ties by arrival), and
// batch indices are assigned in that order. SolveBatch derives each
// problem's noise draws from (seed, batch index), so a served result is
// bit-identical to a direct SolveBatch of the same problems in the same
// canonical order — regardless of request arrival interleaving.
type coalescer struct {
	window   time.Duration
	maxBatch int
	run      batchRunner
	metrics  *trace.Metrics // counts launches and panicked batches
	baseCtx  context.Context

	mu      sync.Mutex
	pending map[uint64]*pendingBatch //memlp:guardedby mu
}

// pendingBatch is one open (or launched) same-matrix batch.
type pendingBatch struct {
	fingerprint uint64
	members     []*waiter
	timer       *time.Timer
	launched    bool
	done        chan struct{}
}

// waiter is one request's seat in a pending batch; sol/err/index/size are
// valid once done closes. A caller whose own context dies first simply stops
// waiting — the batch runs on for the remaining members.
type waiter struct {
	prob *memlp.Problem
	text string
	ctx  context.Context
	done chan struct{}

	sol   *memlp.Solution
	err   error
	index int
	size  int
}

func newCoalescer(baseCtx context.Context, window time.Duration, maxBatch int, run batchRunner, metrics *trace.Metrics) *coalescer {
	if maxBatch < 1 {
		maxBatch = 1
	}
	return &coalescer{
		window:   window,
		maxBatch: maxBatch,
		run:      run,
		metrics:  metrics,
		baseCtx:  baseCtx,
		pending:  make(map[uint64]*pendingBatch),
	}
}

// submit seats the problem in a pending batch and returns its waiter. A
// false second return means the problem cannot coalesce (fingerprint
// collision against the open batch's matrix) and the caller must solve it
// solo.
func (c *coalescer) submit(ctx context.Context, prob *memlp.Problem) (*waiter, bool) {
	var buf bytes.Buffer
	_ = prob.WriteText(&buf) // bytes.Buffer cannot fail
	fp := prob.MatrixFingerprint()

	c.mu.Lock()
	pb := c.pending[fp]
	if pb == nil {
		pb = &pendingBatch{fingerprint: fp, done: make(chan struct{})}
		c.pending[fp] = pb
		pb.timer = time.AfterFunc(c.window, func() { c.launch(pb) })
	} else if !prob.AdoptMatrixOf(pb.members[0].prob) {
		// Hash collision between genuinely different matrices: do not batch.
		c.mu.Unlock()
		return nil, false
	}
	w := &waiter{prob: prob, text: buf.String(), ctx: ctx, done: pb.done}
	pb.members = append(pb.members, w)
	full := len(pb.members) >= c.maxBatch
	c.mu.Unlock()

	if full {
		go c.launch(pb)
	}
	return w, true
}

// launch closes a pending batch to new members, orders it canonically, runs
// it under the merged member context, and distributes the results. Safe to
// call more than once; only the first call acts.
func (c *coalescer) launch(pb *pendingBatch) {
	c.mu.Lock()
	if pb.launched {
		c.mu.Unlock()
		return
	}
	pb.launched = true
	delete(c.pending, pb.fingerprint)
	members := pb.members
	c.mu.Unlock()
	pb.timer.Stop()

	// Canonical order: serialized problem bytes, ties by arrival. This is the
	// determinism anchor — batch index, and therefore each problem's noise
	// epoch, must not depend on goroutine scheduling.
	sort.SliceStable(members, func(i, j int) bool { return members[i].text < members[j].text })

	probs := make([]*memlp.Problem, len(members))
	ctxs := make([]context.Context, len(members))
	for i, w := range members {
		w.index, w.size = i, len(members)
		probs[i] = w.prob
		ctxs[i] = w.ctx
	}
	c.metrics.ObserveServeBatch(len(members))

	// The batch keeps running while any member still wants the answer; it is
	// canceled only when every member's request context has gone away.
	mctx, cancel := mergedContext(c.baseCtx, ctxs)
	defer cancel()
	sols, err := c.runRecovered(mctx, probs)

	for i, w := range members {
		if i < len(sols) {
			w.sol = sols[i]
		}
		if err != nil && (w.sol == nil || w.sol.Status == memlp.StatusCanceled) {
			w.err = err
		}
	}
	close(pb.done)
}

// runRecovered runs the batch and turns a panic into an error for every
// member. The batch runs on a timer or launch goroutine, where an unrecovered
// panic would end the daemon; the runner's own deferred calls (the pool
// handle's release) still run while the panic unwinds.
func (c *coalescer) runRecovered(ctx context.Context, probs []*memlp.Problem) (sols []*memlp.Solution, err error) {
	defer func() {
		if r := recover(); r != nil {
			sols, err = nil, fmt.Errorf("serve: coalesced batch of %d panicked: %v", len(probs), r)
			c.metrics.ObserveServePanic()
		}
	}()
	return c.run(ctx, probs)
}

// mergedContext derives a context that cancels once every member context is
// done (or the parent dies). The returned cancel must be called when the
// batch finishes so the watcher goroutines exit.
func mergedContext(parent context.Context, ctxs []context.Context) (context.Context, context.CancelFunc) {
	mctx, cancel := context.WithCancel(parent)
	remaining := int64(len(ctxs))
	for _, memberCtx := range ctxs {
		go func(memberCtx context.Context) {
			select {
			case <-memberCtx.Done():
				if atomic.AddInt64(&remaining, -1) == 0 {
					cancel()
				}
			case <-mctx.Done():
			}
		}(memberCtx)
	}
	return mctx, cancel
}
