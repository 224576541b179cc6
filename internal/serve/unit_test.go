package serve

// White-box unit tests for the serving building blocks: the solver pool's
// acquire/release state machine, the coalescer's batch lifetime and panic
// recovery, the merged batch context, and the jsonFloat wire convention.
// The HTTP-level behavior lives in serve_test.go.

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/memlp/memlp"
	"github.com/memlp/memlp/internal/trace"
)

// stats reports how many handles exist and how many are idle; a quiesced
// pool has created == idle (the leak check the serving tests assert).
func (p *solverPool) stats() (created, idle int) {
	p.mu.Lock()
	created = p.created
	p.mu.Unlock()
	return created, len(p.slots)
}

func dietProblem(t *testing.T, slack float64) *memlp.Problem {
	t.Helper()
	p, err := memlp.NewProblem("diet",
		[]float64{3, 2},
		[][]float64{{1, 1}, {1, 3}},
		[]float64{slack, 6})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestPoolLifecycle(t *testing.T) {
	built := 0
	pool := newSolverPool(2, func() (*memlp.Solver, error) {
		built++
		return memlp.NewSolver(memlp.EngineSimplex)
	})
	ctx := context.Background()

	// Lazy build up to capacity.
	s1, err := pool.acquire(ctx)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := pool.acquire(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if built != 2 {
		t.Fatalf("built %d solvers, want 2", built)
	}
	if created, idle := pool.stats(); created != 2 || idle != 0 {
		t.Fatalf("stats = (%d, %d), want (2, 0)", created, idle)
	}

	// At capacity with everything checked out, acquire honors ctx.
	shortCtx, cancel := context.WithTimeout(ctx, 10*time.Millisecond)
	defer cancel()
	if _, err := pool.acquire(shortCtx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("saturated acquire = %v, want deadline exceeded", err)
	}

	// A release unblocks a waiting acquire without building a third handle.
	go func() {
		time.Sleep(5 * time.Millisecond)
		pool.release(s1)
	}()
	s3, err := pool.acquire(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if s3 != s1 {
		t.Error("blocked acquire did not receive the released handle")
	}
	if built != 2 {
		t.Fatalf("built %d solvers, want 2 (recycled, not rebuilt)", built)
	}

	// Recycle through the idle slot (the non-blocking fast path).
	pool.release(s3)
	s4, err := pool.acquire(ctx)
	if err != nil || s4 != s3 {
		t.Fatalf("fast-path acquire = %v, %v", s4, err)
	}
	pool.release(s4)
	pool.release(s2)
	pool.release(nil) // no-op, must not occupy a slot
	if created, idle := pool.stats(); created != 2 || idle != 2 {
		t.Fatalf("quiesced stats = (%d, %d), want (2, 2)", created, idle)
	}
}

func TestPoolBuildErrorRollsBack(t *testing.T) {
	boom := errors.New("no fabric")
	fail := true
	pool := newSolverPool(1, func() (*memlp.Solver, error) {
		if fail {
			return nil, boom
		}
		return memlp.NewSolver(memlp.EngineSimplex)
	})
	if _, err := pool.acquire(context.Background()); !errors.Is(err, boom) {
		t.Fatalf("acquire = %v, want build error", err)
	}
	// The failed build must not consume the capacity slot forever.
	fail = false
	s, err := pool.acquire(context.Background())
	if err != nil || s == nil {
		t.Fatalf("acquire after failed build = %v, %v", s, err)
	}
	pool.release(s)
}

// batchOf is a batchRunner that solves on a fresh crossbar handle.
func batchOf(ctx context.Context, probs []*memlp.Problem) ([]*memlp.Solution, error) {
	s, err := memlp.NewSolver(memlp.EngineCrossbar, memlp.WithSeed(1))
	if err != nil {
		return nil, err
	}
	return s.SolveBatch(ctx, probs)
}

// TestCoalescerReleasesDrainedProblems: only an open batch needs a problem
// (its first member's matrix is what later members adopt), so once the
// batches have answered, the coalescer holds none of their problems and
// the garbage collector reclaims every one.
func TestCoalescerReleasesDrainedProblems(t *testing.T) {
	co := newCoalescer(context.Background(), time.Millisecond, 4, batchOf, trace.NewMetrics())
	const n = 3
	var collected atomic.Int32
	for i := 0; i < n; i++ {
		p, err := memlp.NewProblem("p", []float64{1, 1},
			[][]float64{{1, float64(i)}, {2, 1}}, []float64{4, 6})
		if err != nil {
			t.Fatal(err)
		}
		runtime.SetFinalizer(p, func(*memlp.Problem) { collected.Add(1) })
		w, ok := co.submit(context.Background(), p)
		if !ok {
			t.Fatalf("submit %d refused", i)
		}
		<-w.done
		if w.err != nil || w.sol == nil || w.sol.Status != memlp.StatusOptimal {
			t.Fatalf("submit %d: sol=%v err=%v", i, w.sol, w.err)
		}
	}
	co.mu.Lock()
	open := len(co.pending)
	co.mu.Unlock()
	if open != 0 {
		t.Errorf("%d batches still open after every batch answered", open)
	}
	// The launch goroutines may still be returning; give the finalizers a
	// few collections to run.
	for deadline := time.Now().Add(5 * time.Second); collected.Load() < n && time.Now().Before(deadline); {
		runtime.GC()
		time.Sleep(10 * time.Millisecond)
	}
	if got := collected.Load(); got != n {
		t.Errorf("%d of %d drained problems are still reachable", n-got, n)
	}
	// The coalescer stays live throughout: it is what must not hold them.
	runtime.KeepAlive(co)

	// Same matrix twice coalesces into one batch of two. The batch closes by
	// size: its window outlasts the test, so a slow second submit cannot
	// miss it and land in a batch of its own.
	bySize := newCoalescer(context.Background(), time.Hour, 2, batchOf, trace.NewMetrics())
	a, b := dietProblem(t, 4), dietProblem(t, 5)
	wa, ok := bySize.submit(context.Background(), a)
	if !ok {
		t.Fatal("submit a refused")
	}
	wb, ok := bySize.submit(context.Background(), b)
	if !ok {
		t.Fatal("submit b refused")
	}
	<-wa.done
	<-wb.done
	if wa.size != 2 || wb.size != 2 || wa.index == wb.index {
		t.Errorf("batch seating = (%d/%d, %d/%d), want distinct indices in a batch of 2",
			wa.index, wa.size, wb.index, wb.size)
	}
}

// TestCoalescerRecoversBatchPanic: a batch whose run panics wakes every
// member with an error and counts the panic, and the coalescer goes on to
// serve the next batch.
func TestCoalescerRecoversBatchPanic(t *testing.T) {
	var calls atomic.Int32
	run := func(ctx context.Context, probs []*memlp.Problem) ([]*memlp.Solution, error) {
		if calls.Add(1) == 1 {
			panic("injected backend fault")
		}
		return batchOf(ctx, probs)
	}
	metrics := trace.NewMetrics()
	co := newCoalescer(context.Background(), time.Hour, 2, run, metrics)
	submitPair := func(slack float64) []*waiter {
		var ws []*waiter
		for _, p := range []*memlp.Problem{dietProblem(t, slack), dietProblem(t, slack+1)} {
			w, ok := co.submit(context.Background(), p)
			if !ok {
				t.Fatal("submit refused")
			}
			ws = append(ws, w)
		}
		for _, w := range ws {
			<-w.done
		}
		return ws
	}
	for i, w := range submitPair(4) {
		if w.err == nil || w.sol != nil {
			t.Errorf("member %d of the panicking batch: sol=%v err=%v, want an error", i, w.sol, w.err)
		}
	}
	for i, w := range submitPair(6) {
		if w.err != nil || w.sol == nil || w.sol.Status != memlp.StatusOptimal {
			t.Errorf("member %d of the next batch: sol=%v err=%v", i, w.sol, w.err)
		}
	}
	var prom strings.Builder
	if err := metrics.WriteProm(&prom); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"memlp_serve_batch_panics_total 1", "memlp_serve_batches_total 2"} {
		if !strings.Contains(prom.String(), want) {
			t.Errorf("metrics lack %q", want)
		}
	}
}

func TestMergedContext(t *testing.T) {
	c1, cancel1 := context.WithCancel(context.Background())
	c2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	mctx, cancel := mergedContext(context.Background(), []context.Context{c1, c2})
	defer cancel()

	cancel1()
	select {
	case <-mctx.Done():
		t.Fatal("merged context died with one member still alive")
	case <-time.After(20 * time.Millisecond):
	}
	cancel2()
	select {
	case <-mctx.Done():
	case <-time.After(time.Second):
		t.Fatal("merged context survived all members")
	}

	// Parent death wins regardless of member state.
	parent, parentCancel := context.WithCancel(context.Background())
	mctx2, cancel2nd := mergedContext(parent, []context.Context{context.Background()})
	defer cancel2nd()
	parentCancel()
	select {
	case <-mctx2.Done():
	case <-time.After(time.Second):
		t.Fatal("merged context outlived its parent")
	}
}

func TestJSONFloatRoundTrip(t *testing.T) {
	in := []float64{1.5, math.NaN(), math.Inf(1), math.Inf(-1), -0}
	data, err := json.Marshal(toJSONFloats(in))
	if err != nil {
		t.Fatal(err)
	}
	var decoded []jsonFloat
	if err := json.Unmarshal(data, &decoded); err != nil {
		t.Fatalf("unmarshal %s: %v", data, err)
	}
	out := floats(decoded)
	if len(out) != len(in) {
		t.Fatalf("round-trip length %d, want %d", len(out), len(in))
	}
	for i := range in {
		a, b := in[i], out[i]
		if math.IsNaN(a) != math.IsNaN(b) || (!math.IsNaN(a) && a != b) {
			t.Errorf("element %d: %v -> %v", i, a, b)
		}
	}
	var bad jsonFloat
	if err := json.Unmarshal([]byte(`"bogus"`), &bad); err == nil {
		t.Error("bogus quoted float unmarshaled without error")
	}
	if toJSONFloats(nil) != nil {
		t.Error("toJSONFloats(nil) != nil")
	}
}

// floats converts a response vector back to plain float64s.
func floats(v []jsonFloat) []float64 {
	out := make([]float64, len(v))
	for i, x := range v {
		out[i] = float64(x)
	}
	return out
}
