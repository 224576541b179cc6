package serve

// White-box unit tests for the serving building blocks: the solver pool's
// acquire/release state machine, the coalescer's canonical-matrix cache
// bound, the merged batch context, and the jsonFloat wire convention. The
// HTTP-level behavior lives in serve_test.go.

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"testing"
	"time"

	"github.com/memlp/memlp"
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

func TestCoalescerCacheEviction(t *testing.T) {
	run := func(ctx context.Context, probs []*memlp.Problem) ([]*memlp.Solution, error) {
		s, err := memlp.NewSolver(memlp.EngineCrossbar, memlp.WithSeed(1))
		if err != nil {
			return nil, err
		}
		return s.SolveBatch(ctx, probs)
	}
	co := newCoalescer(context.Background(), time.Millisecond, 4, 2, run, nil)

	// Three distinct matrices through a 2-entry cache: the oldest quiescent
	// anchors are evicted, the bound holds once batches drain.
	for i := 0; i < 3; i++ {
		p, err := memlp.NewProblem("p", []float64{1, 1},
			[][]float64{{1, float64(i)}, {2, 1}}, []float64{4, 6})
		if err != nil {
			t.Fatal(err)
		}
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
	size := len(co.canon)
	co.mu.Unlock()
	if size > 2 {
		t.Errorf("canonical cache holds %d matrices, limit 2", size)
	}

	// Same matrix twice coalesces into one batch of two. The batch closes by
	// size: its window outlasts the test, so a slow second submit cannot
	// miss it and land in a batch of its own.
	bySize := newCoalescer(context.Background(), time.Hour, 2, 2, run, nil)
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
