package core

// Tests for the solver-side trace recorder: the zero-allocation contract of
// the hot-path recording helpers, and the cancel-mid-recovery-ladder
// regression (a canceled ladder must still return its partial result with
// diagnostics and the trace recorded so far).

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"testing"

	"github.com/memlp/memlp/internal/crossbar"
	"github.com/memlp/memlp/internal/engine"
	"github.com/memlp/memlp/internal/lp"
	"github.com/memlp/memlp/internal/trace"
)

// TestTraceRecordingAllocations pins the //memlp:hotpath contract for the
// recording helpers at runtime: with the ring sink and an energy model
// attached, note+emit — the full per-iteration tracing work — must not
// allocate. This is what makes WithTrace safe to leave on in production.
func TestTraceRecordingAllocations(t *testing.T) {
	ts := newTraceState(Options{
		Trace: &TraceOptions{Capacity: 64},
		EnergyModel: func(c crossbar.Counters) float64 {
			return 1e-12 * float64(c.MatVecOps+c.SolveOps)
		},
	})
	ts.begin(0, 0)
	ts.beginAttempt(crossbar.Counters{})
	cur := crossbar.Counters{MatVecOps: 3, SolveOps: 1, WriteRetries: 2}
	if allocs := testing.AllocsPerRun(200, func() {
		if ts.active() {
			ts.note(cur)
			ts.emit(trace.Record{
				Event:               trace.EventIteration,
				Iteration:           7,
				Mu:                  0.05,
				DualityGap:          0.2,
				PrimalInfeasibility: 0.1,
				DualInfeasibility:   0.3,
				Theta:               0.34,
			})
		}
	}); allocs > 0 {
		t.Errorf("ring-sink trace recording allocates %.0f per iteration, want 0", allocs)
	}
}

// TestTraceRecordingInertWhenDisabled: a nil traceState (tracing off) must
// also stay allocation-free and not panic — untraced solves share the same
// call sites.
func TestTraceRecordingInertWhenDisabled(t *testing.T) {
	ts := newTraceState(Options{})
	if ts != nil {
		t.Fatal("newTraceState without Trace options should be nil")
	}
	if allocs := testing.AllocsPerRun(100, func() {
		if ts.active() {
			t.Error("nil traceState reports active")
		}
	}); allocs > 0 {
		t.Errorf("disabled tracing allocates %.0f per iteration, want 0", allocs)
	}
}

// TestLadderCancelMidRecovery is the regression for cancellation landing
// between recovery-ladder rungs: the caller must get the wrapped context
// error together with the partial Result — still carrying Diagnostics for
// the attempts that did run and the trace recorded so far, including the
// escalation event that was in flight.
func TestLadderCancelMidRecovery(t *testing.T) {
	p := testProblem(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	opts := faultyCrossbarOptions(0.2)
	opts.Trace = &TraceOptions{OnRecord: func(rec trace.Record) {
		// Cancel the moment the ladder announces its first escalation, so
		// the next attempt starts on a dead context.
		if rec.Event == trace.EventResolve {
			cancel()
		}
	}}

	s, err := NewLargeScaleSolver(opts)
	if err != nil {
		t.Fatalf("NewLargeScaleSolver: %v", err)
	}
	res, err := s.SolveContext(ctx, p)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res == nil {
		t.Fatal("canceled ladder returned no partial result")
	}
	if res.Status != lp.StatusCanceled {
		t.Errorf("partial status = %v, want %v", res.Status, lp.StatusCanceled)
	}
	d := res.Diagnostics
	if d == nil {
		t.Fatal("canceled ladder dropped Diagnostics")
	}
	if d.Attempts < 1 {
		t.Errorf("Attempts = %d, want ≥ 1", d.Attempts)
	}
	escalations := 0
	for _, rec := range res.Trace {
		if rec.Event == trace.EventResolve {
			escalations++
		}
	}
	if escalations == 0 {
		t.Error("trace lost the in-flight escalation event")
	}
	if len(res.Trace) == 0 || res.Trace[len(res.Trace)-1].Event != trace.EventDone {
		t.Error("canceled trace does not end with a done record")
	}
}

// TestDiagnosticsEnergyOnCleanSolve: a clean first-try solve with recovery
// configured must come back with Diagnostics attached — not just recovered
// solves — so the public layer can price its energy
// (TestDiagnosticsEnergyIsHardwareEnergy).
func TestDiagnosticsEnergyOnCleanSolve(t *testing.T) {
	p := testProblem(t)
	opts := Options{
		Fabric:   SingleCrossbarFactory(crossbar.Config{}),
		Recovery: true,
	}
	s, err := NewSolver(opts)
	if err != nil {
		t.Fatalf("NewSolver: %v", err)
	}
	res, err := s.Solve(p)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if res.Status != lp.StatusOptimal {
		t.Fatalf("status = %v, want optimal on a clean fabric", res.Status)
	}
	d := res.Diagnostics
	if d == nil {
		t.Fatal("clean solve with recovery configured has no Diagnostics")
	}
	if d.Attempts != 1 {
		t.Errorf("Attempts = %d, want 1 on a first-try solve", d.Attempts)
	}
	if d.RecoveredBy != "" {
		t.Errorf("RecoveredBy = %q, want empty on a first-try solve", d.RecoveredBy)
	}
}

// TestTraceEnergyFoldsDigitalMACs: the per-iteration records price the same
// counters as the done record, the controller's digital multiply-adds
// included. With an energy model that charges only those, iteration k's
// running energy is k residuals' worth and the done record's is one per
// iteration, on the single and the batch path alike.
func TestTraceEnergyFoldsDigitalMACs(t *testing.T) {
	p, err := lp.GenerateFeasible(lp.GenConfig{Constraints: 9, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	opts := idealOpts()
	opts.Trace = &TraceOptions{}
	opts.EnergyModel = func(c crossbar.Counters) float64 { return float64(c.DigitalMACs) }
	s, err := NewSolver(opts)
	if err != nil {
		t.Fatal(err)
	}
	single, err := s.Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	nnz := float64(s.single.ext.residualMACs())
	batch, err := s.SolveBatch([]*lp.Problem{p})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		path string
		res  *engine.Result
	}{{"single", single}, {"batch", batch[0]}} {
		recs := c.res.Trace
		for _, r := range recs[:len(recs)-1] {
			if want := float64(r.Iteration) * nnz; r.EnergyJoules != want {
				t.Fatalf("%s: iteration %d energy %v, want %v", c.path, r.Iteration, r.EnergyJoules, want)
			}
		}
		done := recs[len(recs)-1]
		if want := float64(c.res.Iterations) * nnz; done.EnergyJoules != want || float64(c.res.Counters.DigitalMACs) != want {
			t.Errorf("%s: done energy %v and %d MACs, want %v", c.path, done.EnergyJoules, c.res.Counters.DigitalMACs, want)
		}
	}
}

// allocBytes returns the heap bytes f allocates.
func allocBytes(f func()) int64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return int64(after.TotalAlloc - before.TotalAlloc)
}

// TestTraceRingAllocatedOnFirstProblem: building a traced solver allocates
// no ring; its first problem allocates one, which later problems reuse. The
// traced handle's solves are measured against an untraced twin's, so only
// the ring and the per-solve trace copy tell them apart.
func TestTraceRingAllocatedOnFirstProblem(t *testing.T) {
	const capacity = 4096
	ring := int64(capacity * reflect.TypeOf(trace.Record{}).Size())
	p, err := lp.GenerateFeasible(lp.GenConfig{Constraints: 9, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	opts := idealOpts()
	opts.Trace = &TraceOptions{Capacity: capacity}
	var traced *Solver
	if b := allocBytes(func() { traced, err = NewSolver(opts) }); err != nil || b >= ring/4 {
		t.Fatalf("NewSolver: %d bytes (a ring is %d), err %v", b, ring, err)
	}
	plain, err := NewSolver(idealOpts())
	if err != nil {
		t.Fatal(err)
	}
	extra := func() int64 {
		solve := func(s *Solver) int64 {
			return allocBytes(func() {
				if _, err := s.Solve(p); err != nil {
					t.Fatal(err)
				}
			})
		}
		return solve(traced) - solve(plain)
	}
	if b := extra(); b < ring {
		t.Errorf("first traced problem allocates %d bytes over the untraced one, want at least the %d-byte ring", b, ring)
	}
	for i := 0; i < 2; i++ {
		if b := extra(); b >= ring/4 {
			t.Errorf("traced problem %d allocates %d bytes over the untraced one: the %d-byte ring was not kept", i+2, b, ring)
		}
	}
}
