package core

import (
	"github.com/memlp/memlp/internal/crossbar"
	"github.com/memlp/memlp/internal/engine"
	"github.com/memlp/memlp/internal/trace"
)

// traceState owns one solve's trace recording: a bounded ring of records
// plus the cumulative write-retry and energy accumulators that turn the
// fabric's monotonic counters into per-problem running totals. A nil
// *traceState is valid and inert, so untraced solves pay only a nil check.
//
// The accumulators rebase on every attempt (beginAttempt) because the
// recovery ladder and Algorithm 2's double-check can swap in fresh fabrics
// whose counters restart at zero — a naive delta against the previous
// fabric's total would go negative.
type traceState struct {
	ring     *trace.Ring
	onRecord func(trace.Record)
	energy   func(crossbar.Counters) float64

	problem int
	epoch   int64
	attempt int
	last    crossbar.Counters
	retries int64
	written int64
	skipped int64
	joules  float64
}

// newTraceState builds the recorder for opts, or nil when tracing is off.
func newTraceState(opts Options) *traceState {
	if opts.Trace == nil {
		return nil
	}
	return &traceState{
		ring:     trace.NewRing(opts.Trace.Capacity),
		onRecord: opts.Trace.OnRecord,
		energy:   opts.EnergyModel,
	}
}

// active reports whether records should be assembled at all; call sites
// guard the fab.Counters() read and the record literal behind it.
//
//memlp:hotpath
func (t *traceState) active() bool { return t != nil }

// begin starts a new problem: the ring is cleared and the accumulators
// zeroed. problem and epoch stamp every subsequent record (the batch pool
// passes the problem index as both, per the PR 4 noise-epoch contract).
func (t *traceState) begin(problem int, epoch int64) {
	if t == nil {
		return
	}
	t.ring.Reset()
	t.problem, t.epoch = problem, epoch
	t.attempt = 0
	t.last = crossbar.Counters{}
	t.retries, t.written, t.skipped = 0, 0, 0
	t.joules = 0
}

// beginAttempt rebases the counter accumulators on the attempt's starting
// counters (captured BEFORE programming, so programming energy lands in
// the first iteration's running totals).
func (t *traceState) beginAttempt(cur crossbar.Counters) {
	if t == nil {
		return
	}
	t.attempt++
	t.last = cur
}

// note folds the counter delta since the last note (or beginAttempt) into
// the running write-retry and energy totals.
//
//memlp:hotpath
func (t *traceState) note(cur crossbar.Counters) {
	d := cur.Sub(t.last)
	t.last = cur
	t.retries += d.WriteRetries
	t.written += d.CellWrites
	t.skipped += d.CellSkips
	if t.energy != nil {
		t.joules += t.energy(d)
	}
}

// emit stamps rec with the problem/attempt context and running totals and
// records it. Callers must have checked active().
//
//memlp:hotpath
func (t *traceState) emit(rec trace.Record) {
	rec.Problem = t.problem
	rec.NoiseEpoch = t.epoch
	rec.Attempt = t.attempt
	rec.WriteRetries = t.retries
	rec.CellsWritten = t.written
	rec.CellsSkipped = t.skipped
	rec.EnergyJoules = t.joules
	t.ring.Emit(rec)
	if t.onRecord != nil {
		t.onRecord(rec)
	}
}

// event records a recovery-ladder escalation (resolve/remap/software),
// stamped with the status of the attempt that triggered it.
func (t *traceState) event(ev, status string) {
	if t == nil {
		return
	}
	t.emit(trace.Record{Event: ev, Status: status})
}

// finish emits the terminal done record — its fields are the final Result
// values, with retries/energy priced from the result's own counters (the
// exact per-solve totals, including any post-iteration operations the
// running notes missed) — and returns the trajectory snapshot.
func (t *traceState) finish(res *engine.Result) []trace.Record {
	if t == nil {
		return nil
	}
	rec := trace.Record{
		Event:               trace.EventDone,
		Status:              res.Status.String(),
		Iteration:           res.Iterations,
		DualityGap:          res.DualityGap,
		PrimalInfeasibility: res.PrimalInfeasibility,
		DualInfeasibility:   res.DualInfeasibility,
		ConeInfeasibility:   res.ConeInfeasibility,
		Objective:           res.Objective,
		Problem:             t.problem,
		NoiseEpoch:          t.epoch,
		Attempt:             t.attempt,
		WriteRetries:        res.Counters.WriteRetries,
		CellsWritten:        res.Counters.CellWrites,
		CellsSkipped:        res.Counters.CellSkips,
	}
	if t.energy != nil {
		rec.EnergyJoules = t.energy(res.Counters)
	}
	t.ring.Emit(rec)
	if t.onRecord != nil {
		t.onRecord(rec)
	}
	return t.ring.Snapshot()
}
