package memlp

import (
	"fmt"
	"io"

	"github.com/memlp/memlp/internal/trace"
)

// Trace event kinds, one per TraceRecord.Event value.
const (
	// TraceEventIteration is one PDIP Newton step (crossbar and software
	// PDIP engines).
	TraceEventIteration = trace.EventIteration
	// TraceEventPivot is one simplex pivot.
	TraceEventPivot = trace.EventPivot
	// TraceEventDone is the terminal record summarizing the solve; its
	// fields agree with the returned Solution.
	TraceEventDone = trace.EventDone
	// TraceEventResolve / TraceEventSoftware mark recovery-ladder
	// escalations on fault-configured crossbar engines, and
	// TraceEventResolve also Algorithm 2's double-check re-solve.
	TraceEventResolve  = trace.EventResolve
	TraceEventSoftware = trace.EventSoftware
	// TraceEventRestart marks a PDHG adaptive restart (EnginePDHG only):
	// the iterate jumped back to the running average since the last
	// restart.
	TraceEventRestart = trace.EventRestart
)

// TraceRecord is one entry of a solve's iteration trace: a snapshot of the
// convergence state (µ, duality gap, residual norms, step length θ) plus the
// hardware activity attributed to the solve so far (write retries, cell
// writes, modeled energy). Event is one of the TraceEvent* constants. Its
// fields are documented in internal/trace.
type TraceRecord = trace.Record

// WithTrace enables iteration-trace recording on any engine. Each solve's
// trajectory — per-iteration convergence measures, recovery events, and the
// terminal summary — is captured into a bounded ring of the given capacity
// (<= 0 means a 1024-record default; older records are dropped, newest kept)
// and returned via Solution.Trace. Recording is allocation-free on the solver
// hot path.
func WithTrace(capacity int) Option {
	return func(o *options) error {
		o.traced = true
		o.traceCap = capacity
		o.set["WithTrace"] = capTrace
		return nil
	}
}

// WithTraceJSONL additionally streams every trace record to w as JSON Lines,
// in solve order (for batches: input order, regardless of pool width).
// Implies WithTrace. Non-finite floats are encoded as quoted "NaN"/"+Inf"/
// "-Inf" strings; ReadTraceJSONL round-trips them. Write errors latch: the
// first failure stops further output and is reported by Solver.TraceErr.
func WithTraceJSONL(w io.Writer) Option {
	return func(o *options) error {
		if w == nil {
			return fmt.Errorf("%w: nil trace writer", ErrInvalid)
		}
		o.traced = true
		o.traceJSONL = w
		o.set["WithTraceJSONL"] = capTrace
		return nil
	}
}

// WriteTraceJSONL serializes records as JSON Lines (one object per line, a
// stable field order, non-finite floats quoted).
func WriteTraceJSONL(w io.Writer, recs []TraceRecord) error { return trace.Write(w, recs) }

// ReadTraceJSONL parses a JSON-Lines trace written by WriteTraceJSONL or
// WithTraceJSONL. Blank lines are skipped; malformed lines fail with their
// line number.
func ReadTraceJSONL(r io.Reader) ([]TraceRecord, error) { return trace.Read(r) }

// Metrics aggregates trace records from any number of solves into counters
// and histograms and exposes them in Prometheus text format. Safe for
// concurrent use. The zero value is not usable; call NewMetrics. Metrics
// implements expvar.Var via String, so it can be published with
// expvar.Publish("memlp", m).
type Metrics struct{ m *trace.Metrics }

// NewMetrics returns an empty aggregator.
func NewMetrics() *Metrics { return &Metrics{m: trace.NewMetrics()} }

// Observe folds one Solution's trace (and, when present, its batch-pool
// shard stats) into the aggregate. Solutions without traces are ignored.
func (mt *Metrics) Observe(sol *Solution) {
	if sol == nil {
		return
	}
	for _, r := range sol.trace {
		mt.m.Emit(r)
	}
	if b := sol.Batch; b != nil {
		mt.m.ObserveBatch(b.ShardSolves, b.ShardBusy)
	}
}

// ObserveAll folds a batch of Solutions (e.g. a SolveBatch result) into the
// aggregate.
func (mt *Metrics) ObserveAll(sols []*Solution) {
	for _, sol := range sols {
		mt.Observe(sol)
	}
}

// WritePrometheus writes the aggregate in Prometheus text exposition format.
// Output is deterministic: metrics and label sets are sorted.
func (mt *Metrics) WritePrometheus(w io.Writer) error { return mt.m.WriteProm(w) }

// String returns a compact JSON summary (expvar.Var).
func (mt *Metrics) String() string { return mt.m.String() }
