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
// hardware activity attributed to that step (write retries, modeled energy).
// Software engines leave the hardware fields zero; simplex records carry the
// running tableau objective instead of interior-point measures.
type TraceRecord struct {
	// Engine is the backend name ("crossbar", "pdip", "simplex", …).
	Engine string
	// Problem is the batch index (0 for single solves). Attempt counts
	// recovery-ladder analog attempts, starting at 1. Iteration is the PDIP
	// iteration or simplex pivot number.
	Problem   int
	Attempt   int
	Iteration int
	// Event is one of the TraceEvent* constants; Status is set on terminal
	// and recovery records.
	Event  string
	Status string
	// Stop names the rule that ended an analog interior-point loop
	// (crossbar, crossbar-large-scale and conic engines), on done records
	// only: "tolerance", "gap-stall", "floor" (the best iterate stopped
	// changing at the analog accuracy floor) or "iteration-limit". It is
	// empty when Status already says why the loop ended (a blow-up, a
	// failed settle or a cancel) and on every other engine.
	Stop string
	// Interior-point convergence measures at this step.
	Mu                  float64
	DualityGap          float64
	PrimalInfeasibility float64
	DualInfeasibility   float64
	// ConeInfeasibility is the worst second-order-cone violation of the
	// constraint slack b − A·x (conic problems only; 0 for pure LPs).
	ConeInfeasibility float64
	Theta             float64
	// Objective is the objective value (terminal records; running tableau
	// value on simplex pivots).
	Objective float64
	// WriteRetries and EnergyJoules attribute hardware activity: per-step
	// marginals on iteration records, solve totals on the done record.
	// NoiseEpoch is the deterministic per-problem noise stream id.
	WriteRetries int64
	// CellsWritten / CellsSkipped are the solve's running device-programming
	// count and the writes avoided by delta-programming (cumulative on
	// iteration records, solve totals on the done record; zero for software
	// engines or with delta-programming disabled).
	CellsWritten int64
	CellsSkipped int64
	// TilesRefreshed is the running count of crossbar tiles re-programmed
	// by the PDHG engine's periodic refresh (EnginePDHG only; zero
	// elsewhere).
	TilesRefreshed int64
	NoiseEpoch     int64
	EnergyJoules   float64
}

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
func WriteTraceJSONL(w io.Writer, recs []TraceRecord) error {
	inner := make([]trace.Record, len(recs))
	for i, r := range recs {
		inner[i] = trace.Record(r)
	}
	return trace.Write(w, inner)
}

// ReadTraceJSONL parses a JSON-Lines trace written by WriteTraceJSONL or
// WithTraceJSONL. Blank lines are skipped; malformed lines fail with their
// line number.
func ReadTraceJSONL(r io.Reader) ([]TraceRecord, error) {
	inner, err := trace.Read(r)
	if err != nil {
		return nil, err
	}
	out := make([]TraceRecord, len(inner))
	for i, rec := range inner {
		out[i] = TraceRecord(rec)
	}
	return out, nil
}

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
		mt.m.Emit(trace.Record(r))
	}
	if b := sol.Batch; b != nil {
		busy := make([]float64, len(b.ShardBusy))
		for i, d := range b.ShardBusy {
			busy[i] = d.Seconds()
		}
		mt.m.ObserveBatch(b.ShardSolves, busy)
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
