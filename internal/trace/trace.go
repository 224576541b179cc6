// Package trace records per-iteration solver telemetry.
//
// Every engine backend emits one Record per iteration (or simplex pivot)
// plus one terminal "done" record, carrying the convergence state the paper
// reasons about — µ, duality gap, primal/dual residual norms, the step
// length θ — together with the hardware-facing counters that only exist in
// this reproduction: write-verify retries, recovery-ladder events, the
// noise-epoch id that keys a problem's cycle-noise stream, and modeled
// energy.
//
// Records flow into a Sink. The in-memory Ring is the default and is safe
// to use on the annotated hot paths: emitting into a ring copies a value
// struct and allocates nothing once the ring's first Reset has sized it.
// JSONL and Metrics are the two exporting sinks (file stream and
// Prometheus-text/expvar exposition); they live behind the same interface
// so the solver core never touches file or socket I/O directly (enforced
// by memlpvet's tracesink check).
package trace

// Event values carried by Record.Event.
const (
	// EventIteration is one interior-point iteration (Algorithms 1 and 2).
	EventIteration = "iteration"
	// EventPivot is one simplex pivot.
	EventPivot = "pivot"
	// EventDone is the terminal record of a solve; its fields are the
	// final Result values.
	EventDone = "done"
	// EventResolve marks a recovery-ladder rung-1 re-solve (or an
	// Algorithm 2 double-check re-program); Status holds the status of
	// the attempt that triggered it.
	EventResolve = "resolve"
	// EventSoftware marks the rung-2 software fallback.
	EventSoftware = "software"
	// EventTrial is one xbarsim substrate trial (no LP above it).
	EventTrial = "trial"
	// EventRestart marks a PDHG adaptive restart: the iterate is reset to
	// the running average and the ergodic sums are cleared. Iteration holds
	// the iteration the restart fired on.
	EventRestart = "restart"
)

// Stop values carried by Record.Stop: the rule that ended an interior-point
// loop on the analog engines (Algorithms 1 and 2).
const (
	// StopTolerance: the measured residuals and the gap met the tolerances.
	StopTolerance = "tolerance"
	// StopGapStall: the duality gap stopped improving.
	StopGapStall = "gap-stall"
	// StopFloor: the best iterate stopped changing while a measured
	// residual, not the gap, set its score (the analog accuracy floor).
	StopFloor = "floor"
	// StopIterationLimit: the iteration budget ran out.
	StopIterationLimit = "iteration-limit"
)

// Record is one point of a solve trajectory: a snapshot of the convergence
// state (µ, duality gap, residual norms, step length θ) plus the hardware
// activity attributed to the solve so far (write retries, cell writes,
// modeled energy); memlp.TraceRecord is this type. It is a plain value
// struct so emitting one copies it into the sink without heap allocation.
//
// Not every field is meaningful for every event: software engines leave the
// hardware fields zero; pivot records carry the tableau objective but no µ;
// substrate trials reuse the residual fields for mat-vec/solve errors.
// Fields that do not apply are zero.
type Record struct {
	// Engine is the emitting engine name ("crossbar", "pdip", "simplex",
	// ...). Engines leave it empty; the public memlp layer stamps it.
	Engine string
	// Problem is the batch problem index (0 for single solves).
	Problem int
	// Attempt counts solve attempts within one problem, starting at 1;
	// it increments on recovery-ladder re-solves and Algorithm 2
	// double-check re-programs.
	Attempt int
	// Iteration is the 1-based iteration (or pivot) number; on a done
	// record it is the final iteration count.
	Iteration int
	// Event classifies the record (EventIteration, EventDone, ...).
	Event string
	// Status is the solve status on done records, or the status of the
	// failed attempt on recovery-event records.
	Status string
	// Stop names the rule that ended the loop (a Stop* value) on the done
	// records of the analog interior-point engines. It is empty on every
	// other record, and on done records whose Status already says why the
	// loop ended (blow-up, failed settle, cancel) or whose engine has no
	// such rules.
	Stop string

	// Mu is the complementarity measure µ = xᵀz/n.
	Mu float64
	// DualityGap is |cᵀx − bᵀy| / (1 + |cᵀx|).
	DualityGap float64
	// PrimalInfeasibility is ‖Ax + w − b‖∞ scaled.
	PrimalInfeasibility float64
	// DualInfeasibility is ‖Aᵀy + z − c‖∞ scaled.
	DualInfeasibility float64
	// ConeInfeasibility is the largest second-order-cone violation
	// max(0, ‖s̄‖ − s₀) of the slack s = b − A·x over the problem's cone
	// blocks. Always 0 for pure LPs, so existing traces are unchanged.
	ConeInfeasibility float64
	// Theta is the damped step length taken this iteration.
	Theta float64
	// Objective is cᵀx (for simplex pivots, the tableau objective row).
	Objective float64

	// WriteRetries is the cumulative write-verify corrective-pulse count
	// for this problem so far.
	WriteRetries int64
	// CellsWritten is the cumulative device-programming operation count for
	// this problem so far (the analog write traffic the iteration actually
	// paid for).
	CellsWritten int64
	// CellsSkipped is the cumulative count of writes avoided by
	// delta-programming for this problem so far: refreshes whose target
	// moved on the write grid but stayed within the cell's delta level.
	// Zero when delta-programming is disabled.
	CellsSkipped int64
	// TilesRefreshed is the cumulative count of crossbar tiles
	// re-programmed by the PDHG engine's periodic conductance refresh for
	// this problem so far. Zero for single-fabric engines, so existing
	// traces are unchanged.
	TilesRefreshed int64
	// NoiseEpoch keys the problem's cycle-noise stream (the batch
	// problem index under the PR 4 determinism contract; 0 otherwise).
	NoiseEpoch int64
	// EnergyJoules is the cumulative modeled energy for this problem so
	// far (0 unless an energy model is configured).
	EnergyJoules float64
}

// Sink receives trace records. Implementations must be safe for use from
// the single goroutine that owns a solve; sinks shared across goroutines
// (Metrics, JSONL) do their own locking.
type Sink interface {
	Emit(Record)
}

// Multi fans every record out to each sink in order.
type Multi []Sink

// Emit implements Sink.
func (m Multi) Emit(rec Record) {
	for _, s := range m {
		s.Emit(rec)
	}
}

// DefaultCapacity bounds rings created with a non-positive capacity. It
// comfortably holds the longest trajectory the paper reports (tens of
// iterations) times the ladder's attempt budget.
const DefaultCapacity = 1024

// Ring is a bounded in-memory sink. When full it overwrites the oldest
// records, so the tail of a pathological run is always retained. Its buffer
// is allocated on first use, so a handle that never records holds none.
type Ring struct {
	buf      []Record
	capacity int
	next     int
	n        int
}

// NewRing returns a ring holding up to capacity records
// (DefaultCapacity if capacity <= 0). The buffer is allocated by the first
// Reset, which every recorder calls before a problem's first Emit.
func NewRing(capacity int) *Ring {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Ring{capacity: capacity}
}

// Emit implements Sink. It copies rec into the buffer, allocating nothing
// once the ring has been Reset; a ring emitted into before any Reset
// allocates its buffer then.
//
//memlp:hotpath
func (r *Ring) Emit(rec Record) {
	if r.buf == nil {
		r.Reset()
	}
	r.buf[r.next] = rec
	r.next++
	if r.next == len(r.buf) {
		r.next = 0
	}
	if r.n < len(r.buf) {
		r.n++
	}
}

// Reset discards all buffered records, keeping the buffer; the first Reset
// allocates it.
func (r *Ring) Reset() {
	if r.buf == nil {
		r.buf = make([]Record, r.capacity)
	}
	r.next = 0
	r.n = 0
}

// Snapshot returns the buffered records oldest-first as a fresh slice.
func (r *Ring) Snapshot() []Record {
	if r.n == 0 {
		return nil
	}
	out := make([]Record, r.n)
	start := r.next - r.n
	if start < 0 {
		start += len(r.buf)
	}
	for i := 0; i < r.n; i++ {
		out[i] = r.buf[(start+i)%len(r.buf)]
	}
	return out
}
