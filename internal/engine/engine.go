// Package engine holds the one result shape every solver returns. The
// crossbar engines of Algorithms 1 and 2 (internal/core), the software PDIP
// baselines (internal/pdip), two-phase simplex (internal/simplex) and tiled
// PDHG (internal/pdhg) each fill a Result from SolveContext, and the public
// memlp layer builds its Solution from it in one place. The package is a
// leaf: data types plus the host-clock funnels that stamp Result.WallTime.
package engine

import (
	"time"

	"github.com/memlp/memlp/internal/crossbar"
	"github.com/memlp/memlp/internal/linalg"
	"github.com/memlp/memlp/internal/lp"
	"github.com/memlp/memlp/internal/noc"
	"github.com/memlp/memlp/internal/trace"
)

// Result is a solve outcome. Fields an engine does not produce stay zero:
// the analog counters for the software engines, W and Z outside the
// interior-point engines, Pivots outside simplex.
type Result struct {
	Status lp.Status
	// X and Y are the primal point and the constraint duals; W and Z are the
	// constraint and variable slacks of the interior-point iterate.
	X, Y, W, Z linalg.Vector
	Objective  float64
	// Iterations counts interior-point or PDHG iterations; Pivots counts
	// simplex pivots across both phases.
	Iterations int
	Pivots     int

	PrimalInfeasibility float64
	DualInfeasibility   float64
	DualityGap          float64
	// ConeInfeasibility is the worst second-order-cone violation of the
	// constraint slack b − A·x; always 0 for pure LPs.
	ConeInfeasibility float64

	// WallTime is the host time this individual solve took.
	WallTime time.Duration

	// Counters aggregates the fabric's physical operation counts for THIS
	// solve (a per-solve marginal when the fabric persists across solves).
	Counters crossbar.Counters
	// MatrixSize is the system dimension programmed on the fabric.
	MatrixSize int
	// Resolves counts re-solve attempts that were consumed (Algorithm 2's
	// double-check, or any rung-1 retry of the recovery ladder).
	Resolves int

	// NoC is the interconnect traffic of THIS solve: PDHG's scatters and
	// gathers, or the transfers of the tiled fabrics Algorithms 1 and 2 run
	// on, summed over attempts like Counters; a batch's first result also
	// carries the replicas' programming transfers, as its Counters carry
	// their cell writes. It is the one NoC ledger: the public layer prices
	// it with perf.NoCCost. Zero on a single crossbar.
	NoC noc.Stats
	// Restarts and TilesRefreshed are PDHG's adaptive restarts taken and
	// canonical tiles re-programmed by its periodic conductance refresh.
	Restarts       int
	TilesRefreshed int64

	// Diagnostics carries fault, recovery and energy telemetry. The crossbar
	// engines set it when a recovery policy is configured; PDHG always does.
	Diagnostics *Diagnostics
	// Batch is the fabric-pool roll-up of the batch this result belongs to;
	// attached to the FIRST result of a batch only (the same place the
	// one-time programming cost is charged).
	Batch *BatchStats
	// Trace is the recorded iteration trajectory (oldest first); non-nil
	// only when the engine was built with tracing.
	Trace []trace.Record
}

// Diagnostics reports what the fault-recovery machinery observed and did
// during one solve; memlp.Diagnostics is this type. Present on results of
// crossbar solvers configured with WithFaultModel or WithWriteVerify (a
// recovery policy), and on every PDHG result (one attempt, its write
// retries and modeled energy).
type Diagnostics struct {
	// StuckOn / StuckOff count the defective devices inside the fabric
	// region the solve actually used (post-program census; zero when the
	// fabric cannot report faults).
	StuckOn  int
	StuckOff int
	// WriteRetries counts write-verify corrective pulses across all
	// attempts of the solve.
	WriteRetries int64
	// Attempts is the number of analog solve attempts (1 for a clean
	// first-try solve).
	Attempts int
	// SoftwareFallback records that the software rung ran.
	SoftwareFallback bool
	// RecoveredBy names the rung that produced the result: "" (first
	// attempt), "resolve", or "software".
	RecoveredBy string
	// EnergyJoules is Hardware.EnergyJoules: the modeled energy of every
	// attempt of the solve, NoC transfers included (and the pool's
	// programming on a batch's first Solution). Populated on clean first-try
	// solves too, not just recovered ones. Engines leave it zero; the public
	// layer sets it when it prices the hardware estimate.
	EnergyJoules float64
}

// BatchStats is the fabric-pool roll-up of one batch solve (SolveBatch);
// memlp.BatchStats is this type. It is attached to the batch's first
// result, the same place the pool's one-time programming cost is charged.
// Per-result hardware counters remain per-solve marginals, what that solve
// cost on whichever shard ran it; the replica count and shard utilization
// are batch-level properties and live here.
type BatchStats struct {
	// Replicas is the pool width: how many fabric replicas were built and
	// programmed. The one-time programming cost scales with it.
	Replicas int
	// ShardSolves[r] counts the problems shard r completed. Shard r is dealt
	// problems r, r+Replicas, r+2·Replicas, …, so on a batch that runs to
	// completion the split is fixed by the batch size and the width.
	ShardSolves []int
	// ShardBusy[r] is the wall time shard r spent solving; divide by the
	// batch wall time for that shard's utilization.
	ShardBusy []time.Duration
}

// WallClock and WallSince are the engines' only reads of the host clock —
// the //memlp:timing funnels memlpvet's wallclock analyzer enforces. They
// feed Result.WallTime and the batch pool's shard-busy accounting only; no
// iterate, trace field other than wall time, or noise epoch may observe
// them, which keeps golden traces and the batch determinism contract
// host-independent.
//
//memlp:timing
func WallClock() time.Time { return time.Now() }

// WallSince returns the host time elapsed since start (see WallClock).
//
//memlp:timing
func WallSince(start time.Time) time.Duration { return time.Since(start) }
