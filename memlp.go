// Package memlp is a memristor-crossbar linear-program solver: a full
// reproduction of "A low-computation-complexity, energy-efficient, and
// high-performance linear program solver based on primal dual interior point
// method using memristor crossbars" (Cai, Ren, Soundarajan, Wang).
//
// The package solves linear programs in the canonical form
//
//	maximize cᵀx  subject to  A·x ≤ b,  x ≥ 0
//
// with seven interchangeable engines:
//
//   - EngineCrossbar — the paper's Algorithm 1: the full PDIP Newton system
//     reformulated for non-negative analog crossbar hardware, simulated with
//     device-level non-idealities (process variation, conductance
//     quantization, finite DAC/ADC precision).
//   - EngineCrossbarLargeScale — the paper's Algorithm 2: two much smaller
//     systems per iteration for crossbar-size-limited deployments.
//   - EnginePDIP — the software primal–dual interior-point baseline.
//   - EnginePDIPReduced — the same baseline on the reduced KKT system.
//   - EngineSimplex — the classic two-phase simplex baseline.
//   - EngineConic — Algorithm 1 generalized to conic problems: constraint
//     rows may be grouped into second-order cones (NewConicProblem), opening
//     SOCP workloads — portfolio optimization, robust regression — on the
//     same fabric. Pure LPs are the all-orthant degenerate case and take the
//     bit-identical LP path.
//   - EnginePDHG — restarted primal–dual hybrid gradient with its mat-vecs
//     tiled across NoC-connected crossbars, for problems past the
//     single-array ceiling.
//
// Crossbar solves return hardware latency/energy estimates derived from
// counted physical operations and calibrated device constants, so the
// paper's speed-up and energy-gain experiments can be regenerated (see
// EXPERIMENTS.md and cmd/benchtables).
//
// # Quick start
//
//	p, err := memlp.NewProblem("diet",
//	    []float64{3, 2},
//	    [][]float64{{1, 1}, {1, 3}},
//	    []float64{4, 6})
//	...
//	sol, err := memlp.Solve(p, memlp.EngineCrossbar)
//	fmt.Println(sol.Status, sol.Objective, sol.Hardware.Latency)
package memlp

import (
	"errors"
	"fmt"
	"io"
	"slices"
	"time"

	"github.com/memlp/memlp/internal/engine"
	"github.com/memlp/memlp/internal/linalg"
	"github.com/memlp/memlp/internal/lp"
)

// Errors surfaced by the public API.
var (
	// ErrInvalid reports malformed problems or options.
	ErrInvalid = lp.ErrInvalid
	// ErrUnknownEngine reports an unrecognized Engine value or name.
	ErrUnknownEngine = errors.New("memlp: unknown engine")
	// ErrIncompatibleOption reports an option that does not apply to the
	// selected engine — e.g. WithIOBits with a software engine, or
	// WithConstantStep outside EngineCrossbarLargeScale. It matches
	// errors.Is(err, ErrInvalid).
	ErrIncompatibleOption = fmt.Errorf("%w: option incompatible with engine", ErrInvalid)
	// ErrConicUnsupported reports a conic problem handed to an engine that
	// only solves pure LPs (everything except EngineConic, EnginePDIP and
	// EnginePDIPReduced). It matches errors.Is(err, ErrInvalid).
	ErrConicUnsupported = lp.ErrConicUnsupported
)

// Problem is a linear program: maximize Cᵀx subject to A·x ≤ B, x ≥ 0.
type Problem struct {
	inner *lp.Problem
}

// NewProblem constructs and validates a problem from row-major data.
func NewProblem(name string, c []float64, a [][]float64, b []float64) (*Problem, error) {
	mat, err := linalg.MatrixFromRows(a)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrInvalid, err)
	}
	cv := make(linalg.Vector, len(c))
	copy(cv, c)
	bv := make(linalg.Vector, len(b))
	copy(bv, b)
	inner, err := lp.New(name, cv, mat, bv)
	if err != nil {
		return nil, err
	}
	return &Problem{inner: inner}, nil
}

// ConeType identifies a cone family in a conic problem's constraint-row
// partition. Its String is the family's keyword in the text problem
// format: "nonneg" or "soc".
type ConeType = lp.ConeType

// Cone families.
const (
	// ConeNonNeg is the non-negative orthant: each covered row is an ordinary
	// scalar inequality slack.
	ConeNonNeg = lp.ConeNonNeg
	// ConeSOC is the second-order (Lorentz) cone: the covered rows' slack
	// s = b − A·x must satisfy s₀ ≥ ‖s₁…‖ (axis row first).
	ConeSOC = lp.ConeSOC
)

// Cone describes one block of a conic problem's ordered constraint-row
// partition: Dim consecutive rows belonging to one cone of family Type.
// NonNeg blocks need Dim ≥ 1, SOC blocks Dim ≥ 2; block dims must sum to the
// constraint count.
type Cone = lp.Cone

// NewConicProblem constructs and validates a conic problem: maximize cᵀx
// subject to b − A·x ∈ K and x ≥ 0, where K is the product of the given
// cones over the constraint rows in order. With only ConeNonNeg blocks the
// problem is an ordinary LP.
func NewConicProblem(name string, c []float64, a [][]float64, b []float64, cones []Cone) (*Problem, error) {
	mat, err := linalg.MatrixFromRows(a)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrInvalid, err)
	}
	cv := make(linalg.Vector, len(c))
	copy(cv, c)
	bv := make(linalg.Vector, len(b))
	copy(bv, b)
	prob, err := lp.NewConic(name, cv, mat, bv, slices.Clone(cones))
	if err != nil {
		return nil, err
	}
	return &Problem{inner: prob}, nil
}

// Name returns the problem's label.
func (p *Problem) Name() string { return p.inner.Name }

// IsConic reports whether the problem has at least one second-order cone
// block (i.e. is not a pure LP).
func (p *Problem) IsConic() bool { return p.inner.IsConic() }

// Cones returns the problem's constraint-row cone partition (nil for a pure
// LP built without explicit cones). The caller owns the slice.
func (p *Problem) Cones() []Cone {
	if len(p.inner.Cones) == 0 {
		return nil
	}
	return slices.Clone(p.inner.Cones)
}

// NumVariables returns n.
func (p *Problem) NumVariables() int { return p.inner.NumVariables() }

// NumConstraints returns m.
func (p *Problem) NumConstraints() int { return p.inner.NumConstraints() }

// Objective evaluates cᵀx. NaN or ±Inf entries in x propagate into the
// returned value unchanged; callers evaluating analog read-back should treat
// a non-finite result as a hardware-fault signal (see Diagnostics), not as
// an objective value.
func (p *Problem) Objective(x []float64) (float64, error) {
	return p.inner.Objective(linalg.Vector(x))
}

// IsFeasible reports whether x satisfies A·x ≤ b + tol·(1+|b|) row by row
// (a second-order cone block within tol·(1+‖s̄‖)) and x ≥ −tol — the
// paper's relaxed α-check with α = 1+tol. A NaN, infinite or negative tol
// is an ErrInvalid error; a point with a NaN or ±Inf entry is infeasible.
func (p *Problem) IsFeasible(x []float64, tol float64) (bool, error) {
	return p.inner.IsFeasible(linalg.Vector(x), tol)
}

// Dual returns the symmetric dual, re-expressed as a maximization problem
// whose optimum is the negated dual optimum.
func (p *Problem) Dual() *Problem { return &Problem{inner: p.inner.Dual()} }

// WriteText serializes the problem in the textual format understood by
// ReadProblem (and by the cmd/lpsolve tool).
func (p *Problem) WriteText(w io.Writer) error { return p.inner.WriteText(w) }

// ReadProblem parses the textual problem format:
//
//	# comment
//	name example
//	maximize 3 2
//	subject 1 1 <= 4
//	subject 1 3 <= 6
func ReadProblem(r io.Reader) (*Problem, error) {
	inner, err := lp.ReadText(r)
	if err != nil {
		return nil, err
	}
	return &Problem{inner: inner}, nil
}

// ReadProblemMPS parses a linear program in (a strict subset of) MPS format
// and converts it to the canonical maximize form. See internal documentation
// for the supported subset; anything outside it returns ErrInvalid rather
// than a silently wrong problem.
func ReadProblemMPS(r io.Reader) (*Problem, error) {
	inner, err := lp.ReadMPS(r)
	if err != nil {
		return nil, err
	}
	return &Problem{inner: inner}, nil
}

// WriteMPS serializes the problem in MPS format (as a minimization of −cᵀx
// with all constraints as L rows); ReadProblemMPS round-trips it exactly.
func (p *Problem) WriteMPS(w io.Writer) error { return p.inner.WriteMPS(w) }

// GenerateFeasible returns a random feasible, bounded LP with m constraints
// and n variables (n = 0 means the paper's ratio n = m/3). Instances are
// reproducible per seed.
func GenerateFeasible(m, n int, seed int64) (*Problem, error) {
	inner, err := lp.GenerateFeasible(lp.GenConfig{Constraints: m, Variables: n, Seed: seed})
	if err != nil {
		return nil, err
	}
	return &Problem{inner: inner}, nil
}

// GenerateFeasibleSOCP returns a random feasible, bounded SOCP with m
// constraint rows and n variables (n = 0 means the paper's ratio n = m/3),
// partitioned into `blocks` second-order cones of dimension blockDim each
// (zero means one 3-dimensional cone) with the remaining rows in the
// non-negative orthant. Instances are reproducible per seed.
func GenerateFeasibleSOCP(m, n int, blocks, blockDim int, seed int64) (*Problem, error) {
	inner, err := lp.GenerateFeasibleSOCP(lp.SOCGenConfig{
		GenConfig: lp.GenConfig{Constraints: m, Variables: n, Seed: seed},
		Blocks:    blocks,
		BlockDim:  blockDim,
	})
	if err != nil {
		return nil, err
	}
	return &Problem{inner: inner}, nil
}

// GenerateInfeasible returns a random infeasible LP (contradictory
// constraints by construction) with m constraints and n variables.
func GenerateInfeasible(m, n int, seed int64) (*Problem, error) {
	inner, err := lp.GenerateInfeasible(lp.GenConfig{Constraints: m, Variables: n, Seed: seed})
	if err != nil {
		return nil, err
	}
	return &Problem{inner: inner}, nil
}

// Status classifies a solve outcome. Its String is the outcome's name
// ("optimal", "infeasible", …), as lpsolve prints it and memlpd's responses
// carry it.
type Status = lp.Status

// Solve outcomes.
const (
	// StatusOptimal means the engine converged to an optimum (for crossbar
	// engines: within the analog accuracy floor, α-feasibility verified).
	StatusOptimal = lp.StatusOptimal
	// StatusInfeasible means the constraints admit no solution.
	StatusInfeasible = lp.StatusInfeasible
	// StatusUnbounded means the objective grows without bound.
	StatusUnbounded = lp.StatusUnbounded
	// StatusIterationLimit means the iteration budget ran out.
	StatusIterationLimit = lp.StatusIterationLimit
	// StatusNumericalFailure means the solve failed numerically (singular
	// analog network, α-check rejection, …).
	StatusNumericalFailure = lp.StatusNumericalFailure
	// StatusCanceled means the solve was interrupted by its context; the
	// Solution holds the partial iterate reached at cancellation.
	StatusCanceled = lp.StatusCanceled
	// StatusDegraded means the analog fabric could not produce the answer
	// (even after the recovery ladder's re-solve) and the solve fell back to
	// the software path. The returned optimum is correct,
	// but it was not computed in-memory: the Hardware estimate covers only
	// the failed analog attempts, and Diagnostics reports what the fabric
	// did before giving up. Only possible with WithFaultModel/WithWriteVerify.
	StatusDegraded = lp.StatusDegraded
)

// HardwareEstimate predicts the analog hardware cost of a crossbar solve.
type HardwareEstimate struct {
	// Latency is the end-to-end solve time on the modelled hardware.
	Latency time.Duration
	// EnergyJoules is the corresponding energy.
	EnergyJoules float64
	// CellWrites, AnalogOps and Conversions count the array's operations,
	// and DigitalMACs the fp64 multiply-adds the digital controller spends
	// beside it (the crossbar engine's residual, DESIGN.md D20). The
	// estimate is built from these four counts.
	CellWrites  int64
	AnalogOps   int64
	Conversions int64
	DigitalMACs int64
	// CellsSkipped counts the physical programming pulses avoided by
	// delta-programming (WithDeltaWriteBits): cells whose discretized level
	// was unchanged since the last epoch-compatible write. Skipped writes
	// cost nothing in the latency/energy estimate.
	CellsSkipped int64
}

// BatchStats is the fabric-pool roll-up of one SolveBatch call, attached to
// the batch's first Solution: the pool width (Replicas) and each shard's
// solve count and busy wall time (ShardSolves, ShardBusy). Its fields are
// documented in internal/engine.
type BatchStats = engine.BatchStats

// FaultModel describes permanent and progressive defects of the simulated
// memristor arrays, beyond the paper's per-write process variation: stuck
// cells, extra per-write programming noise, and retention drift. Pass it to
// WithFaultModel. Fault placement is a pure, seeded function of the physical
// cell coordinates, so every array built from the same configuration sees
// the same defect map, which keeps concurrent solves on one handle
// consistent.
type FaultModel struct {
	// StuckOnDensity is the fraction of cells pinned at maximum conductance.
	StuckOnDensity float64
	// StuckOffDensity is the fraction of cells pinned at zero conductance.
	StuckOffDensity float64
	// Seed fixes the defect placement. Zero uses the solver's WithSeed value.
	Seed int64
	// WriteNoise is an extra relative programming-noise magnitude per write
	// attempt (uniform in ±WriteNoise); write-verify retries redraw it.
	WriteNoise float64
	// DriftPerCycle is the multiplicative conductance decay an unrefreshed
	// cell suffers per analog solve cycle (retention loss). Zero disables.
	DriftPerCycle float64
}

// Diagnostics reports what the fault-recovery machinery observed and did
// during one crossbar solve: the stuck-cell census, write-verify retries,
// attempts, the rung that produced the answer, and the modeled energy.
// Present on Solutions from crossbar solvers configured with WithFaultModel
// or WithWriteVerify, and on every EnginePDHG Solution. Its fields are
// documented in internal/engine.
type Diagnostics = engine.Diagnostics

// Solution is the result of a Solve call.
type Solution struct {
	Status    Status
	X         []float64
	DualY     []float64
	Objective float64
	// Iterations is the PDIP iteration count (0 for simplex; see Pivots).
	Iterations int
	// Pivots is the simplex pivot count (0 for PDIP engines).
	Pivots int
	// WallTime is the measured software solve duration.
	WallTime time.Duration
	// Hardware is the modelled crossbar cost (nil for software engines).
	Hardware *HardwareEstimate
	// PrimalInfeasibility, DualInfeasibility and DualityGap are the final
	// convergence measures for PDIP engines.
	PrimalInfeasibility float64
	DualInfeasibility   float64
	DualityGap          float64
	// ConeInfeasibility is the worst second-order-cone violation of the
	// constraint slack at the returned point (always 0 for pure LPs).
	ConeInfeasibility float64
	// Diagnostics carries fault and recovery telemetry: set by EnginePDHG
	// always, and by the other crossbar engines when the solver was built
	// with WithFaultModel or WithWriteVerify; nil otherwise.
	Diagnostics *Diagnostics
	// Batch is the fabric-pool roll-up of a SolveBatch call; non-nil only on
	// the first Solution of a batch.
	Batch *BatchStats

	// trace is the recorded iteration trajectory; set only when the solver
	// was built WithTrace. Exposed through the Trace accessor.
	trace []TraceRecord
}

// Trace returns the solve's recorded iteration trajectory, oldest first: one
// record per PDIP iteration or simplex pivot, recovery-ladder events, and a
// terminal done record whose fields agree with this Solution. Nil unless the
// solver was built WithTrace (or WithTraceJSONL). The caller owns the slice.
func (s *Solution) Trace() []TraceRecord { return s.trace }
