// Package crossbar simulates a memristor crossbar array performing analog
// matrix–vector multiplication and linear-system solving, as described in
// §2.3 and §3 of the paper.
//
// # Physics
//
// An R×C crossbar has a memristor at every wordline/bitline crossing and a
// sense resistor (conductance gs) on every bitline. Writing to the array uses
// the Vdd/2 half-select scheme (§3.3); reading drives sub-threshold voltages
// so device states are undisturbed.
//
// For multiplication, input voltages VI on the wordlines produce output
// voltages VO = C·VI where the connection matrix is C = D·Gᵀ with
// dᵢ = 1/(gs + Σₖ g₍ₖ,ᵢ₎) (Eq. 5). For solving, voltages VO forced at the
// bitline sense resistors make the wordline voltages settle to the solution
// of Gᵀ·VI = gs·VO.
//
// # Mapping
//
// Because C₍ᵢ,ⱼ₎ = g₍ⱼ,ᵢ₎/(gs + Sᵢ) with Sᵢ = Σⱼ g₍ⱼ,ᵢ₎, a target row with sum
// Rᵢ < 1 maps exactly via g₍ⱼ,ᵢ₎ = C₍ᵢ,ⱼ₎·gs/(1−Rᵢ). The crossbar scales the
// user's (non-negative) matrix by a single digital factor so that row sums and
// conductance bounds hold; the factor is reported so the digital domain can
// rescale results, exactly as the paper's gs/gmax rescale does.
//
// # Non-idealities
//
// Every physical write draws a fresh multiplicative process-variation factor
// (Eq. 18), conductances are quantized to the write precision, zero matrix
// entries are represented by selector-gated (zero-conductance) cells, and all
// voltage inputs/outputs pass through finite-precision DAC/ADC stages (§4.1:
// 8-bit).
package crossbar

import (
	"errors"
	"fmt"
	"math"
	"math/bits"

	"github.com/memlp/memlp/internal/linalg"
	"github.com/memlp/memlp/internal/memristor"
	"github.com/memlp/memlp/internal/quant"
	"github.com/memlp/memlp/internal/variation"
)

// Errors returned by crossbar operations.
var (
	ErrTooLarge      = errors.New("crossbar: matrix exceeds array size")
	ErrNegative      = errors.New("crossbar: matrix has negative elements")
	ErrNotProgrammed = errors.New("crossbar: array not programmed")
	ErrSingular      = errors.New("crossbar: analog solve failed (singular conductance network)")
	ErrBadConfig     = errors.New("crossbar: invalid configuration")
)

// errNonFinite rejects a NaN or infinite coefficient, in Program and in the
// in-place updates alike: no device conductance represents one.
var errNonFinite = fmt.Errorf("%w: matrix has non-finite elements", ErrBadConfig)

// checkCoefficient rejects a user coefficient that no conductance can
// represent: ErrNegative below zero (−Inf included), Program's non-finite
// error for NaN and +Inf. One pair of comparisons passes every valid value,
// which keeps the per-iteration row refresh cheap.
func checkCoefficient(v float64) error {
	if v >= 0 && v <= math.MaxFloat64 {
		return nil
	}
	if v < 0 {
		return ErrNegative
	}
	return errNonFinite
}

// The sense resistor and the mapping headroom of every array. Both are
// typed, so expressions keep their run-time rounding step by step.
const (
	// senseConductance is gs in siemens: 100·GMax, which keeps the bitline
	// sense node stiff relative to the array.
	senseConductance float64 = 100 * memristor.GMax
	// maxRowSum is the mapping headroom ρ: the programmed connection matrix
	// keeps every row sum ≤ ρ < 1, leaving headroom for in-place
	// coefficient updates that grow a row.
	maxRowSum float64 = 0.5
)

// Config parameterizes a crossbar array.
type Config struct {
	// Size is the physical array dimension (Size×Size devices).
	// Zero means 4096.
	Size int
	// IOBits is the DAC/ADC precision for voltages. Zero means 8 (§4.1).
	IOBits int
	// GlobalIORange, when true, quantizes whole vectors against a single
	// shared full-scale range (one PGA per array). The default (false)
	// models a per-line programmable-gain stage in front of each DAC/ADC,
	// so each element is quantized at IOBits of its own magnitude —
	// standard practice in crossbar accelerator designs. AB3 sweeps both.
	GlobalIORange bool
	// WriteBits is the conductance write precision. Zero means 14
	// (program-and-verify multilevel writes reach finer granularity than
	// the 8-bit voltage I/O path; AB6 in DESIGN.md sweeps this).
	WriteBits int
	// DeltaWriteBits enables delta-programming of per-iteration refreshes:
	// every write target is binned onto a 2^DeltaWriteBits-level log-spaced
	// conductance grid, and a refresh whose level is unchanged since the
	// cell's last epoch-compatible write is skipped entirely — the stale
	// realized conductance (old noise draw included) is already within the
	// voltage I/O precision of the new target, so the analog result is
	// unaffected at the ADC. Zero (the default) disables delta-programming:
	// every changed WriteBits-grid target is physically written. The façade
	// opts crossbar engines in at 8 bits (matching the §4.1 I/O precision);
	// the core toggles it off per solve for conic problems via
	// SetDeltaProgramming.
	DeltaWriteBits int
	// Variation is the process-variation model; nil disables variation.
	// Each device draws one static factor from it when the array is first
	// programmed (geometry variation dominates, Eq. 18 is a static matrix
	// perturbation); CycleNoise adds per-write stochasticity on top.
	Variation *variation.Model
	// CycleNoise is the magnitude of the cycle-to-cycle write noise as a
	// fraction of the static variation magnitude (0 disables; the AB4
	// ablation sweeps it). Requires Variation.
	CycleNoise float64
	// WireResistance is the metal line resistance per crossbar segment in
	// ohms (IR drop). Each cell's conductance is attenuated by the series
	// word-line and bit-line wire on its current path:
	// g_eff = g / (1 + g·Rw·(dist_wl + dist_bl)). Zero disables the effect
	// (the paper's idealization); the AB7 ablation sweeps it.
	WireResistance float64
	// Faults models permanent device defects (stuck-at-ON/OFF cells, extra
	// programming noise, retention drift); nil disables faults. Placement is
	// deterministic per the model's seed over the array's cell coordinates.
	Faults *memristor.FaultModel
	// MaxWriteRetries enables write-verify programming: after each cell
	// write the controller reads the realized conductance back and, while it
	// is off-target by more than WriteVerifyTol, issues up to this many
	// corrective pulses (each halving the residual programming error — the
	// standard closed-loop program-and-verify convergence model). Zero
	// disables verification (every write is open-loop, as the paper assumes).
	MaxWriteRetries int
	// WriteVerifyTol is the relative conductance tolerance the verify loop
	// accepts. Zero means 0.01 (1%). Only used with MaxWriteRetries > 0.
	WriteVerifyTol float64
}

func (c Config) withDefaults() Config {
	if c.Size == 0 {
		c.Size = 4096
	}
	if c.IOBits == 0 {
		c.IOBits = 8
	}
	if c.WriteBits == 0 {
		c.WriteBits = 14
	}
	if c.MaxWriteRetries > 0 && c.WriteVerifyTol == 0 {
		c.WriteVerifyTol = 0.01
	}
	return c
}

func (c Config) validate() error {
	if c.Size < 1 {
		return fmt.Errorf("%w: size %d", ErrBadConfig, c.Size)
	}
	if c.IOBits < 1 || c.IOBits > 24 {
		return fmt.Errorf("%w: IO bits %d", ErrBadConfig, c.IOBits)
	}
	if c.WriteBits < 1 || c.WriteBits > 24 {
		return fmt.Errorf("%w: write bits %d", ErrBadConfig, c.WriteBits)
	}
	if c.DeltaWriteBits != 0 && (c.DeltaWriteBits < 2 || c.DeltaWriteBits > 24) {
		return fmt.Errorf("%w: delta write bits %d", ErrBadConfig, c.DeltaWriteBits)
	}
	if !(c.CycleNoise >= 0 && c.CycleNoise <= 1) {
		return fmt.Errorf("%w: cycle noise %v outside [0,1]", ErrBadConfig, c.CycleNoise)
	}
	if !(c.WireResistance >= 0 && c.WireResistance <= math.MaxFloat64) {
		return fmt.Errorf("%w: wire resistance %v", ErrBadConfig, c.WireResistance)
	}
	if c.Faults != nil {
		if err := c.Faults.Validate(); err != nil {
			return fmt.Errorf("%w: %v", ErrBadConfig, err)
		}
	}
	if c.MaxWriteRetries < 0 {
		return fmt.Errorf("%w: max write retries %d", ErrBadConfig, c.MaxWriteRetries)
	}
	if !(c.WriteVerifyTol >= 0 && c.WriteVerifyTol < 1) {
		return fmt.Errorf("%w: write verify tolerance %v", ErrBadConfig, c.WriteVerifyTol)
	}
	return nil
}

// Counters accumulates the operation counts the performance estimator
// consumes. Counts are cumulative since construction.
type Counters struct {
	// CellWrites is the number of device programming operations, including
	// write-verify corrective pulses.
	CellWrites int64
	// WriteRetries is the number of corrective pulses issued by the
	// write-verify loop (a subset of CellWrites; zero without verification).
	WriteRetries int64
	// CellSkips is the number of physical writes avoided by
	// delta-programming: refreshes whose WriteBits-grid target changed but
	// whose DeltaWriteBits level did not (the pre-delta controller would
	// have pulsed the device). Zero when delta-programming is disabled.
	CellSkips int64
	// MatVecOps is the number of analog multiply operations.
	MatVecOps int64
	// SolveOps is the number of analog linear-system solves.
	SolveOps int64
	// IOConversions is the number of DAC/ADC element conversions.
	IOConversions int64
	// DigitalMACs is the number of fp64 multiply-adds the digital
	// controller spends beside the array (Algorithm 1's mixed-precision
	// residual). A crossbar never counts any itself; the solver that does
	// the work adds them to the counters it reports.
	DigitalMACs int64
}

// Add returns the element-wise sum of two counter sets.
func (c Counters) Add(o Counters) Counters {
	return Counters{
		CellWrites:    c.CellWrites + o.CellWrites,
		WriteRetries:  c.WriteRetries + o.WriteRetries,
		CellSkips:     c.CellSkips + o.CellSkips,
		MatVecOps:     c.MatVecOps + o.MatVecOps,
		SolveOps:      c.SolveOps + o.SolveOps,
		IOConversions: c.IOConversions + o.IOConversions,
		DigitalMACs:   c.DigitalMACs + o.DigitalMACs,
	}
}

// Sub returns the element-wise difference c − o. It marginalizes cumulative
// counters: snapshotting before a solve and subtracting afterwards yields the
// counts attributable to that solve alone, which is how persistent Solver
// handles report per-solve hardware cost.
func (c Counters) Sub(o Counters) Counters {
	return Counters{
		CellWrites:    c.CellWrites - o.CellWrites,
		WriteRetries:  c.WriteRetries - o.WriteRetries,
		CellSkips:     c.CellSkips - o.CellSkips,
		MatVecOps:     c.MatVecOps - o.MatVecOps,
		SolveOps:      c.SolveOps - o.SolveOps,
		IOConversions: c.IOConversions - o.IOConversions,
		DigitalMACs:   c.DigitalMACs - o.DigitalMACs,
	}
}

// Crossbar is one simulated memristor array programmed with a non-negative
// matrix. It is not safe for concurrent use.
type Crossbar struct {
	cfg Config

	rows, cols int
	// target is the ideal connection matrix C (each user row divided by its
	// row scale); gt is the physically realized Gᵀ in siemens, including
	// write quantization and per-write variation. gt rows index outputs
	// (the same index as target rows), columns index inputs. rowScale[i] is
	// the per-row digital gain: userRow_i = rowScale[i] · C_i (per-row ADC
	// gain/reference, as in the paper's per-row D normalization of Eq. 5).
	target   *linalg.Matrix
	gt       *linalg.Matrix
	rowScale []float64
	// deviceFactor holds each cell's static process-variation factor, drawn
	// once at Program time; nil without a variation model, where every
	// factor would be exactly 1.
	deviceFactor *linalg.Matrix
	// progTarget caches each cell's last programmed (quantized, pre-noise)
	// conductance target: a write pulse is only issued — and only counted —
	// when the target actually changes.
	progTarget *linalg.Matrix
	// deltaQ bins conductance targets onto the DeltaWriteBits log-spaced
	// level grid for delta-programming (nil when disabled); deltaLevel
	// caches each cell's last written level index (row-major, deltaInvalid
	// when the cell has not been written since the last epoch rebase).
	deltaQ     *quant.Quantizer
	deltaLevel []int64
	// deltaOff suppresses delta-programming for the current workload even
	// when cfg.DeltaWriteBits enables it; see SetDeltaProgramming.
	deltaOff bool
	// writeSeq numbers write attempts for the fault model's deterministic
	// per-attempt programming noise.
	writeSeq int
	// driftCycle counts refresh cycles (one per analog settle) for the
	// retention-drift model; cellCycle records the cycle each cell was last
	// programmed in. Both unused unless the fault model enables drift.
	driftCycle float64
	cellCycle  *linalg.Matrix
	// pat is the zero/non-zero pattern of gt that the sense kernel, the
	// measured row sums and the settle walk instead of dense rows. It is
	// rescanned lazily once patValid drops, which happens only where gt can
	// change between zero and non-zero: a conductance-writer funnel flipping
	// a cell, and Program under a fault model. A healthy Program builds it.
	pat      linalg.Pattern
	patValid bool
	// live holds one bit per cell, liveWords words per row, set for every
	// cell a row refresh must visit even when its incoming coefficient is
	// +0: every cell whose target or progTarget has a bit set (non-zero,
	// NaN or −0). A set bit may also mark a dead cell, which a refresh visits
	// harmlessly and clears. Program builds the masks as it writes; a
	// rejected Program drops them (liveValid) and the next refresh rebuilds
	// them into the same storage.
	live      []uint64
	liveWords int
	liveValid bool

	counters Counters

	// Per-method scratch buffers so steady-state operation allocates
	// nothing: result vectors are crossbar-owned storage, valid until the
	// next call of the SAME method on this array. Buffers are never shared
	// across methods: MatVecResidual's result is routinely fed straight into
	// Solve, so the two must not overwrite each other's storage.
	analogIn linalg.Vector              // toAnalog normalized input
	mvOut    linalg.Vector              // MatVec analog outputs, digitized and returned
	resVI    linalg.Vector              // MatVecResidual quantized input
	resOut   linalg.Vector              // MatVecResidual returned result
	solveNet *linalg.Matrix             // Solve IR-drop-adjusted network view
	solveVO  linalg.Vector              // Solve forced bitline voltages
	solveWS  linalg.StructuredWorkspace // Solve network settle, digitized and returned
}

// scratchVec returns *buf resized to n, allocating only on growth.
func scratchVec(buf *linalg.Vector, n int) linalg.Vector {
	*buf = linalg.Resize(*buf, n)
	return *buf
}

// New returns an unprogrammed crossbar.
func New(cfg Config) (*Crossbar, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	x := &Crossbar{cfg: cfg}
	if cfg.DeltaWriteBits > 0 {
		// The level grid quantizes the binary MANTISSA of the conductance at
		// DeltaWriteBits−1 bits and keeps the exponent exact — constant
		// RELATIVE resolution of 2^−(DeltaWriteBits−1) across the device's
		// dynamic range, the same structure as quantizeG's per-decade grid.
		q, err := quant.New(cfg.DeltaWriteBits-1, 0.5, 1.0)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadConfig, err)
		}
		x.deltaQ = q
	}
	return x, nil
}

// deltaInvalid marks a cell with no epoch-compatible delta level on record:
// its next changed target is always physically written. Real levels are
// strictly positive (the exponent bias keeps the packed index above zero) and
// zero targets map to level 0, so the sentinel can never collide.
const deltaInvalid = int64(-1)

// deltaExpBias shifts binary exponents non-negative before packing them with
// the mantissa index; 1100 clears the float64 exponent range (≥ −1074).
const deltaExpBias = 1100

// deltaLevelOf bins a quantized conductance target onto the delta-programming
// level grid: the mantissa's quant index packed with the (biased) binary
// exponent. Zero (selector-gated) targets get a dedicated level so a cell can
// never skip a transition between conducting and gated-off.
//
//memlp:hotpath
func (x *Crossbar) deltaLevelOf(tq float64) int64 {
	if tq == 0 {
		return 0
	}
	frac, exp := math.Frexp(tq) // tq = frac·2^exp, frac ∈ [0.5, 1)
	return int64(exp+deltaExpBias)*int64(x.deltaQ.Levels()) + int64(x.deltaQ.Index(frac)) + 1
}

// invalidateDeltaLevels erases the delta-programming level cache, forcing the
// next changed target of every cell to issue a physical write.
func (x *Crossbar) invalidateDeltaLevels() {
	for k := range x.deltaLevel {
		x.deltaLevel[k] = deltaInvalid
	}
}

// SetDeltaProgramming enables or disables delta-programming for the workload
// that follows, without rebuilding the array or touching its configuration.
// The core solver turns delta off per solve for conic problems: the dense
// Nesterov–Todd scaling blocks couple cells structurally, so a per-cell stale
// conductance breaks the W² consistency the SOC residual relies on, while the
// scalar complementarity rows of an orthant LP tolerate it within the I/O
// precision. Disabling drops the level cache immediately; re-enabling takes
// effect at the next Program (which sizes and invalidates the cache).
// A no-op when the config disables delta-programming outright.
func (x *Crossbar) SetDeltaProgramming(on bool) {
	x.deltaOff = !on
	if !on {
		x.deltaLevel = nil
	}
}

// quantizeG models program-and-verify write precision: the verify loop
// achieves a RELATIVE conductance tolerance (±2^−WriteBits of the target),
// so targets are snapped to a per-decade mantissa grid rather than a single
// uniform grid across [gmin, gmax] — a uniform grid would destroy small
// coefficients sharing a row with large ones. Targets below the device's
// minimum conductance floor at gmin; above gmax they saturate.
//
//memlp:hotpath
func (x *Crossbar) quantizeG(g float64) float64 {
	if g <= memristor.GMin {
		return memristor.GMin
	}
	if g >= memristor.GMax {
		return memristor.GMax
	}
	step := math.Ldexp(1, -(x.cfg.WriteBits - 1))
	scale := math.Ldexp(1, ceilLog2(g)) * step
	return math.Round(g/scale) * scale
}

// ceilLog2 returns math.Ceil(math.Log2(v)) as an int for a finite v > 0,
// the same value, without the logarithm wherever the bits decide it. For a
// normal v with biased exponent e and mantissa m, math.Log2 returns e−1023
// exactly when m = 0, and otherwise L + (e−1022), where L, the log₂ of the
// Frexp fraction, lies in [−1, 0). When m ≥ 2³² the fraction is at least
// 0.5 + 2⁻²¹, so L > −1 + 10⁻⁶. Rounding a sum of magnitude at most 1024
// moves it by at most 2⁻⁴³, so it stays above e−1023 and its ceiling is
// e−1022. Mantissas closer to a power of two, and subnormals, take the
// library path.
//
//memlp:hotpath
func ceilLog2(v float64) int {
	b := math.Float64bits(v)
	e, m := int(b>>52&0x7ff), b&(1<<52-1)
	switch {
	case e == 0 || (m != 0 && m < 1<<32):
		return int(math.Ceil(math.Log2(v)))
	case m == 0:
		return e - 1023
	}
	return e - 1022
}

// pattern returns the zero/non-zero pattern of gt, rescanning gt first if a
// write flipped a cell since the last scan.
func (x *Crossbar) pattern() *linalg.Pattern {
	if !x.patValid {
		x.pat.Scan(x.gt)
		x.patValid = true
	}
	return &x.pat
}

// notePatternWrite marks the pattern stale when a write changes a cell's
// conductance between zero and non-zero.
func (x *Crossbar) notePatternWrite(old, g float64) {
	if (old == 0) != (g == 0) {
		x.patValid = false
	}
}

// Counters returns the cumulative operation counts.
func (x *Crossbar) Counters() Counters { return x.counters }

// Program writes matrix a (non-negative, at most Size×Size) into the array.
// Every cell of the mapped region holds its new target afterwards, but the
// cost in time grows with a's non-zeros, not its size: one pass reads a,
// the static variation draw fills every cell, and the rest walks only the
// cells a writes. The array's storage only grows, so a matrix no larger
// than one programmed before reallocates nothing.
//
//memlp:conductance-writer
func (x *Crossbar) Program(a *linalg.Matrix) error {
	rows, cols := a.Rows(), a.Cols()
	if rows > x.cfg.Size || cols > x.cfg.Size {
		return fmt.Errorf("%w: %dx%d into %d", ErrTooLarge, rows, cols, x.cfg.Size)
	}
	// One pass checks every value and marks each one with a bit set in the
	// live masks, −0 included, so its target is stored as −0 as a dense
	// walk would store it. ErrNegative wins over the non-finite error. A
	// rejected matrix leaves the array as it was; only the masks, which the
	// next refresh rebuilds, are dropped.
	x.liveValid = false
	live := x.clearLive(rows, cols)
	nnz := 0
	var nonFinite error
	for i := 0; i < rows; i++ {
		mask := live[i*x.liveWords : (i+1)*x.liveWords]
		for j, v := range a.RawRow(i) {
			if math.Float64bits(v) == 0 {
				continue
			}
			if err := checkCoefficient(v); err != nil {
				if errors.Is(err, ErrNegative) {
					return err
				}
				nonFinite = err
			}
			mask[j/64] |= 1 << (j % 64)
			nnz++
		}
	}
	if nonFinite != nil {
		return nonFinite
	}

	// The new matrix starts from a clear array: stale targets, variation
	// draws and non-zero cells must not survive into it, and a zero
	// progTarget makes every non-zero target a fresh write.
	if x.driftEnabled() && (x.cellCycle == nil || x.rows != rows || x.cols != cols) {
		// Drift clocks start afresh on a new shape only.
		x.cellCycle = x.cellCycle.Reshape(rows, cols)
	}
	x.rows, x.cols = rows, cols
	x.target = x.target.Reshape(rows, cols)
	x.gt = x.gt.Reshape(rows, cols)
	x.progTarget = x.progTarget.Reshape(rows, cols)
	x.rowScale = linalg.Resize(x.rowScale, rows)
	if x.deltaQ != nil && !x.deltaOff {
		x.deltaLevel = linalg.Resize(x.deltaLevel, rows*cols)
		// A (re-)Program is a fresh array: no prior level is epoch-compatible.
		x.invalidateDeltaLevels()
	} else {
		// Disabled (by config or per-workload): a nil cache turns every delta
		// check in the write path off.
		x.deltaLevel = nil
	}
	// Draw each device's static variation factor once per Program, one draw
	// per cell in row-major order, the order that fixes every conductance:
	// geometry variation persists across rewrites of the same cell, while a
	// full re-Program models a fresh array (Algorithm 2's double-checking
	// relies on independent variation draws between attempts).
	if x.cfg.Variation != nil {
		x.deviceFactor = x.deviceFactor.Reshape(rows, cols)
		for i := 0; i < rows; i++ {
			x.cfg.Variation.Fill(x.deviceFactor.RawRow(i))
		}
	}

	// Each row is programmed like a refresh of a cleared row. Every unmarked
	// cell keeps a +0 target and a +0 progTarget, where a dense walk would
	// leave a healthy cell as it is (refreshRow's argument). A stuck cell
	// must still be pinned, so with a fault model every unmarked cell is
	// visited too; without one, the pattern of gt is built from the cells
	// written to a non-zero conductance, in ascending order.
	healthy := x.cfg.Faults == nil
	if healthy {
		x.pat.Start(rows, nnz)
	}
	for i := 0; i < rows; i++ {
		row := linalg.Vector(a.RawRow(i))
		mask := live[i*x.liveWords : (i+1)*x.liveWords]
		var sum, maxElem float64
		for k, w := range mask {
			for ; w != 0; w &= w - 1 {
				v := row[k*64+bits.TrailingZeros64(w)]
				sum += v
				if v > maxElem {
					maxElem = v
				}
			}
		}
		scale := x.rowScaleFor(sum, maxElem)
		x.rowScale[i] = scale
		x.refreshRow(i, row, scale, mask)
		if !healthy {
			x.pinUnmarked(i, mask)
			continue
		}
		grow := x.gt.RawRow(i)
		for k, w := range mask {
			for ; w != 0; w &= w - 1 {
				if j := k*64 + bits.TrailingZeros64(w); grow[j] != 0 {
					x.pat.Add(j)
				}
			}
		}
		x.pat.EndRow(i)
	}
	x.liveValid = true
	x.patValid = healthy
	return nil
}

// rowScaleFor picks a row's digital scale from its coefficient sum and its
// largest coefficient, so that (a) the row sum of C_i = row/scaleᵢ stays
// ≤ ρ and (b) every mapped conductance g = v·gs/(scaleᵢ − rowsum) stays
// ≤ gmax.
func (x *Crossbar) rowScaleFor(sum, maxElem float64) float64 {
	if req := sum + maxElem*senseConductance/memristor.GMax; req > 0 {
		return req / maxRowSum
	}
	return 1
}

// pinUnmarked pins every stuck cell of row i outside mask, as a dense walk
// of the row would with its zero target. Pinning is order-independent (it
// draws no noise and, at a zero target over a zero progTarget, counts no
// write), so doing it after the marked cells leaves what the dense walk
// leaves.
func (x *Crossbar) pinUnmarked(i int, mask []uint64) {
	for j := 0; j < x.cols; j++ {
		if mask[j/64]&(1<<(j%64)) != 0 {
			continue
		}
		if k := x.faultAt(i, j); k != memristor.FaultNone {
			x.pinFaultCell(i, j, k, 0)
		}
	}
}

// programCell brings cell (i, j) to the quantized conductance target tq,
// issuing a physical write only where the program-and-verify cache and the
// delta-programming levels say one is needed.
func (x *Crossbar) programCell(i, j int, tq float64) {
	// Stuck devices are pinned regardless of the target; check the fault
	// map before the progTarget skip so pinning survives the gt reset a
	// re-Program performs.
	if k := x.faultAt(i, j); k != memristor.FaultNone {
		x.pinFaultCell(i, j, k, tq)
		return
	}
	// Program-and-verify skips cells whose quantized target is already
	// programmed: unchanged coefficients cost no write pulses. This is what
	// keeps the per-iteration refresh at O(N) — only the X/Y/Z/W cells (and
	// re-balanced neighbours) actually change. Both values lie on the
	// quantizeG grid, so bit-exact identity is the right test.
	if linalg.Identical(tq, x.progTarget.At(i, j)) {
		// The realized conductance is exactly this target's, so the cell's
		// delta level is the target's level. Recording it here — not just in
		// writeDevice — matters for pool determinism: after an epoch rebase
		// the first refresh of a row leaves the level of every non-zero
		// target a pure function of the refresh targets whether or not the
		// cell physically needed a write (which is shard-history-dependent).
		if x.deltaLevel != nil {
			x.deltaLevel[i*x.cols+j] = x.deltaLevelOf(tq)
		}
		return
	}
	// Delta-programming skips targets whose coarse level is unchanged since
	// the cell's last epoch-compatible write: the stale realized conductance
	// (its noise draw included) already sits within the I/O precision of the
	// new target. The skip decision is a pure function of digital targets,
	// so iterate trajectories stay deterministic.
	if x.deltaLevel != nil && x.deltaLevelOf(tq) == x.deltaLevel[i*x.cols+j] {
		x.counters.CellSkips++
		return
	}
	x.writeDevice(i, j, tq)
}

// liveCell reports whether a cell holding this target and progTarget must
// be visited by a refresh even where the incoming coefficient is +0. Any
// set bit keeps it live: a non-zero value, the NaN an epoch rebase leaves
// in progTarget, or a −0 target, which the refresh overwrites with +0 as a
// dense walk would.
func liveCell(target, progTarget float64) bool {
	return math.Float64bits(target)|math.Float64bits(progTarget) != 0
}

// liveRow returns row i's live-cell mask, first rebuilding every row's mask
// from target and progTarget if a rejected Program dropped them.
func (x *Crossbar) liveRow(i int) []uint64 {
	if !x.liveValid {
		x.clearLive(x.rows, x.cols)
		for r := 0; r < x.rows; r++ {
			mask := x.live[r*x.liveWords : (r+1)*x.liveWords]
			prow := x.progTarget.RawRow(r)
			for j, t := range x.target.RawRow(r) {
				if liveCell(t, prow[j]) {
					mask[j/64] |= 1 << (j % 64)
				}
			}
		}
		x.liveValid = true
	}
	return x.live[i*x.liveWords : (i+1)*x.liveWords]
}

// clearLive sizes the live masks for a rows×cols array, reusing their
// storage, and clears them.
func (x *Crossbar) clearLive(rows, cols int) []uint64 {
	x.liveWords = (cols + 63) / 64
	x.live = linalg.Resize(x.live, rows*x.liveWords)
	clear(x.live)
	return x.live
}

// refreshRow stores row i's new targets, row/scale, and programs them,
// visiting only the cells set in live, in ascending column order. Every
// other cell has a +0 target, a +0 progTarget and a +0 incoming
// coefficient, so the dense walk of writeRow would leave it as it is: its
// target stays +0, a healthy cell takes the progTarget skip, and a stuck
// cell is re-pinned to the conductance Program already pinned it to. The
// dense walk would also record such a cell's delta level as 0 where this
// one may leave deltaInvalid; no outcome can tell the two apart, because a
// level is compared only after the progTarget skip fails, which for a zero
// target needs a non-zero progTarget, and the level of a non-zero target is
// never 0. Skipped cells add only ±0 to the row sum, and visiting in
// ascending order keeps every sum, noise draw, counter and realized
// conductance bit-identical to the dense walk. Cells left with neither a
// target nor a progTarget bit set drop out of live.
//
//memlp:hotpath
func (x *Crossbar) refreshRow(i int, row linalg.Vector, scale float64, live []uint64) {
	trow := x.target.RawRow(i)
	var ri float64
	for k, w := range live {
		for ; w != 0; w &= w - 1 {
			j := k*64 + bits.TrailingZeros64(w)
			trow[j] = row[j] / scale
			ri += trow[j]
		}
	}
	// Exact mapping: g = C·gs/(1−R). Row sums ≤ ρ < 1 by construction.
	coef := senseConductance / (1 - ri)
	prow := x.progTarget.RawRow(i)
	for k, w := range live {
		for ; w != 0; w &= w - 1 {
			b := bits.TrailingZeros64(w)
			j := k*64 + b
			var tq float64
			if c := trow[j]; c > 0 {
				tq = x.quantizeG(c * coef)
			}
			x.programCell(i, j, tq)
			if !liveCell(trow[j], prow[j]) {
				live[k] &^= 1 << b
			}
		}
	}
}

// UpdateRow replaces row i of the programmed matrix with the given values
// (in user units) and physically rewrites that row's cells. The row's scale
// is re-balanced, so every valid row fits. Past one pass over the values,
// the cost grows with the row's non-zero and live cells, not its width.
func (x *Crossbar) UpdateRow(i int, row linalg.Vector) error {
	if x.target == nil {
		return ErrNotProgrammed
	}
	if i < 0 || i >= x.rows || len(row) != x.cols {
		return fmt.Errorf("%w: row %d len %d for %dx%d", linalg.ErrDimensionMismatch, i, len(row), x.rows, x.cols)
	}
	// One pass checks every value, gathers the sum and maximum that set the
	// row's scale, and marks every value with a bit set (−0 included, so its
	// target is stored as a dense walk would) for refreshRow to visit. A +0
	// passes every check and adds nothing, so only marked values are
	// checked. Marks left by a rejected row are harmless: a dead cell
	// visited is a no-op.
	live := x.liveRow(i)
	var sum, maxElem float64
	for j, v := range row {
		if math.Float64bits(v) == 0 {
			continue
		}
		if err := checkCoefficient(v); err != nil {
			return err
		}
		live[j/64] |= 1 << (j % 64)
		sum += v
		if v > maxElem {
			maxElem = v
		}
	}
	scale := x.rowScaleFor(sum, maxElem)
	x.rowScale[i] = scale
	x.refreshRow(i, row, scale, live)
	return nil
}

// UpdateCellInPlace rewrites a single device using the row's existing scale
// and mapping coefficient — one physical write. The row sums that bound and
// map the new target walk only the row's live cells, so the cost grows with
// the row's live cells, not its width. Unlike UpdateRow it does not
// re-balance the rest of the row, so the row's mapping drifts slightly from
// the exact C = a/rowScale relation; the drift is harmless because both
// MatVec and Solve operate on measured conductances (the Solve path
// re-calibrates with measured row sums). Use it for per-iteration refreshes
// of single coefficients inside otherwise-static dense rows.
func (x *Crossbar) UpdateCellInPlace(i, j int, value float64) error {
	if x.target == nil {
		return ErrNotProgrammed
	}
	if i < 0 || i >= x.rows || j < 0 || j >= x.cols {
		return fmt.Errorf("%w: cell (%d,%d) of %dx%d", linalg.ErrDimensionMismatch, i, j, x.rows, x.cols)
	}
	if err := checkCoefficient(value); err != nil {
		return err
	}
	// A value that no longer fits under the row's programmed scale (its
	// connection-matrix row sum would reach the headroom bound, or the cell
	// would need more than gmax) saturates at the row's representable
	// ceiling: the device simply cannot be programmed higher without
	// re-balancing the whole row, and a single-cell write must stay a
	// single write. Callers that need the exact large value re-balance via
	// UpdateRow instead.
	c := value / x.rowScale[i]
	oldTarget := x.target.At(i, j)
	rest := x.liveRowSum(i) - oldTarget
	if maxC := maxRowSum - rest; c > maxC {
		c = maxC
	}
	// Conductance ceiling: c·gs/(1−rest−c) ≤ gmax ⇔ c ≤ gmax(1−rest)/(gs+gmax).
	const gmax = memristor.GMax
	if maxC := gmax * (1 - rest) / (senseConductance + gmax); c > maxC {
		c = maxC
	}
	if c < 0 {
		c = 0
	}
	x.target.Set(i, j, c)
	// Only a target with a bit set can leave the cell live: a non-zero
	// progTarget after the write needs a non-zero target, and one that was
	// already non-zero was already marked. liveRowSum above built the masks.
	if math.Float64bits(c) != 0 {
		x.live[i*x.liveWords+j/64] |= 1 << (j % 64)
	}
	var tq float64
	if c > 0 {
		ri := x.liveRowSum(i)
		coef := senseConductance / (1 - ri)
		tq = x.quantizeG(c * coef)
	}
	x.programCell(i, j, tq)
	return nil
}

// liveRowSum returns the sum of row i's targets over its live cells, in
// ascending column order. Every other cell's target is +0, and a sum that
// starts at +0 never becomes −0, so it equals target.RowSum(i) bit for bit.
func (x *Crossbar) liveRowSum(i int) float64 {
	trow := x.target.RawRow(i)
	var s float64
	for k, w := range x.liveRow(i) {
		for ; w != 0; w &= w - 1 {
			s += trow[k*64+bits.TrailingZeros64(w)]
		}
	}
	return s
}

// effG returns the conductance of cell (i, j) as seen from the periphery,
// attenuated by the series word-line and bit-line wire resistance on its
// path (first-order IR-drop model: the cell current traverses j+1 word-line
// segments from the driver and i+1 bit-line segments to the sense amp).
//
//memlp:hotpath
func (x *Crossbar) effG(i, j int, g float64) float64 {
	if g == 0 {
		return 0
	}
	if x.cellCycle != nil && x.driftEnabled() {
		g *= x.driftFactor(i, j)
	}
	if x.cfg.WireResistance == 0 {
		return g
	}
	dist := float64(i + j + 2)
	return g / (1 + g*x.cfg.WireResistance*dist)
}

// senseRow integrates row i's cell currents for the analog input vi: the
// numerator of the row's dot product and the row's total effective
// conductance, both after per-cell IR-drop/drift attenuation. cols is the
// row's pattern: a gated-off cell adds an exact zero to both sums, so
// walking only the non-zero cells, in ascending order, reproduces the dense
// row sum bit for bit. This is the per-iteration inner kernel of every
// analog read (Algorithm 1/2 mat-vec and residual paths). With no wire
// resistance and no drift, effG returns every non-zero cell as it is, so
// the row runs a plain sparse dot product and row sum with the same terms
// in the same order.
//
//memlp:hotpath
func (x *Crossbar) senseRow(i int, cols []int32, vi linalg.Vector) (num, sum float64) {
	grow := x.gt.RawRow(i)
	if x.cfg.WireResistance == 0 && (x.cellCycle == nil || !x.driftEnabled()) {
		for _, j := range cols {
			g := grow[j]
			num += g * vi[j]
			sum += g
		}
		return num, sum
	}
	for _, j := range cols {
		ge := x.effG(i, int(j), grow[j])
		num += ge * vi[j]
		sum += ge
	}
	return num, sum
}

// MatVec performs the analog multiplication userMatrix · v, including DAC
// quantization of the inputs, the physical network transfer (with the
// actually-programmed, variation-perturbed conductances), and ADC
// quantization of the outputs. The digital per-row rescale is applied
// before returning. It is ToAnalog followed by MatVecAnalog. The result is
// crossbar-owned scratch storage, valid until the next MatVec or
// MatVecAnalog call on this array.
func (x *Crossbar) MatVec(v linalg.Vector) (linalg.Vector, error) {
	if err := x.checkMatVecInput(len(v)); err != nil {
		return nil, err
	}
	vi := scratchVec(&x.analogIn, len(v))
	inScale, err := x.ToAnalog(vi, v)
	if err != nil {
		return nil, err
	}
	return x.MatVecAnalog(vi, inScale)
}

// checkMatVecInput rejects a mat-vec on an unprogrammed array or with an
// input of the wrong length.
func (x *Crossbar) checkMatVecInput(n int) error {
	if x.target == nil {
		return ErrNotProgrammed
	}
	if n != x.cols {
		return fmt.Errorf("%w: matvec input %d for %dx%d", linalg.ErrDimensionMismatch, n, x.rows, x.cols)
	}
	return nil
}

// MatVecAnalog is MatVec on an input that ToAnalog has already converted:
// vi = Q(v/inScale). It charges this array what MatVec charges, the DAC
// conversions of vi included, and returns MatVec(v)'s bits. A controller
// that broadcasts one input segment to many arrays of one converter
// configuration converts it once and hands the same vi to each. The result
// is crossbar-owned scratch storage, valid until the next MatVec or
// MatVecAnalog call on this array.
func (x *Crossbar) MatVecAnalog(vi linalg.Vector, inScale float64) (linalg.Vector, error) {
	if err := x.checkMatVecInput(len(vi)); err != nil {
		return nil, err
	}
	x.counters.IOConversions += int64(len(vi))
	const gs = senseConductance
	p := x.pattern()
	vo := scratchVec(&x.mvOut, x.rows)
	for i := 0; i < x.rows; i++ {
		num, s := x.senseRow(i, p.Row(i), vi)
		vo[i] = num / (gs + s)
	}
	if err := x.fromAnalog(vo); err != nil {
		return nil, err
	}
	x.counters.MatVecOps++
	// The analog result is VO = C·(v/inScale); the user result is
	// userRowᵢ·v = rowScaleᵢ·Cᵢ·v = rowScaleᵢ·inScale·VOᵢ (per-row ADC gain).
	for i := range vo {
		vo[i] *= x.rowScale[i] * inScale
	}
	return vo, nil
}

// MatVecResidual computes r = base − factor ∘ (userMatrix·v) with the
// subtraction performed in the analog domain by summing amplifiers (§3.2:
// "the subtraction could be implemented using summing amplifiers"), so only
// the small residual — not the large product — passes through the ADC. The
// base vector is a calibrated static reference (exact); factor is an
// optional per-row analog divider (the divide-by-2 of Eq. 15); nil means
// all ones. Inputs are digitized per-element (stable power-of-two grids, no
// per-call renormalization), which keeps the iteration noise deterministic.
// The result is crossbar-owned scratch storage, valid until the next
// MatVecResidual call on this array.
func (x *Crossbar) MatVecResidual(base, v, factor linalg.Vector) (linalg.Vector, error) {
	if x.target == nil {
		return nil, ErrNotProgrammed
	}
	if len(v) != x.cols {
		return nil, fmt.Errorf("%w: input %d for %dx%d", linalg.ErrDimensionMismatch, len(v), x.rows, x.cols)
	}
	if len(base) != x.rows {
		return nil, fmt.Errorf("%w: base %d for %d rows", linalg.ErrDimensionMismatch, len(base), x.rows)
	}
	if factor != nil && len(factor) != x.rows {
		return nil, fmt.Errorf("%w: factor %d for %d rows", linalg.ErrDimensionMismatch, len(factor), x.rows)
	}
	vi := scratchVec(&x.resVI, len(v))
	copy(vi, v)
	if err := x.QuantizeIO(vi); err != nil {
		return nil, err
	}
	x.counters.IOConversions += int64(len(vi))
	const gs = senseConductance
	p := x.pattern()
	out := scratchVec(&x.resOut, x.rows)
	for i := 0; i < x.rows; i++ {
		num, srow := x.senseRow(i, p.Row(i), vi)
		t := x.rowScale[i] * num / (gs + srow)
		if factor != nil {
			t *= factor[i]
		}
		out[i] = base[i] - t
	}
	if err := x.QuantizeIO(out); err != nil {
		return nil, err
	}
	x.counters.IOConversions += int64(len(out))
	x.counters.MatVecOps++
	return out, nil
}

// Solve performs the analog linear solve userMatrix · x = b by forcing
// bitline voltages and reading the settled wordline voltages. The programmed
// matrix must be square. The simulation solves the physical network equation
// Gᵀ·VI = gs·VO with the actually-programmed conductances; an (analog)
// failure to settle — a singular conductance network — is reported as
// ErrSingular. The result is crossbar-owned scratch storage, valid until the
// next Solve call on this array.
func (x *Crossbar) Solve(b linalg.Vector) (linalg.Vector, error) {
	if x.target == nil {
		return nil, ErrNotProgrammed
	}
	if x.rows != x.cols {
		return nil, fmt.Errorf("%w: solve on %dx%d array", linalg.ErrNotSquare, x.rows, x.cols)
	}
	if len(b) != x.rows {
		return nil, fmt.Errorf("%w: rhs %d for %dx%d", linalg.ErrDimensionMismatch, len(b), x.rows, x.cols)
	}
	// Digital pre-compensation with post-program row calibration: the
	// network solves Gᵀ·VI = gs·VO, so forcing
	// VOᵢ = bᵢ·(gs+S'ᵢ)/(gs·rowScaleᵢ) — where S'ᵢ is the row's MEASURED
	// total conductance (one analog read with unit inputs after
	// programming, IR drop included) — makes the solve see exactly the same
	// effective matrix as the multiply direction,
	// F₍ᵢ,ⱼ₎ = rowScaleᵢ·g'₍ᵢ,ⱼ₎/(gs+S'ᵢ). Without calibration, the O(var)
	// mismatch between ideal and realized row sums leaks a fraction of
	// every Newton step into the primal residual (DESIGN.md §D3).
	const gs = senseConductance
	// The attenuated network has gt's zeros (effG(0) = 0), so gt's pattern
	// covers it as well. The row sums below and SolvePattern read only the
	// pattern's entries of the network, so only those are filled; the rest
	// of solveNet may hold a previous pattern's values.
	p := x.pattern()
	net := x.gt
	if x.cfg.WireResistance > 0 || x.driftEnabled() {
		if x.solveNet == nil || x.solveNet.Rows() != x.rows || x.solveNet.Cols() != x.cols {
			x.solveNet = linalg.NewMatrix(x.rows, x.cols)
		}
		net = x.solveNet
		for i := 0; i < x.rows; i++ {
			grow, nrow := x.gt.RawRow(i), net.RawRow(i)
			for _, j := range p.Row(i) {
				nrow[j] = x.effG(i, int(j), grow[j])
			}
		}
	}
	vo := scratchVec(&x.solveVO, len(b))
	for i := range b {
		var srow float64
		nrow := net.RawRow(i)
		for _, j := range p.Row(i) {
			srow += nrow[j]
		}
		vo[i] = b[i] * (gs + srow) / (gs * x.rowScale[i])
	}
	voq := scratchVec(&x.analogIn, len(vo))
	inScale, err := x.ToAnalog(voq, vo)
	if err != nil {
		return nil, err
	}
	x.counters.IOConversions += int64(len(vo))
	for i := range voq {
		voq[i] *= gs
	}
	// The structured solve computes the same settle point as a dense solve
	// but walks only the programmed network's pattern; the analog hardware
	// cost model is unaffected (one settle either way).
	vi, err := x.solveWS.SolvePattern(net, p, voq)
	if err != nil {
		if errors.Is(err, linalg.ErrSingular) {
			return nil, fmt.Errorf("%w: %v", ErrSingular, err)
		}
		return nil, err
	}
	if err := x.fromAnalog(vi); err != nil {
		return nil, err
	}
	x.counters.SolveOps++
	if x.driftEnabled() {
		// One analog settle = one refresh cycle for the retention model:
		// cells not rewritten since their last program keep decaying.
		x.driftCycle++
	}
	// The network solved Gᵀ·VI = gs·(vo/inScale), so the true wordline
	// voltages are inScale·VI.
	for i := range vi {
		vi[i] *= inScale
	}
	return vi, nil
}

// EffectiveMatrix reconstructs, in user units, the matrix the array actually
// realizes after write quantization and process variation:
// A' = scale · C' with C'₍ᵢ,ⱼ₎ = g'₍ᵢ,ⱼ₎/(gs + S'ᵢ). With the post-program
// row-sum calibration used by Solve, the analog solve direction realizes the
// same matrix, so the NoC layer uses this to simulate a composed
// (multi-tile) analog solve.
func (x *Crossbar) EffectiveMatrix() (*linalg.Matrix, error) {
	if x.target == nil {
		return nil, ErrNotProgrammed
	}
	const gs = senseConductance
	out := linalg.NewMatrix(x.rows, x.cols)
	for i := 0; i < x.rows; i++ {
		grow := x.gt.RawRow(i)
		var s float64
		for j, g := range grow {
			s += x.effG(i, j, g)
		}
		coef := x.rowScale[i] / (gs + s)
		orow := out.RawRow(i)
		for j, g := range grow {
			orow[j] = x.effG(i, j, g) * coef
		}
	}
	return out, nil
}

// ToAnalog is the DAC step of MatVec and Solve: it normalizes v to the
// full-scale range [-1, 1], quantizes it into dst, which must hold len(v)
// elements, and returns the normalization factor inScale, so that
// dst = Q(v/inScale). It counts nothing; the analog operation that reads
// dst charges the conversions. The result depends on v and the converter
// configuration (IOBits, GlobalIORange) alone.
func (x *Crossbar) ToAnalog(dst, v linalg.Vector) (float64, error) {
	inScale := v.NormInf()
	if inScale == 0 {
		inScale = 1
	}
	dst = dst[:len(v)]
	for i, e := range v {
		dst[i] = e / inScale
	}
	if err := x.QuantizeIO(dst); err != nil {
		return 0, err
	}
	return inScale, nil
}

// fromAnalog models the ADC stage on the analog result vector v,
// digitizing it in place.
func (x *Crossbar) fromAnalog(v linalg.Vector) error {
	x.counters.IOConversions += int64(len(v))
	return x.QuantizeIO(v)
}

// QuantizeIO applies the array's DAC/ADC converter model to v in place:
// per-element programmable-gain (each element keeps IOBits of its own
// magnitude) or, with GlobalIORange, one shared full-scale range across the
// vector. A finite element stays finite, and NaN and ±Inf pass unchanged.
// It does not count conversions; the analog operations that call it do.
func (x *Crossbar) QuantizeIO(v linalg.Vector) error {
	if x.cfg.GlobalIORange {
		amp := v.NormInf()
		if amp == 0 || math.IsNaN(amp) || math.IsInf(amp, 0) {
			return nil
		}
		q, err := quant.SymmetricAroundZero(x.cfg.IOBits, amp)
		if err != nil {
			return err
		}
		q.QuantizeVector(v)
		return nil
	}
	// Per-element PGA: quantize each element against its own power-of-two
	// full scale, which keeps a constant relative resolution.
	//
	// Where ceilLog2 reads the exponent from the bits, pgaRound keeps the
	// leading IOBits−1 bits of the significand, rounded half away from
	// zero. For a normal e = ±1.f·2^E with f ≥ 2⁻²⁰ its step is
	// 2^(E+2−IOBits), the weight of fraction bit drop = 54−IOBits, so adding
	// half that weight to e's bits and clearing the bits below it rounds the
	// magnitude, a carry into the exponent included, without a division.
	// Below 2^1023 no carry reaches the infinities. A zero, an infinity or an
	// exact power of two (mantissa 0) passes unchanged, as in pgaRound.
	// IOBits = 1, which keeps no significand bit, subnormals, the top
	// binade, NaN and the near-power-of-two mantissas that ceilLog2 sends to
	// math.Log2 take pgaRound itself.
	bits := x.cfg.IOBits
	drop := uint(54 - bits)
	half := uint64(1) << (drop - 1)
	for i, e := range v {
		b := math.Float64bits(e)
		exp, m := b>>52&0x7ff, b&(1<<52-1)
		if bits > 1 && (m == 0 || (m >= 1<<32 && exp-1 < 0x7fd)) {
			v[i] = math.Float64frombits((b + half) >> drop << drop)
			continue
		}
		v[i] = pgaRound(e, bits)
	}
	return nil
}

// pgaRound is the per-element converter's formula: e rounded, half away
// from zero, to a multiple of its step 2^(⌈log₂|e|⌉−(bits−1)). A finite e
// stays finite. A step below the smallest subnormal leaves e as it is: e
// has fewer than bits−1 significant bits and already sits on the grid. A
// round-up past the largest finite float clamps to ±math.MaxFloat64. NaN
// and ±Inf pass unchanged.
//
//memlp:hotpath
func pgaRound(e float64, bits int) float64 {
	if e == 0 || math.IsNaN(e) || math.IsInf(e, 0) {
		return e
	}
	step := math.Ldexp(1, ceilLog2(math.Abs(e))-(bits-1))
	if step == 0 {
		return e
	}
	// Only one bit at |e| > 2^1023 makes the step itself overflow; it
	// rounds up to 2^1024 as every other round-up past the largest float.
	q := math.Round(e/step) * step
	if math.IsInf(step, 0) || math.IsInf(q, 0) {
		return math.Copysign(math.MaxFloat64, e)
	}
	return q
}
