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

// Config parameterizes a crossbar array.
type Config struct {
	// Size is the physical array dimension (Size×Size devices).
	// Zero means 4096.
	Size int
	// Device holds the memristor technology parameters.
	// The zero value means memristor.DefaultParams().
	Device memristor.DeviceParams
	// SenseConductance is gs in siemens. Zero means 100·GMax, which keeps
	// the bitline sense node stiff relative to the array.
	SenseConductance float64
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
	// MaxRowSum is the mapping headroom ρ: the programmed connection matrix
	// keeps every row sum ≤ ρ < 1. Zero means 0.5, leaving headroom for
	// in-place coefficient updates that grow a row.
	MaxRowSum float64
	// WireResistance is the metal line resistance per crossbar segment in
	// ohms (IR drop). Each cell's conductance is attenuated by the series
	// word-line and bit-line wire on its current path:
	// g_eff = g / (1 + g·Rw·(dist_wl + dist_bl)). Zero disables the effect
	// (the paper's idealization); the AB7 ablation sweeps it.
	WireResistance float64
	// Faults models permanent device defects (stuck-at-ON/OFF cells, extra
	// programming noise, retention drift); nil disables faults. Placement is
	// deterministic per the model's seed over PHYSICAL coordinates, so
	// remapping the programmed region moves it relative to the defects.
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
	if c.Device == (memristor.DeviceParams{}) {
		c.Device = memristor.DefaultParams()
	}
	if c.SenseConductance == 0 {
		c.SenseConductance = 100 * c.Device.GMax()
	}
	if c.IOBits == 0 {
		c.IOBits = 8
	}
	if c.WriteBits == 0 {
		c.WriteBits = 14
	}
	if c.MaxRowSum == 0 {
		c.MaxRowSum = 0.5
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
	if err := c.Device.Validate(); err != nil {
		return fmt.Errorf("%w: %v", ErrBadConfig, err)
	}
	if !(c.SenseConductance > 0) {
		return fmt.Errorf("%w: sense conductance %v", ErrBadConfig, c.SenseConductance)
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
	if !(c.MaxRowSum > 0 && c.MaxRowSum < 1) {
		return fmt.Errorf("%w: max row sum %v", ErrBadConfig, c.MaxRowSum)
	}
	if c.CycleNoise < 0 || c.CycleNoise > 1 {
		return fmt.Errorf("%w: cycle noise %v outside [0,1]", ErrBadConfig, c.CycleNoise)
	}
	if c.WireResistance < 0 {
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
	if c.WriteVerifyTol < 0 || c.WriteVerifyTol >= 1 {
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
	// rowOff/colOff place the logical matrix inside the physical array.
	// Nonzero after RemapAvoidingFaults moved the mapping off defective rows;
	// fault placement is keyed to PHYSICAL coordinates, so the offset decides
	// which defects the mapped region inherits.
	rowOff, colOff int
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
	// a cell, Program, and RemapAvoidingFaults.
	pat      linalg.Pattern
	patValid bool

	counters Counters

	// Per-method scratch buffers so steady-state operation allocates
	// nothing: result vectors are crossbar-owned storage, valid until the
	// next call of the SAME method on this array. Buffers are never shared
	// across methods: MatVecResidual's result is routinely fed straight into
	// Solve, so the two must not overwrite each other's storage.
	analogIn linalg.Vector              // toAnalog normalized input
	mvVO     linalg.Vector              // MatVec analog outputs
	mvOut    linalg.Vector              // MatVec returned result
	resVI    linalg.Vector              // MatVecResidual quantized input
	resOut   linalg.Vector              // MatVecResidual returned result
	solveNet *linalg.Matrix             // Solve IR-drop-adjusted network view
	solveVO  linalg.Vector              // Solve forced bitline voltages
	solveOut linalg.Vector              // Solve returned result
	solveWS  linalg.StructuredWorkspace // Solve network settle scratch
}

// scratchVec returns *buf resized to n, allocating only on growth.
func scratchVec(buf *linalg.Vector, n int) linalg.Vector {
	if cap(*buf) < n {
		*buf = make(linalg.Vector, n)
	}
	*buf = (*buf)[:n]
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
// effect at the next Program (which allocates and invalidates the cache).
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
	gmin, gmax := x.cfg.Device.GMin(), x.cfg.Device.GMax()
	if g <= gmin {
		return gmin
	}
	if g >= gmax {
		return gmax
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

// Config returns the (defaulted) configuration.
func (x *Crossbar) Config() Config { return x.cfg }

// Size returns the physical array dimension.
func (x *Crossbar) Size() int { return x.cfg.Size }

// Counters returns the cumulative operation counts.
func (x *Crossbar) Counters() Counters { return x.counters }

// Scale returns the largest per-row digital scaling factor chosen at Program
// time: userRow_i = RowScale(i) · C_i where C is the programmed connection
// matrix.
func (x *Crossbar) Scale() float64 {
	var mx float64
	for _, s := range x.rowScale {
		if s > mx {
			mx = s
		}
	}
	return mx
}

// RowScale returns row i's digital gain.
func (x *Crossbar) RowScale(i int) float64 { return x.rowScale[i] }

// Programmed reports whether the array currently holds a matrix.
func (x *Crossbar) Programmed() bool { return x.target != nil }

// Program writes matrix a (non-negative, at most Size×Size) into the array.
// Every cell of the mapped region is physically written: the call costs
// rows·cols cell writes.
//
//memlp:conductance-writer
func (x *Crossbar) Program(a *linalg.Matrix) error {
	if a.Rows()+x.rowOff > x.cfg.Size || a.Cols()+x.colOff > x.cfg.Size {
		return fmt.Errorf("%w: %dx%d at offset (%d,%d) into %d", ErrTooLarge, a.Rows(), a.Cols(), x.rowOff, x.colOff, x.cfg.Size)
	}
	if !a.AllNonNegative() {
		return ErrNegative
	}
	if !a.AllFinite() {
		return errNonFinite
	}

	sameShape := x.target != nil && x.rows == a.Rows() && x.cols == a.Cols()
	x.rows, x.cols = a.Rows(), a.Cols()
	x.patValid = false
	if sameShape {
		// Reuse the mapping buffers, but clear both the realized
		// conductances and the program-and-verify cache: stale gt entries
		// (old variation draws, old non-zero cells) must not survive into
		// the new matrix, and a zeroed progTarget makes writeRow treat every
		// non-zero target as a fresh write, exactly as on first Program.
		x.gt.Zero()
		x.progTarget.Zero()
	} else {
		x.rowScale = make([]float64, x.rows)
		x.target = linalg.NewMatrix(x.rows, x.cols)
		x.gt = linalg.NewMatrix(x.rows, x.cols)
		x.progTarget = linalg.NewMatrix(x.rows, x.cols)
		x.deviceFactor = nil
		if x.cfg.Variation != nil {
			x.deviceFactor = linalg.NewMatrix(x.rows, x.cols)
		}
		x.cellCycle = nil
	}
	if x.driftEnabled() && x.cellCycle == nil {
		x.cellCycle = linalg.NewMatrix(x.rows, x.cols)
	}
	if x.deltaQ != nil && !x.deltaOff {
		if len(x.deltaLevel) != x.rows*x.cols {
			x.deltaLevel = make([]int64, x.rows*x.cols)
		}
		// A (re-)Program is a fresh array: no prior level is epoch-compatible.
		x.invalidateDeltaLevels()
	} else {
		// Disabled (by config or per-workload): a nil cache turns every delta
		// check in the write path off.
		x.deltaLevel = nil
	}
	// Draw each device's static variation factor once per Program: geometry
	// variation persists across rewrites of the same cell, while a full
	// re-Program models a fresh array (Algorithm 2's double-checking relies
	// on independent variation draws between attempts).
	if x.deviceFactor != nil {
		for i := 0; i < x.rows; i++ {
			for j := 0; j < x.cols; j++ {
				x.deviceFactor.Set(i, j, x.cfg.Variation.Factor())
			}
		}
	}
	for i := 0; i < x.rows; i++ {
		x.setTargetRow(i, linalg.Vector(a.RawRow(i)))
		x.writeRow(i)
	}
	return nil
}

// setTargetRow picks row i's digital scale so that (a) the row sum of
// C_i = row/scaleᵢ stays ≤ ρ and (b) every mapped conductance
// g = v·gs/(scaleᵢ − rowsum) stays ≤ gmax, then stores the scaled targets.
func (x *Crossbar) setTargetRow(i int, row linalg.Vector) {
	var sum, maxElem float64
	for _, v := range row {
		sum += v
		if v > maxElem {
			maxElem = v
		}
	}
	scale := 1.0
	if req := sum + maxElem*x.cfg.SenseConductance/x.cfg.Device.GMax(); req > 0 {
		scale = req / x.cfg.MaxRowSum
	}
	x.rowScale[i] = scale
	for j, v := range row {
		x.target.Set(i, j, v/scale)
	}
}

// writeRow physically programs every cell of row i from the target matrix,
// drawing fresh variation and applying write quantization. Zero targets map
// to selector-gated zero-conductance cells.
func (x *Crossbar) writeRow(i int) {
	gs := x.cfg.SenseConductance
	ri := x.target.RowSum(i)
	// Exact mapping: g = C·gs/(1−R). Row sums ≤ ρ < 1 by construction.
	coef := gs / (1 - ri)
	for j := 0; j < x.cols; j++ {
		c := x.target.At(i, j)
		var tq float64
		if c > 0 {
			tq = x.quantizeG(c * coef)
		}
		// Stuck devices are pinned regardless of the target; check the fault
		// map before the progTarget skip so pinning survives the gt reset a
		// re-Program performs.
		if k := x.faultAt(i, j); k != memristor.FaultNone {
			x.pinFaultCell(i, j, k, tq)
			continue
		}
		// Program-and-verify skips cells whose quantized target is already
		// programmed: unchanged coefficients cost no write pulses. This is
		// what keeps the per-iteration refresh at O(N) — only the X/Y/Z/W
		// cells (and re-balanced neighbours) actually change. Both values
		// lie on the quantizeG grid, so bit-exact identity is the right test.
		if linalg.Identical(tq, x.progTarget.At(i, j)) {
			// The realized conductance is exactly this target's, so the cell's
			// delta level is the target's level. Recording it here — not just
			// in writeDevice — matters for pool determinism: after an epoch
			// rebase the first row refresh leaves the level cache a pure
			// function of the refresh targets whether or not each cell
			// physically needed a write (which is shard-history-dependent).
			if x.deltaLevel != nil {
				x.deltaLevel[i*x.cols+j] = x.deltaLevelOf(tq)
			}
			continue
		}
		// Delta-programming skips targets whose coarse level is unchanged
		// since the cell's last epoch-compatible write: the stale realized
		// conductance (its noise draw included) already sits within the I/O
		// precision of the new target. The skip decision is a pure function
		// of digital targets, so iterate trajectories stay deterministic.
		if x.deltaLevel != nil && x.deltaLevelOf(tq) == x.deltaLevel[i*x.cols+j] {
			x.counters.CellSkips++
			continue
		}
		x.writeDevice(i, j, tq)
	}
}

// UpdateRow replaces row i of the programmed matrix with the given values
// (in user units) and physically rewrites that row's cells. It returns
// ErrTooLarge if the new row sum no longer fits under the headroom scale; the
// caller should then re-Program the full matrix.
func (x *Crossbar) UpdateRow(i int, row linalg.Vector) error {
	if x.target == nil {
		return ErrNotProgrammed
	}
	if i < 0 || i >= x.rows || len(row) != x.cols {
		return fmt.Errorf("%w: row %d len %d for %dx%d", linalg.ErrDimensionMismatch, i, len(row), x.rows, x.cols)
	}
	for _, v := range row {
		if err := checkCoefficient(v); err != nil {
			return err
		}
	}
	x.setTargetRow(i, row)
	x.writeRow(i)
	return nil
}

// UpdateCell changes one coefficient (user units) and rewrites the affected
// row. Because the exact mapping couples a row's cells through its row sum,
// the full row is rewritten; for the sparse solver rows this is 2–3 cells'
// worth of real writes, and the counter reflects every physical write.
func (x *Crossbar) UpdateCell(i, j int, value float64) error {
	if x.target == nil {
		return ErrNotProgrammed
	}
	if i < 0 || i >= x.rows || j < 0 || j >= x.cols {
		return fmt.Errorf("%w: cell (%d,%d) of %dx%d", linalg.ErrDimensionMismatch, i, j, x.rows, x.cols)
	}
	if err := checkCoefficient(value); err != nil {
		return err
	}
	row := x.target.Row(i).Scale(x.rowScale[i])
	row[j] = value
	return x.UpdateRow(i, row)
}

// UpdateCellInPlace rewrites a single device using the row's existing scale
// and mapping coefficient — one physical write, O(1). Unlike UpdateCell it
// does not re-balance the rest of the row, so the row's mapping drifts
// slightly from the exact C = a/rowScale relation; the drift is harmless
// because both MatVec and Solve operate on measured conductances (the Solve
// path re-calibrates with measured row sums). Use it for per-iteration
// refreshes of single coefficients inside otherwise-static dense rows.
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
	rest := x.target.RowSum(i) - oldTarget
	if maxC := x.cfg.MaxRowSum - rest; c > maxC {
		c = maxC
	}
	// Conductance ceiling: c·gs/(1−rest−c) ≤ gmax ⇔ c ≤ gmax(1−rest)/(gs+gmax).
	gmax := x.cfg.Device.GMax()
	if maxC := gmax * (1 - rest) / (x.cfg.SenseConductance + gmax); c > maxC {
		c = maxC
	}
	if c < 0 {
		c = 0
	}
	x.target.Set(i, j, c)
	var tq float64
	if c > 0 {
		ri := x.target.RowSum(i)
		coef := x.cfg.SenseConductance / (1 - ri)
		tq = x.quantizeG(c * coef)
	}
	if k := x.faultAt(i, j); k != memristor.FaultNone {
		x.pinFaultCell(i, j, k, tq)
		return nil
	}
	if linalg.Identical(tq, x.progTarget.At(i, j)) {
		if x.deltaLevel != nil {
			x.deltaLevel[i*x.cols+j] = x.deltaLevelOf(tq)
		}
		return nil
	}
	if x.deltaLevel != nil && x.deltaLevelOf(tq) == x.deltaLevel[i*x.cols+j] {
		x.counters.CellSkips++
		return nil
	}
	x.writeDevice(i, j, tq)
	return nil
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
// analog read (Algorithm 1/2 mat-vec and residual paths).
//
//memlp:hotpath
func (x *Crossbar) senseRow(i int, cols []int32, vi linalg.Vector) (num, sum float64) {
	grow := x.gt.RawRow(i)
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
// quantization of the outputs. The digital rescale by Scale() is applied
// before returning. The result is crossbar-owned scratch storage, valid
// until the next MatVec call on this array.
func (x *Crossbar) MatVec(v linalg.Vector) (linalg.Vector, error) {
	if x.target == nil {
		return nil, ErrNotProgrammed
	}
	if len(v) != x.cols {
		return nil, fmt.Errorf("%w: matvec input %d for %dx%d", linalg.ErrDimensionMismatch, len(v), x.rows, x.cols)
	}
	vi, inScale, err := x.toAnalog(v)
	if err != nil {
		return nil, err
	}
	gs := x.cfg.SenseConductance
	p := x.pattern()
	vo := scratchVec(&x.mvVO, x.rows)
	for i := 0; i < x.rows; i++ {
		num, s := x.senseRow(i, p.Row(i), vi)
		vo[i] = num / (gs + s)
	}
	out, err := x.fromAnalog(vo, &x.mvOut)
	if err != nil {
		return nil, err
	}
	x.counters.MatVecOps++
	// The analog result is VO = C·(v/inScale); the user result is
	// userRowᵢ·v = rowScaleᵢ·Cᵢ·v = rowScaleᵢ·inScale·VOᵢ (per-row ADC gain).
	for i := range out {
		out[i] *= x.rowScale[i] * inScale
	}
	return out, nil
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
	if err := x.quantizeIO(vi); err != nil {
		return nil, err
	}
	x.counters.IOConversions += int64(len(vi))
	gs := x.cfg.SenseConductance
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
	if err := x.quantizeIO(out); err != nil {
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
	gs := x.cfg.SenseConductance
	// The attenuated network has gt's zeros (effG(0) = 0), so gt's pattern
	// covers it as well.
	p := x.pattern()
	net := x.gt
	if x.cfg.WireResistance > 0 || x.driftEnabled() {
		if x.solveNet == nil || x.solveNet.Rows() != x.rows || x.solveNet.Cols() != x.cols {
			x.solveNet = linalg.NewMatrix(x.rows, x.cols)
		}
		net = x.solveNet
		for i := 0; i < x.rows; i++ {
			grow := x.gt.RawRow(i)
			nrow := net.RawRow(i)
			for j, g := range grow {
				nrow[j] = x.effG(i, j, g)
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
	voq, inScale, err := x.toAnalog(vo)
	if err != nil {
		return nil, err
	}
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
	out, err := x.fromAnalog(vi, &x.solveOut)
	if err != nil {
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
	for i := range out {
		out[i] *= inScale
	}
	return out, nil
}

// EffectiveMatrix reconstructs, in user units, the matrix the array actually
// realizes after write quantization and process variation:
// A' = scale · C' with C'₍ᵢ,ⱼ₎ = g'₍ᵢ,ⱼ₎/(gs + S'ᵢ). The NoC layer uses this
// to simulate a composed (multi-tile) analog solve.
func (x *Crossbar) EffectiveMatrix() (*linalg.Matrix, error) {
	if x.target == nil {
		return nil, ErrNotProgrammed
	}
	gs := x.cfg.SenseConductance
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

// SolveEffectiveMatrix reconstructs, in user units, the matrix whose linear
// system the array actually solves in the analog solve direction. With the
// post-program row-sum calibration used by Solve, this equals
// EffectiveMatrix: both directions see F₍ᵢ,ⱼ₎ = rowScaleᵢ·g'₍ᵢ,ⱼ₎/(gs+S'ᵢ).
func (x *Crossbar) SolveEffectiveMatrix() (*linalg.Matrix, error) {
	return x.EffectiveMatrix()
}

// toAnalog normalizes v to the DAC full-scale range [-1, 1], quantizes it,
// and returns the quantized vector together with the normalization factor
// (result = v/inScale before quantization).
// The returned vector is scratch storage owned by the crossbar, overwritten
// by the next toAnalog call.
func (x *Crossbar) toAnalog(v linalg.Vector) (linalg.Vector, float64, error) {
	inScale := v.NormInf()
	if inScale == 0 {
		inScale = 1
	}
	out := scratchVec(&x.analogIn, len(v))
	for i, e := range v {
		out[i] = e / inScale
	}
	if err := x.quantizeIO(out); err != nil {
		return nil, 0, err
	}
	x.counters.IOConversions += int64(len(v))
	return out, inScale, nil
}

// fromAnalog models the ADC stage on the analog result vector, writing the
// digitized copy into the given caller-owned scratch buffer.
func (x *Crossbar) fromAnalog(v linalg.Vector, scratch *linalg.Vector) (linalg.Vector, error) {
	x.counters.IOConversions += int64(len(v))
	out := scratchVec(scratch, len(v))
	copy(out, v)
	if err := x.quantizeIO(out); err != nil {
		return nil, err
	}
	return out, nil
}

// quantizeIO applies the configured converter model in place: per-element
// programmable-gain (each element keeps IOBits of its own magnitude) or a
// single shared full-scale range across the vector.
func (x *Crossbar) quantizeIO(v linalg.Vector) error {
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
	step := math.Ldexp(1, -(x.cfg.IOBits - 1))
	for i, e := range v {
		if e == 0 || math.IsNaN(e) || math.IsInf(e, 0) {
			continue
		}
		scale := math.Ldexp(1, ceilLog2(math.Abs(e))) * step
		v[i] = math.Round(e/scale) * scale
	}
	return nil
}
