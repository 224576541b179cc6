package crossbar

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"github.com/memlp/memlp/internal/linalg"
	"github.com/memlp/memlp/internal/memristor"
	"github.com/memlp/memlp/internal/variation"
)

// randomSparseNonNegMatrix returns an n×n non-negative matrix whose
// off-diagonal entries are non-zero with the given probability, plus a
// dominant diagonal so the analog settle stays well-posed.
func randomSparseNonNegMatrix(r *rand.Rand, n int, density float64) *linalg.Matrix {
	m := linalg.NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if r.Float64() < density {
				m.Set(i, j, r.Float64()*4)
			}
		}
		m.Set(i, i, m.At(i, i)+8)
	}
	return m
}

// denseSenseRow is the reference sense kernel: every cell of row i, gated-off
// cells included, in column order.
func denseSenseRow(x *Crossbar, i int, vi linalg.Vector) (num, sum float64) {
	for j, g := range x.gt.RawRow(i) {
		ge := x.effG(i, j, g)
		num += ge * vi[j]
		sum += ge
	}
	return num, sum
}

// denseMatVec recomputes MatVec from gt with dense row walks, leaving the
// array's counters and scratch untouched.
func denseMatVec(t *testing.T, x *Crossbar, v linalg.Vector) linalg.Vector {
	t.Helper()
	inScale := v.NormInf()
	if inScale == 0 {
		inScale = 1
	}
	vi := make(linalg.Vector, len(v))
	for i, e := range v {
		vi[i] = e / inScale
	}
	mustQuantize(t, x, vi)
	gs := senseConductance
	out := make(linalg.Vector, x.rows)
	for i := range out {
		num, s := denseSenseRow(x, i, vi)
		out[i] = num / (gs + s)
	}
	mustQuantize(t, x, out)
	for i := range out {
		out[i] *= x.rowScale[i] * inScale
	}
	return out
}

// denseMatVecResidual recomputes MatVecResidual from gt with dense row walks.
func denseMatVecResidual(t *testing.T, x *Crossbar, base, v, factor linalg.Vector) linalg.Vector {
	t.Helper()
	vi := v.Clone()
	mustQuantize(t, x, vi)
	gs := senseConductance
	out := make(linalg.Vector, x.rows)
	for i := range out {
		num, s := denseSenseRow(x, i, vi)
		term := x.rowScale[i] * num / (gs + s)
		if factor != nil {
			term *= factor[i]
		}
		out[i] = base[i] - term
	}
	mustQuantize(t, x, out)
	return out
}

// denseSolve recomputes Solve from gt: the attenuated network and its row
// sums built densely, and a structured solve that scans the network for its
// own pattern instead of using the array's cached one.
func denseSolve(t *testing.T, x *Crossbar, b linalg.Vector) (linalg.Vector, error) {
	t.Helper()
	gs := senseConductance
	net := linalg.NewMatrix(x.rows, x.cols)
	for i := 0; i < x.rows; i++ {
		for j, g := range x.gt.RawRow(i) {
			net.Set(i, j, x.effG(i, j, g))
		}
	}
	vo := make(linalg.Vector, len(b))
	for i := range b {
		var srow float64
		for _, g := range net.RawRow(i) {
			srow += g
		}
		vo[i] = b[i] * (gs + srow) / (gs * x.rowScale[i])
	}
	inScale := vo.NormInf()
	if inScale == 0 {
		inScale = 1
	}
	for i := range vo {
		vo[i] /= inScale
	}
	mustQuantize(t, x, vo)
	for i := range vo {
		vo[i] *= gs
	}
	var ws linalg.StructuredWorkspace
	vi, err := ws.Solve(net, vo)
	if err != nil {
		return nil, err
	}
	mustQuantize(t, x, vi)
	for i := range vi {
		vi[i] *= inScale
	}
	return vi, nil
}

func mustQuantize(t *testing.T, x *Crossbar, v linalg.Vector) {
	t.Helper()
	if err := x.QuantizeIO(v); err != nil {
		t.Fatalf("quantizeIO: %v", err)
	}
}

func requireBitIdentical(t *testing.T, got, want linalg.Vector, label string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d, want %d", label, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: [%d] = %v, want bit-identical %v", label, i, got[i], want[i])
		}
	}
}

func randomSignedVector(r *rand.Rand, n int) linalg.Vector {
	v := make(linalg.Vector, n)
	for i := range v {
		v[i] = r.NormFloat64()
	}
	return v
}

// requireMatchesDense checks that the cached pattern covers every non-zero
// conductance and that MatVec, MatVecResidual and (on square arrays) Solve
// reproduce their dense references bit for bit.
func requireMatchesDense(t *testing.T, x *Crossbar, r *rand.Rand, label string) {
	t.Helper()
	p := x.pattern()
	for i := 0; i < x.rows; i++ {
		inPattern := make([]bool, x.cols)
		for _, j := range p.Row(i) {
			inPattern[j] = true
		}
		for j, g := range x.gt.RawRow(i) {
			if g != 0 && !inPattern[j] {
				t.Fatalf("%s: non-zero cell (%d,%d) = %v missing from the pattern", label, i, j, g)
			}
		}
	}

	v := randomSignedVector(r, x.cols)
	want := denseMatVec(t, x, v)
	got, err := x.MatVec(v)
	if err != nil {
		t.Fatalf("%s: MatVec: %v", label, err)
	}
	requireBitIdentical(t, got, want, label+": MatVec")

	base, factor := randomSignedVector(r, x.rows), randomSignedVector(r, x.rows)
	want = denseMatVecResidual(t, x, base, v, factor)
	got, err = x.MatVecResidual(base, v, factor)
	if err != nil {
		t.Fatalf("%s: MatVecResidual: %v", label, err)
	}
	requireBitIdentical(t, got, want, label+": MatVecResidual")

	if x.rows != x.cols {
		return
	}
	b := randomSignedVector(r, x.rows)
	want, wantErr := denseSolve(t, x, b)
	got, err = x.Solve(b)
	if wantErr != nil {
		if !errors.Is(err, ErrSingular) {
			t.Fatalf("%s: Solve error %v, want ErrSingular (reference: %v)", label, err, wantErr)
		}
		return
	}
	if err != nil {
		t.Fatalf("%s: Solve: %v", label, err)
	}
	requireBitIdentical(t, got, want, label+": Solve")
}

// TestPatternTracksConductances walks an array through every event that can
// flip a cell between gated-off and conducting, and after each one requires
// the pattern-driven reads and settle to match dense references built from
// the realized conductances.
func TestPatternTracksConductances(t *testing.T) {
	const n = 12
	newVariation := func(t *testing.T) *variation.Model {
		vm, err := variation.NewPaperModel(0.05, 3)
		if err != nil {
			t.Fatalf("NewPaperModel: %v", err)
		}
		return vm
	}
	program := func(t *testing.T, x *Crossbar, a *linalg.Matrix) {
		t.Helper()
		if err := x.Program(a); err != nil {
			t.Fatalf("Program: %v", err)
		}
	}

	t.Run("program-and-reprogram", func(t *testing.T) {
		r := rand.New(rand.NewSource(1))
		cfg := idealConfig(2 * n)
		cfg.Variation = newVariation(t)
		x := mustNew(t, cfg)
		program(t, x, randomSparseNonNegMatrix(r, n, 0.2))
		requireMatchesDense(t, x, r, "fresh Program")
		program(t, x, randomSparseNonNegMatrix(r, n, 0.3))
		requireMatchesDense(t, x, r, "same-shape re-Program")
		rect := linalg.NewMatrix(n, n/2)
		for i := 0; i < n; i++ {
			rect.Set(i, i%(n/2), 1+r.Float64())
		}
		program(t, x, rect)
		requireMatchesDense(t, x, r, "new-shape re-Program")
		// No cell conducts, so no write flips one: only Program itself can
		// retire the previous shape's pattern.
		program(t, x, linalg.NewMatrix(3, 2))
		requireMatchesDense(t, x, r, "all-zero re-Program")
	})

	t.Run("updates", func(t *testing.T) {
		r := rand.New(rand.NewSource(2))
		x := mustNew(t, idealConfig(n))
		a := randomSparseNonNegMatrix(r, n, 0.3)
		program(t, x, a)
		requireMatchesDense(t, x, r, "Program")

		// Cell (3, 4) goes conducting → gated off → conducting again.
		row := linalg.Vector(a.RawRow(3)).Clone()
		for k, v := range []float64{2, 0, 3} {
			row[4] = v
			if err := x.UpdateRow(3, row); err != nil {
				t.Fatalf("UpdateRow step %d: %v", k, err)
			}
			requireMatchesDense(t, x, r, fmt.Sprintf("UpdateRow setting cell (3,4) to %v", v))
		}

		if err := x.UpdateCellInPlace(7, 2, 0.75); err != nil {
			t.Fatalf("UpdateCellInPlace: %v", err)
		}
		requireMatchesDense(t, x, r, "UpdateCellInPlace")
		if err := x.UpdateCellInPlace(7, 2, 0); err != nil {
			t.Fatalf("UpdateCellInPlace zero: %v", err)
		}
		requireMatchesDense(t, x, r, "UpdateCellInPlace to zero")
	})

	t.Run("faults", func(t *testing.T) {
		r := rand.New(rand.NewSource(3))
		cfg := idealConfig(8 * n)
		cfg.Faults = &memristor.FaultModel{StuckOnDensity: 0.05, StuckOffDensity: 0.05, Seed: 21}
		x := mustNew(t, cfg)
		a := randomSparseNonNegMatrix(r, n, 0.2)
		program(t, x, a)
		if c := x.FaultCensus(); c.StuckOn == 0 || c.StuckOff == 0 {
			t.Fatalf("census %+v: want both stuck-on and stuck-off cells in the mapped region", c)
		}
		requireMatchesDense(t, x, r, "Program over stuck cells")
	})

	t.Run("noise-epoch", func(t *testing.T) {
		r := rand.New(rand.NewSource(4))
		cfg := idealConfig(n)
		cfg.Variation = newVariation(t)
		cfg.CycleNoise = 0.5
		cfg.DeltaWriteBits = 8
		x := mustNew(t, cfg)
		a := randomSparseNonNegMatrix(r, n, 0.25)
		program(t, x, a)
		x.SetNoiseEpoch(5)
		requireMatchesDense(t, x, r, "SetNoiseEpoch")
		for i := 0; i < n; i += 3 {
			if err := x.UpdateRow(i, linalg.Vector(a.RawRow(i)).Scale(1.1)); err != nil {
				t.Fatalf("UpdateRow %d: %v", i, err)
			}
		}
		requireMatchesDense(t, x, r, "row rewrites after SetNoiseEpoch")
	})

	t.Run("wire-resistance", func(t *testing.T) {
		r := rand.New(rand.NewSource(5))
		cfg := idealConfig(n)
		cfg.WireResistance = 2
		x := mustNew(t, cfg)
		program(t, x, randomSparseNonNegMatrix(r, n, 0.25))
		requireMatchesDense(t, x, r, "WireResistance")
	})

	t.Run("drift", func(t *testing.T) {
		r := rand.New(rand.NewSource(6))
		cfg := idealConfig(n)
		cfg.Faults = &memristor.FaultModel{DriftPerCycle: 0.05, StuckOnDensity: 0.03, Seed: 9}
		x := mustNew(t, cfg)
		a := randomSparseNonNegMatrix(r, n, 0.25)
		program(t, x, a)
		// Each check's settle is one retention cycle, so the cells age.
		for k := 0; k < 4; k++ {
			requireMatchesDense(t, x, r, "drift")
		}
		if err := x.UpdateRow(2, linalg.Vector(a.RawRow(2)).Scale(0.5)); err != nil {
			t.Fatalf("UpdateRow: %v", err)
		}
		requireMatchesDense(t, x, r, "drift after a row refresh")
	})
}

// TestPatternInvalidation pins where the cached pattern goes stale: at
// every event that can flip a cell between gated-off and conducting, and
// at no other, so steady-state reads and settles never rescan gt.
func TestPatternInvalidation(t *testing.T) {
	const n = 8
	r := rand.New(rand.NewSource(8))
	vm, err := variation.NewPaperModel(0.05, 3)
	if err != nil {
		t.Fatalf("NewPaperModel: %v", err)
	}
	cfg := idealConfig(8 * n)
	cfg.Variation = vm
	cfg.CycleNoise = 0.5
	cfg.Faults = &memristor.FaultModel{StuckOnDensity: 0.05, StuckOffDensity: 0.05, Seed: 21}
	x := mustNew(t, cfg)
	a := randomSparseNonNegMatrix(r, n, 0.3)
	requireValid := func(want bool, label string) {
		t.Helper()
		if x.patValid != want {
			t.Fatalf("%s: pattern valid = %v, want %v", label, x.patValid, want)
		}
		if !want {
			requireMatchesDense(t, x, r, label)
		}
	}
	if err := x.Program(a); err != nil {
		t.Fatalf("Program: %v", err)
	}
	requireValid(false, "Program")

	// Reads, settles, noise epochs and rewrites that keep every cell's
	// zero/non-zero state reuse the pattern.
	requireMatchesDense(t, x, r, "reads")
	x.SetNoiseEpoch(4)
	if err := x.UpdateRow(2, linalg.Vector(a.RawRow(2)).Scale(1.5)); err != nil {
		t.Fatalf("UpdateRow: %v", err)
	}
	requireValid(true, "same-pattern rewrite")

	// A healthy gated-off cell is written to conduct through writeDevice,
	// then through pinFaultCell as if it were stuck on.
	var zi, zj []int
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if x.gt.At(i, j) == 0 && x.faultAt(i, j) == memristor.FaultNone {
				zi, zj = append(zi, i), append(zj, j)
			}
		}
	}
	if len(zi) < 2 {
		t.Fatalf("want two healthy gated-off cells, have %d", len(zi))
	}
	x.writeDevice(zi[0], zj[0], memristor.GMax/2)
	requireValid(false, "writeDevice flipping a cell")
	x.pinFaultCell(zi[1], zj[1], memristor.FaultStuckOn, 0)
	requireValid(false, "pinFaultCell flipping a cell")
}

// TestUpdatesRejectNonFinite pins that the in-place update paths refuse NaN
// and infinite coefficients with Program's error, and leave the array as it
// was.
func TestUpdatesRejectNonFinite(t *testing.T) {
	a := mustMatrix(t, [][]float64{{1, 0, 2}, {3, 1, 0}, {0, 2, 1}})
	for _, tc := range []struct {
		name   string
		update func(x *Crossbar) error
		want   error
	}{
		{"UpdateRow NaN", func(x *Crossbar) error { return x.UpdateRow(1, linalg.VectorOf(2, math.NaN(), 4)) }, ErrBadConfig},
		{"UpdateRow +Inf", func(x *Crossbar) error { return x.UpdateRow(1, linalg.VectorOf(2, math.Inf(1), 4)) }, ErrBadConfig},
		{"UpdateRow -Inf", func(x *Crossbar) error { return x.UpdateRow(1, linalg.VectorOf(2, math.Inf(-1), 4)) }, ErrNegative},
		{"UpdateCellInPlace NaN", func(x *Crossbar) error { return x.UpdateCellInPlace(1, 1, math.NaN()) }, ErrBadConfig},
		{"UpdateCellInPlace +Inf", func(x *Crossbar) error { return x.UpdateCellInPlace(1, 1, math.Inf(1)) }, ErrBadConfig},
	} {
		t.Run(tc.name, func(t *testing.T) {
			x := mustNew(t, idealConfig(3))
			if err := x.Program(a); err != nil {
				t.Fatalf("Program: %v", err)
			}
			gt, target := x.gt.Clone(), x.target.Clone()
			ones := linalg.VectorOf(1, 1, 1)
			before, err := x.MatVec(ones)
			if err != nil {
				t.Fatalf("MatVec: %v", err)
			}
			before = before.Clone()

			if err := tc.update(x); !errors.Is(err, tc.want) {
				t.Fatalf("error %v, want %v", err, tc.want)
			}
			requireIdenticalMatrices(t, x.gt, gt, "gt")
			requireIdenticalMatrices(t, x.target, target, "target")
			after, err := x.MatVec(ones)
			if err != nil {
				t.Fatalf("MatVec: %v", err)
			}
			requireBitIdentical(t, after, before, "MatVec after the rejected update")
		})
	}
}

// TestCeilLog2MatchesMath pins the quantizers' exponent shortcut to
// math.Ceil(math.Log2(v)) on random finite magnitudes across the whole
// range, on every mantissa near the shortcut's 2³² threshold, on powers of
// two and their neighbours, and on subnormals.
func TestCeilLog2MatchesMath(t *testing.T) {
	check := func(v float64) {
		t.Helper()
		if got, want := ceilLog2(v), int(math.Ceil(math.Log2(v))); got != want {
			t.Fatalf("ceilLog2(%v [%#x]) = %d, want %d", v, math.Float64bits(v), got, want)
		}
	}
	r := rand.New(rand.NewSource(17))
	for i := 0; i < 200000; i++ {
		v := math.Float64frombits(r.Uint64() &^ (1 << 63))
		if v == 0 || math.IsInf(v, 0) || math.IsNaN(v) {
			continue
		}
		check(v)
	}
	for e := uint64(1); e < 0x7ff; e++ {
		for _, m := range []uint64{0, 1, 2, 1<<32 - 1, 1 << 32, 1<<32 + 1, 1<<52 - 1, r.Uint64() & (1<<52 - 1)} {
			check(math.Float64frombits(e<<52 | m))
		}
	}
	for _, m := range []uint64{1, 2, 3, 1 << 31, 1<<32 - 1, 1 << 32, 1 << 51, 1<<52 - 1} {
		check(math.Float64frombits(m))
	}
}

// exp2IO is the per-element converter formula as it stood before the
// switch to math.Ldexp and to bit-level rounding. It returns NaN for two
// kinds of finite input: above 2^1023, where math.Exp2 of ⌈log₂|e|⌉
// overflows, and where the step 2^(⌈log₂|e|⌉−bits+1) underflows.
func exp2IO(bits int, e float64) float64 {
	if e == 0 || math.IsNaN(e) || math.IsInf(e, 0) {
		return e
	}
	step := math.Exp2(-float64(bits - 1))
	scale := math.Exp2(math.Ceil(math.Log2(math.Abs(e)))) * step
	return math.Round(e/scale) * scale
}

// finiteIO is exp2IO amended only where it turns a finite input into NaN,
// so that a finite input stays finite. A step below the smallest subnormal
// leaves e unchanged: e has fewer than bits−1 significant bits and already
// sits on the grid. Above 2^1023, e rounds half away from zero to a
// multiple of its step, and a round-up to 2^1024 clamps to ±MaxFloat64.
func finiteIO(bits int, e float64) float64 {
	want := exp2IO(bits, e)
	if !math.IsNaN(want) || math.IsNaN(e) {
		return want
	}
	k := int(math.Ceil(math.Log2(math.Abs(e)))) - (bits - 1)
	if k < -1074 {
		return e
	}
	q := math.Ldexp(math.Round(math.Ldexp(e, -k)), k)
	if math.IsInf(q, 0) {
		return math.Copysign(math.MaxFloat64, e)
	}
	return q
}

// requireQuantizeIO checks QuantizeIO on the single element e at the
// array's IOBits against finiteIO, bit for bit, and returns the result.
func requireQuantizeIO(t *testing.T, x *Crossbar, e float64) float64 {
	t.Helper()
	v := linalg.VectorOf(e)
	mustQuantize(t, x, v)
	if want := finiteIO(x.cfg.IOBits, e); math.Float64bits(v[0]) != math.Float64bits(want) {
		t.Fatalf("quantizeIO(%v [%#x]) at %d bits = %v, want %v", e, math.Float64bits(e), x.cfg.IOBits, v[0], want)
	}
	return v[0]
}

// TestPowerOfTwoScaleMatchesExp2 pins the quantizers' power-of-two scale,
// math.Ldexp(1, k), to the math.Exp2(float64(k)) it replaced: bitwise equal
// for every exponent a finite non-zero magnitude can produce, and identical
// quantizer outputs at every converter precision on random magnitudes,
// exact powers of two, their float neighbours, subnormals, mantissas on
// both sides of ceilLog2's 2³² threshold and exact half-step ties. The
// converter's reference is exp2IO, amended by finiteIO only where exp2IO
// turns a finite input into NaN.
func TestPowerOfTwoScaleMatchesExp2(t *testing.T) {
	for k := -1074; k <= 1024; k++ {
		if got, want := math.Ldexp(1, k), math.Exp2(float64(k)); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("Ldexp(1, %d) = %v, Exp2 = %v", k, got, want)
		}
	}

	// The write quantizer's formula as it stood before the switch to Ldexp.
	exp2G := func(x *Crossbar, g float64) float64 {
		gmin, gmax := memristor.GMin, memristor.GMax
		if g <= gmin {
			return gmin
		}
		if g >= gmax {
			return gmax
		}
		step := math.Exp2(-float64(x.cfg.WriteBits - 1))
		scale := math.Exp2(math.Ceil(math.Log2(g))) * step
		return math.Round(g/scale) * scale
	}

	r := rand.New(rand.NewSource(13))
	var mags []float64
	for i := 0; i < 2000; i++ {
		mags = append(mags, math.Ldexp(r.Float64()+0.5, r.Intn(2098)-1074))
	}
	for k := -1074; k <= 1023; k += 7 {
		p := math.Ldexp(1, k)
		mags = append(mags, p, math.Nextafter(p, 0), math.Nextafter(p, math.Inf(1)))
	}
	mags = append(mags, math.SmallestNonzeroFloat64, 3*math.SmallestNonzeroFloat64,
		0x1p-1030, 0x1.8p-1040, math.MaxFloat64, 1e-7, 0.1, 1, 3)
	// Mantissas around 2³², where ceilLog2 switches from math.Log2 to the
	// bits, at the exponent extremes and a few in between (0 is subnormal).
	for _, exp := range []uint64{0, 1, 2, 0x3fe, 0x3ff, 0x400, 0x7fc, 0x7fd, 0x7fe} {
		for _, m := range []uint64{1, 1<<32 - 1, 1 << 32, 1<<32 + 1, 1<<52 - 1} {
			mags = append(mags, math.Float64frombits(exp<<52|m))
		}
	}

	// quantizeG sees conductances inside the device range.
	x := mustNew(t, Config{Size: 4})
	gmin, gmax := memristor.GMin, memristor.GMax
	var conductances []float64
	for k := math.Ilogb(gmin); k <= math.Ilogb(gmax)+1; k++ {
		p := math.Ldexp(1, k)
		conductances = append(conductances, p, math.Nextafter(p, 0), math.Nextafter(p, math.Inf(1)))
	}
	for i := 0; i < 2000; i++ {
		conductances = append(conductances, gmin*math.Pow(gmax/gmin, r.Float64()))
	}

	for bits := 1; bits <= 24; bits++ {
		x.cfg.IOBits, x.cfg.WriteBits = bits, bits
		for _, m := range mags {
			requireQuantizeIO(t, x, m)
			requireQuantizeIO(t, x, -m)
		}
		// Exact ties: (q + ½)·2^k with q of bits−1 significant bits lies
		// halfway between two grid points of step 2^k, from the subnormals
		// to the largest binade.
		if bits >= 2 {
			for k := -1073; k <= 1025-bits; k += 3 {
				q := float64(int64(1)<<(bits-2) + r.Int63n(int64(1)<<(bits-2)))
				tie := math.Ldexp(q+0.5, k)
				requireQuantizeIO(t, x, tie)
				requireQuantizeIO(t, x, -tie)
			}
		}
		for _, g := range conductances {
			if got, want := x.quantizeG(g), exp2G(x, g); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("quantizeG(%v) at %d bits = %v, want %v", g, bits, got, want)
			}
		}
	}
}

// FuzzQuantizeIO checks the per-element converter on arbitrary float64 bits
// at every IOBits from 1 to 24: bit for bit against the pre-Ldexp formula
// wherever that is finite, against its finite amendment where it turns a
// finite input into NaN, and NaN and ±Inf unchanged.
func FuzzQuantizeIO(f *testing.F) {
	for _, e := range []float64{0, 1, 0.1, -3, math.MaxFloat64, math.SmallestNonzeroFloat64,
		0x1p-1030, 0x1.fffffffffffffp1023, 0x1.00000001p-1000, 0x1.000000008p5, math.Inf(-1), math.NaN()} {
		for _, bits := range []uint8{0, 1, 7, 15, 23} {
			f.Add(math.Float64bits(e), bits)
		}
	}
	f.Fuzz(func(t *testing.T, b uint64, bits uint8) {
		x := mustNew(t, Config{Size: 1, IOBits: int(bits)%24 + 1})
		e := math.Float64frombits(b)
		got := requireQuantizeIO(t, x, e)
		if !math.IsNaN(e) && !math.IsInf(e, 0) && (math.IsNaN(got) || math.IsInf(got, 0)) {
			t.Fatalf("quantizeIO(%v) at %d bits = %v, want a finite value", e, x.cfg.IOBits, got)
		}
	})
}

// denseEffectiveMatrix is the matrix x realizes, by a walk over every cell
// of the mapped region, as the array computed it before it walked its
// pattern.
func denseEffectiveMatrix(x *Crossbar) *linalg.Matrix {
	out := linalg.NewMatrix(x.rows, x.cols)
	for i := 0; i < x.rows; i++ {
		grow := x.gt.RawRow(i)
		var s float64
		for j, g := range grow {
			s += x.effG(i, j, g)
		}
		coef := x.rowScale[i] / (senseConductance + s)
		for j, g := range grow {
			out.Set(i, j, x.effG(i, j, g)*coef)
		}
	}
	return out
}

// TestEffectiveRowMatchesDense holds EffectiveRow to the dense walk bit for
// bit, under wire resistance, drift and stuck cells, as refreshes and
// settles move the array on. Each row goes into a wider row at an offset:
// EffectiveRow must write exactly the pattern columns it adds, ascending and
// inside the offset span, and every cell it leaves out must be an exact
// zero of the dense walk.
func TestEffectiveRowMatchesDense(t *testing.T) {
	vm, err := variation.NewPaperModel(0.05, 7)
	if err != nil {
		t.Fatalf("NewPaperModel: %v", err)
	}
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"ideal", idealConfig(40)},
		{"variation-wire-resistance", Config{Size: 40, Variation: vm, WireResistance: 2}},
		{"variation-stuck-cells-drift", Config{Size: 40, Variation: vm,
			Faults: &memristor.FaultModel{StuckOnDensity: 0.03, StuckOffDensity: 0.03, DriftPerCycle: 0.01, Seed: 5}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const n, c0 = 30, 5
			r := rand.New(rand.NewSource(3))
			x := mustNew(t, tc.cfg)
			if err := x.Program(randomSparseNonNegMatrix(r, n, 0.1)); err != nil {
				t.Fatalf("Program: %v", err)
			}
			dst := make(linalg.Vector, c0+n+3)
			var p linalg.Pattern
			for step := 0; step < 8; step++ {
				want := denseEffectiveMatrix(x)
				p.Start(n, 0)
				for i := 0; i < n; i++ {
					dst.Fill(math.NaN())
					x.EffectiveRow(i, dst, c0, &p)
					p.EndRow(i)
					cols := p.Row(i)
					k := 0
					for j := 0; j < n; j++ {
						if k < len(cols) && int(cols[k]) == c0+j {
							k++
							if !linalg.Identical(dst[c0+j], want.At(i, j)) {
								t.Fatalf("step %d: (%d,%d) = %v, dense %v", step, i, j, dst[c0+j], want.At(i, j))
							}
						} else if want.At(i, j) != 0 || !math.IsNaN(dst[c0+j]) {
							t.Fatalf("step %d: (%d,%d) left out of the pattern holds %v, dense %v", step, i, j, dst[c0+j], want.At(i, j))
						}
					}
					if k != len(cols) {
						t.Fatalf("step %d: row %d pattern %v is not ascending inside [%d, %d)", step, i, cols, c0, c0+n)
					}
					for _, j := range []int{0, c0 - 1, c0 + n, len(dst) - 1} {
						if !math.IsNaN(dst[j]) {
							t.Fatalf("step %d: row %d wrote column %d outside its span", step, i, j)
						}
					}
				}
				// Move the array on: refresh a row, then settle, which
				// advances the drift clock.
				row := make(linalg.Vector, n)
				i := r.Intn(n)
				for j := range row {
					if r.Float64() < 0.1 {
						row[j] = r.Float64() * 4
					}
				}
				row[i] += 8
				if err := x.UpdateRow(i, row); err != nil {
					t.Fatalf("UpdateRow: %v", err)
				}
				b := make(linalg.Vector, n)
				b.Fill(1)
				if _, err := x.Solve(b); err != nil {
					t.Fatalf("Solve: %v", err)
				}
			}
		})
	}
}
