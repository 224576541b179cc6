package crossbar

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"github.com/memlp/memlp/internal/linalg"
	"github.com/memlp/memlp/internal/memristor"
	"github.com/memlp/memlp/internal/variation"
)

// rowSum is the dense sum of row i of m, every cell in column order.
func rowSum(m *linalg.Matrix, i int) float64 {
	var s float64
	for _, v := range m.RawRow(i) {
		s += v
	}
	return s
}

// refSetTargetRow and refWriteRow are the dense row refresh that refreshRow
// replaced: every cell of the row is rescaled and re-tested, and every cell
// whose target changed is rewritten. They are kept as the reference that
// TestRefreshMatchesDense holds UpdateRow to.
func refSetTargetRow(x *Crossbar, i int, row linalg.Vector) {
	var sum, maxElem float64
	for _, v := range row {
		sum += v
		if v > maxElem {
			maxElem = v
		}
	}
	scale := 1.0
	if req := sum + maxElem*senseConductance/memristor.GMax; req > 0 {
		scale = req / maxRowSum
	}
	x.rowScale[i] = scale
	for j, v := range row {
		x.target.Set(i, j, v/scale)
	}
}

func refWriteRow(x *Crossbar, i int) {
	gs := senseConductance
	ri := rowSum(x.target, i)
	coef := gs / (1 - ri)
	for j := 0; j < x.cols; j++ {
		c := x.target.At(i, j)
		var tq float64
		if c > 0 {
			tq = x.quantizeG(c * coef)
		}
		if k := x.faultAt(i, j); k != memristor.FaultNone {
			x.pinFaultCell(i, j, k, tq)
			continue
		}
		if linalg.Identical(tq, x.progTarget.At(i, j)) {
			if x.deltaLevel != nil {
				x.deltaLevel[i*x.cols+j] = x.deltaLevelOf(tq)
			}
			continue
		}
		if x.deltaLevel != nil && x.deltaLevelOf(tq) == x.deltaLevel[i*x.cols+j] {
			x.counters.CellSkips++
			continue
		}
		x.writeDevice(i, j, tq)
	}
}

// refProgram is Program as it was before it walked only the non-zeros:
// two passes check the signs and then the finiteness of a, every buffer is
// reallocated on a new shape, and every cell of every row is written
// through the dense reference. TestProgramMatchesDense holds Program to it.
func refProgram(x *Crossbar, a *linalg.Matrix) error {
	if a.Rows() > x.cfg.Size || a.Cols() > x.cfg.Size {
		return ErrTooLarge
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
	x.liveValid = false
	if sameShape {
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
		x.invalidateDeltaLevels()
	} else {
		x.deltaLevel = nil
	}
	if x.deviceFactor != nil {
		for i := 0; i < x.rows; i++ {
			for j := 0; j < x.cols; j++ {
				x.deviceFactor.Set(i, j, x.cfg.Variation.Factor())
			}
		}
	}
	for i := 0; i < x.rows; i++ {
		refSetTargetRow(x, i, linalg.Vector(a.RawRow(i)))
		refWriteRow(x, i)
	}
	return nil
}

// refUpdateRow is UpdateRow over the dense reference.
func refUpdateRow(x *Crossbar, i int, row linalg.Vector) error {
	if x.target == nil {
		return ErrNotProgrammed
	}
	if i < 0 || i >= x.rows || len(row) != x.cols {
		return linalg.ErrDimensionMismatch
	}
	for _, v := range row {
		if err := checkCoefficient(v); err != nil {
			return err
		}
	}
	refSetTargetRow(x, i, row)
	refWriteRow(x, i)
	return nil
}

// refUpdateCellInPlace is UpdateCellInPlace over the dense row sum it
// replaced: both sums walk every cell of the row.
func refUpdateCellInPlace(x *Crossbar, i, j int, value float64) error {
	if x.target == nil {
		return ErrNotProgrammed
	}
	if i < 0 || i >= x.rows || j < 0 || j >= x.cols {
		return linalg.ErrDimensionMismatch
	}
	if err := checkCoefficient(value); err != nil {
		return err
	}
	c := value / x.rowScale[i]
	rest := rowSum(x.target, i) - x.target.At(i, j)
	if maxC := maxRowSum - rest; c > maxC {
		c = maxC
	}
	gmax := memristor.GMax
	if maxC := gmax * (1 - rest) / (senseConductance + gmax); c > maxC {
		c = maxC
	}
	if c < 0 {
		c = 0
	}
	x.target.Set(i, j, c)
	if x.liveValid && math.Float64bits(c) != 0 {
		x.live[i*x.liveWords+j/64] |= 1 << (j % 64)
	}
	var tq float64
	if c > 0 {
		coef := senseConductance / (1 - rowSum(x.target, i))
		tq = x.quantizeG(c * coef)
	}
	x.programCell(i, j, tq)
	return nil
}

// requireSameBits compares two matrices bit for bit: NaN matches NaN of
// the same payload, and −0 does not match +0.
func requireSameBits(t *testing.T, got, want *linalg.Matrix, label string) {
	t.Helper()
	if (got == nil) != (want == nil) {
		t.Fatalf("%s: allocated %v, reference %v", label, got != nil, want != nil)
	}
	if want == nil {
		return
	}
	for i := 0; i < want.Rows(); i++ {
		for j, w := range want.RawRow(i) {
			if g := got.At(i, j); math.Float64bits(g) != math.Float64bits(w) {
				t.Fatalf("%s: cell (%d,%d) = %v [%#x], want %v [%#x]", label, i, j, g, math.Float64bits(g), w, math.Float64bits(w))
			}
		}
	}
}

// requireRefreshState compares every piece of state a refresh touches on
// the array under test with the dense reference, and checks the two facts
// that make skipping a dead cell safe rather than assuming them.
func requireRefreshState(t *testing.T, got, ref *Crossbar, label string) {
	t.Helper()
	if got.rows != ref.rows || got.cols != ref.cols {
		t.Fatalf("%s: shape %dx%d, reference %dx%d", label, got.rows, got.cols, ref.rows, ref.cols)
	}
	if got.counters != ref.counters {
		t.Fatalf("%s: counters %+v, reference %+v", label, got.counters, ref.counters)
	}
	if got.writeSeq != ref.writeSeq || !linalg.Identical(got.driftCycle, ref.driftCycle) {
		t.Fatalf("%s: write sequence %d and drift cycle %v, reference %d and %v", label,
			got.writeSeq, got.driftCycle, ref.writeSeq, ref.driftCycle)
	}
	if got.target == nil {
		if ref.target != nil {
			t.Fatalf("%s: unprogrammed, reference programmed", label)
		}
		return
	}
	requireSameBits(t, got.gt, ref.gt, label+": gt")
	requireSameBits(t, got.target, ref.target, label+": target")
	requireSameBits(t, got.progTarget, ref.progTarget, label+": progTarget")
	requireSameBits(t, got.cellCycle, ref.cellCycle, label+": cellCycle")
	requireSameBits(t, got.deviceFactor, ref.deviceFactor, label+": deviceFactor")
	for i, s := range ref.rowScale {
		if math.Float64bits(got.rowScale[i]) != math.Float64bits(s) {
			t.Fatalf("%s: rowScale[%d] = %v, reference %v", label, i, got.rowScale[i], s)
		}
	}
	if (got.deltaLevel == nil) != (ref.deltaLevel == nil) {
		t.Fatalf("%s: delta levels kept %v, reference %v", label, got.deltaLevel != nil, ref.deltaLevel != nil)
	}

	for i := 0; i < got.rows; i++ {
		for j := 0; j < got.cols; j++ {
			pt := got.progTarget.At(i, j)
			if k := got.faultAt(i, j); k != memristor.FaultNone {
				// Stuck cells at zero targets: refreshRow never visits a
				// stuck cell whose target and progTarget are both +0,
				// where the dense walk re-pins it. That is a no-op only
				// because Program pinned it already: re-pinning with a
				// zero target and progTarget counts no write, and finds
				// gt at the pinned conductance and a drift clock of +Inf.
				pinned := 0.0
				if k == memristor.FaultStuckOn {
					pinned = memristor.GMax
				}
				if math.Float64bits(got.gt.At(i, j)) != math.Float64bits(pinned) {
					t.Fatalf("%s: stuck cell (%d,%d) holds %v, want pinned %v", label, i, j, got.gt.At(i, j), pinned)
				}
				if got.cellCycle != nil && !math.IsInf(got.cellCycle.At(i, j), 1) {
					t.Fatalf("%s: stuck cell (%d,%d) drift clock %v, want +Inf", label, i, j, got.cellCycle.At(i, j))
				}
			}
			if got.deltaLevel == nil {
				continue
			}
			// Zero cells' delta levels: the dense walk records level 0 on
			// every dead cell it passes, refreshRow may leave
			// deltaInvalid. The two differ only on cells with a zero
			// progTarget, and every non-zero target's level is positive,
			// so a later delta comparison (which needs tq ≠ progTarget,
			// that is tq ≠ 0 here) finds neither 0 nor −1 equal to it.
			lg, lr := got.deltaLevel[i*got.cols+j], ref.deltaLevel[i*ref.cols+j]
			if lg != lr && !(lr == 0 && lg == deltaInvalid && pt == 0) {
				t.Fatalf("%s: cell (%d,%d) delta level %d, reference %d (progTarget %v)", label, i, j, lg, lr, pt)
			}
			if pt != 0 && !math.IsNaN(pt) && got.deltaLevelOf(pt) <= 0 {
				t.Fatalf("%s: cell (%d,%d) target %v has level %d, want positive", label, i, j, pt, got.deltaLevelOf(pt))
			}
		}
	}

	if got.liveValid {
		for i := 0; i < got.rows; i++ {
			mask := got.live[i*got.liveWords : (i+1)*got.liveWords]
			for j := 0; j < got.cols; j++ {
				if liveCell(got.target.At(i, j), got.progTarget.At(i, j)) && mask[j/64]&(1<<(j%64)) == 0 {
					t.Fatalf("%s: live cell (%d,%d) (target %v, progTarget %v) missing from the live mask",
						label, i, j, got.target.At(i, j), got.progTarget.At(i, j))
				}
			}
		}
	}
}

// requireSameReads compares the next MatVec and, on square arrays, the next
// Solve of the two arrays bit for bit. Each Solve is also a retention-drift
// cycle, so both arrays age together.
func requireSameReads(t *testing.T, got, ref *Crossbar, r *rand.Rand, label string) {
	t.Helper()
	if got.target == nil {
		return
	}
	v := randomSignedVector(r, got.cols)
	want, wantErr := ref.MatVec(v)
	have, err := got.MatVec(v)
	if (err != nil) != (wantErr != nil) {
		t.Fatalf("%s: MatVec error %v, reference %v", label, err, wantErr)
	}
	if err == nil {
		requireBitIdentical(t, have, want, label+": MatVec")
	}
	if got.rows != got.cols {
		return
	}
	b := randomSignedVector(r, got.rows)
	want, wantErr = ref.Solve(b)
	have, err = got.Solve(b)
	if (err != nil) != (wantErr != nil) {
		t.Fatalf("%s: Solve error %v, reference %v", label, err, wantErr)
	}
	if err == nil {
		requireBitIdentical(t, have, want, label+": Solve")
	}
}

// refreshRowValues draws the next user row for a refresh of a row whose
// last values were prev: the same cells with new or unchanged values, or a
// pattern that has grown, shrunk or moved, with −0 entries, values small
// enough to floor at the device's minimum conductance, and values that
// underflow to a zero target mixed in. The diagonal usually stays non-zero
// so the settle stays well-posed.
func refreshRowValues(r *rand.Rand, i int, prev linalg.Vector) linalg.Vector {
	n := len(prev)
	row := linalg.NewVector(n)
	switch r.Intn(4) {
	case 0: // unchanged: every cell takes the progTarget skip
		copy(row, prev)
	case 1: // same cells, new values
		for j, v := range prev {
			if v != 0 {
				row[j] = v * (0.5 + r.Float64())
			}
		}
	default: // a grown, shrunk or moved pattern
		for k := r.Intn(7); k > 0; k-- {
			row[r.Intn(n)] = 4 * r.Float64()
		}
		if r.Intn(10) > 0 {
			row[i] = 8 + r.Float64()
		}
	}
	for k := r.Intn(3); k > 0; k-- {
		row[r.Intn(n)] = math.Copysign(0, -1)
	}
	if r.Intn(4) == 0 {
		row[r.Intn(n)] = 1e-3 * r.Float64()
	}
	if r.Intn(8) == 0 {
		row[r.Intn(n)] = math.SmallestNonzeroFloat64
	}
	return row
}

// TestRefreshMatchesDense drives an array through random sequences of row
// refreshes, single-cell updates, noise epochs, delta-programming toggles,
// and re-Programs of the same and of new shapes, next to a reference array
// whose refreshes run the dense walk. After every step the realized
// conductances, targets, verify cache, row scales, drift clocks and
// counters must match bit for bit, and so must the next MatVec and Solve.
// Shapes span one, two and three mask words per row.
func TestRefreshMatchesDense(t *testing.T) {
	shapes := []int{70, 12, 130}
	for _, tc := range []struct {
		name  string
		steps int
		cfg   func(t *testing.T) Config
	}{
		{"variation-noise-faults-verify-drift-delta", 300, func(t *testing.T) Config {
			vm, err := variation.NewPaperModel(0.05, 7)
			if err != nil {
				t.Fatalf("NewPaperModel: %v", err)
			}
			return Config{
				Size: 3 * 130, IOBits: 8, WriteBits: 14, DeltaWriteBits: 8,
				Variation: vm, CycleNoise: 0.5, MaxWriteRetries: 2,
				Faults: &memristor.FaultModel{StuckOnDensity: 0.03, StuckOffDensity: 0.03,
					WriteNoise: 0.02, DriftPerCycle: 0.01, Seed: 5},
			}
		}},
		{"variation-wire-resistance-no-delta", 150, func(t *testing.T) Config {
			vm, err := variation.NewPaperModel(0.05, 11)
			if err != nil {
				t.Fatalf("NewPaperModel: %v", err)
			}
			return Config{Size: 130, IOBits: 8, WriteBits: 14, Variation: vm, WireResistance: 2}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := rand.New(rand.NewSource(29))
			got, ref := mustNew(t, tc.cfg(t)), mustNew(t, tc.cfg(t))
			var rows []linalg.Vector
			program := func(n int, label string) {
				t.Helper()
				a := randomSparseNonNegMatrix(r, n, 0.05)
				errGot, errRef := got.Program(a), ref.Program(a)
				if errGot != nil || errRef != nil {
					t.Fatalf("%s: Program: %v, reference %v", label, errGot, errRef)
				}
				rows = make([]linalg.Vector, n)
				for i := range rows {
					rows[i] = linalg.Vector(a.RawRow(i)).Clone()
				}
			}
			refresh := func(i int, row linalg.Vector, label string) {
				t.Helper()
				errGot, errRef := got.UpdateRow(i, row), refUpdateRow(ref, i, row)
				if !errors.Is(errGot, errRef) {
					t.Fatalf("%s: UpdateRow error %v, reference %v", label, errGot, errRef)
				}
				if errGot == nil {
					rows[i] = row
				}
			}

			program(shapes[0], "initial Program")
			requireRefreshState(t, got, ref, "initial Program")
			for step := 0; step < tc.steps; step++ {
				n := got.rows
				// Most steps touch one of a few hot rows, as a solver
				// refreshes the same complementarity rows every iteration.
				i := r.Intn(n)
				if r.Intn(5) > 0 {
					i %= 4
				}
				var label string
				switch op := r.Intn(19); {
				case op < 11:
					row := refreshRowValues(r, i, rows[i])
					label = fmt.Sprintf("step %d: UpdateRow(%d)", step, i)
					if r.Intn(20) == 0 {
						// A rejected row must leave both arrays untouched.
						bad := []float64{math.NaN(), math.Inf(1), math.Inf(-1), -1}
						row[r.Intn(n)] = bad[r.Intn(len(bad))]
						label += " rejected"
					}
					refresh(i, row, label)
				case op < 14:
					j := r.Intn(n)
					v := []float64{0, math.Copysign(0, -1), 2 * r.Float64(), 1e6}[r.Intn(4)]
					label = fmt.Sprintf("step %d: UpdateCellInPlace(%d,%d,%v)", step, i, j, v)
					errGot, errRef := got.UpdateCellInPlace(i, j, v), refUpdateCellInPlace(ref, i, j, v)
					if errGot != nil || errRef != nil {
						t.Fatalf("%s: %v, reference %v", label, errGot, errRef)
					}
					// The row's next refresh usually finds the cell at +0.
					refresh(i, rows[i], label+", then its row")
				case op < 16:
					e := r.Int63n(1000)
					label = fmt.Sprintf("step %d: SetNoiseEpoch(%d)", step, e)
					got.SetNoiseEpoch(e)
					ref.SetNoiseEpoch(e)
				case op < 17:
					on := r.Intn(2) == 0
					label = fmt.Sprintf("step %d: SetDeltaProgramming(%v)", step, on)
					got.SetDeltaProgramming(on)
					ref.SetDeltaProgramming(on)
				case op < 18:
					label = fmt.Sprintf("step %d: same-shape Program", step)
					program(n, label)
				default:
					m := shapes[r.Intn(len(shapes))]
					label = fmt.Sprintf("step %d: Program %dx%d", step, m, m)
					program(m, label)
				}
				requireRefreshState(t, got, ref, label)
				requireSameReads(t, got, ref, r, label)
			}
		})
	}
}

// programMatrix draws a rows×cols matrix about 5% non-zero, with a heavy
// diagonal so that square settles stay well-posed, and with −0 entries and
// values small enough to leave a zero target mixed in.
func programMatrix(r *rand.Rand, rows, cols int) *linalg.Matrix {
	a := linalg.NewMatrix(rows, cols)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			switch u := r.Float64(); {
			case u < 0.05:
				a.Set(i, j, 4*r.Float64())
			case u < 0.055:
				a.Set(i, j, math.Copysign(0, -1))
			case u < 0.057:
				a.Set(i, j, math.SmallestNonzeroFloat64)
			}
		}
		if i < cols {
			a.Set(i, i, 8+r.Float64())
		}
	}
	return a
}

// requireProgramCaches holds the caches a successful Program leaves valid
// to a rebuild from the array's state: the live masks to liveCell of every
// cell, and, on a healthy array, the pattern to a fresh Scan of gt. With a
// fault model the pattern is left to be scanned at first use.
func requireProgramCaches(t *testing.T, x *Crossbar, label string) {
	t.Helper()
	if x.patValid != (x.cfg.Faults == nil) {
		t.Fatalf("%s: pattern valid = %v with fault model %v", label, x.patValid, x.cfg.Faults != nil)
	}
	if x.patValid {
		var fresh linalg.Pattern
		fresh.Scan(x.gt)
		if x.pat.Rows() != fresh.Rows() || x.pat.NNZ() != fresh.NNZ() {
			t.Fatalf("%s: pattern has %d rows and %d cells, a scan of gt %d and %d",
				label, x.pat.Rows(), x.pat.NNZ(), fresh.Rows(), fresh.NNZ())
		}
		for i := 0; i < fresh.Rows(); i++ {
			if !slices.Equal(x.pat.Row(i), fresh.Row(i)) {
				t.Fatalf("%s: pattern row %d = %v, a scan of gt %v", label, i, x.pat.Row(i), fresh.Row(i))
			}
		}
	}
	if !x.liveValid || len(x.live) != x.rows*x.liveWords || x.liveWords != (x.cols+63)/64 {
		t.Fatalf("%s: live masks valid %v, %d words for %dx%d", label, x.liveValid, len(x.live), x.rows, x.cols)
	}
	for i := 0; i < x.rows; i++ {
		mask := x.live[i*x.liveWords : (i+1)*x.liveWords]
		for j := 0; j < x.liveWords*64; j++ {
			want := j < x.cols && liveCell(x.target.At(i, j), x.progTarget.At(i, j))
			if have := mask[j/64]&(1<<(j%64)) != 0; have != want {
				t.Fatalf("%s: live bit (%d,%d) = %v, a rebuild %v", label, i, j, have, want)
			}
		}
	}
}

// TestProgramMatchesDense drives one array through Programs of random
// matrices whose shapes grow and shrink, mixed with row refreshes,
// single-cell updates, noise epochs, delta-programming toggles and rejected
// matrices, next to a reference array programmed by refProgram. After every
// step the two must hold the same conductances, targets, verify caches,
// variation draws, row scales, drift clocks and counters, bit for bit, and
// give the same next MatVec and Solve; after every Program the caches it
// builds must equal a rebuild.
func TestProgramMatchesDense(t *testing.T) {
	shapes := [][2]int{{70, 70}, {12, 12}, {130, 130}, {40, 90}, {90, 40}, {129, 129}}
	for _, tc := range []struct {
		name  string
		steps int
		cfg   func(t *testing.T) Config
	}{
		{"variation-noise-faults-verify-drift-delta", 200, func(t *testing.T) Config {
			vm, err := variation.NewPaperModel(0.05, 7)
			if err != nil {
				t.Fatalf("NewPaperModel: %v", err)
			}
			return Config{
				Size: 130, IOBits: 8, WriteBits: 14, DeltaWriteBits: 8,
				Variation: vm, CycleNoise: 0.5, MaxWriteRetries: 2,
				Faults: &memristor.FaultModel{StuckOnDensity: 0.03, StuckOffDensity: 0.03,
					WriteNoise: 0.02, DriftPerCycle: 0.01, Seed: 5},
			}
		}},
		{"variation-noise-verify-delta", 200, func(t *testing.T) Config {
			vm, err := variation.NewPaperModel(0.05, 13)
			if err != nil {
				t.Fatalf("NewPaperModel: %v", err)
			}
			return Config{Size: 130, IOBits: 8, WriteBits: 14, DeltaWriteBits: 8,
				Variation: vm, CycleNoise: 0.5, MaxWriteRetries: 2}
		}},
		{"ideal-wire-resistance", 80, func(t *testing.T) Config {
			return Config{Size: 130, IOBits: 8, WriteBits: 14, WireResistance: 2}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := rand.New(rand.NewSource(31))
			got, ref := mustNew(t, tc.cfg(t)), mustNew(t, tc.cfg(t))
			program := func(shape [2]int, label string) {
				t.Helper()
				a := programMatrix(r, shape[0], shape[1])
				if got.target != nil && r.Intn(8) == 0 {
					// Either error may come first in the matrix; ErrNegative
					// must win wherever it is.
					bad := []float64{math.NaN(), math.Inf(1), math.Inf(-1), -1}
					for k := 1 + r.Intn(2); k > 0; k-- {
						a.Set(r.Intn(shape[0]), r.Intn(shape[1]), bad[r.Intn(len(bad))])
					}
					label += " rejected"
				}
				errGot, errRef := got.Program(a), refProgram(ref, a)
				if !errors.Is(errGot, errRef) {
					t.Fatalf("%s: Program error %v, reference %v", label, errGot, errRef)
				}
				requireRefreshState(t, got, ref, label)
				if errGot == nil {
					requireProgramCaches(t, got, label)
				}
			}

			program(shapes[0], "initial Program")
			for step := 0; step < tc.steps; step++ {
				var label string
				switch op := r.Intn(10); {
				case op < 4:
					shape := shapes[r.Intn(len(shapes))]
					label = fmt.Sprintf("step %d: Program %dx%d", step, shape[0], shape[1])
					program(shape, label)
				case op < 7:
					i := r.Intn(got.rows)
					row := linalg.NewVector(got.cols)
					for k := r.Intn(6); k > 0; k-- {
						row[r.Intn(got.cols)] = 4 * r.Float64()
					}
					if i < got.cols {
						row[i] = 8 + r.Float64()
					}
					if r.Intn(3) == 0 {
						row[r.Intn(got.cols)] = math.Copysign(0, -1)
					}
					label = fmt.Sprintf("step %d: UpdateRow(%d)", step, i)
					if errGot, errRef := got.UpdateRow(i, row), refUpdateRow(ref, i, row); errGot != nil || errRef != nil {
						t.Fatalf("%s: %v, reference %v", label, errGot, errRef)
					}
				case op < 8:
					i, j := r.Intn(got.rows), r.Intn(got.cols)
					v := []float64{0, 2 * r.Float64(), 1e6}[r.Intn(3)]
					label = fmt.Sprintf("step %d: UpdateCellInPlace(%d,%d,%v)", step, i, j, v)
					if errGot, errRef := got.UpdateCellInPlace(i, j, v), refUpdateCellInPlace(ref, i, j, v); errGot != nil || errRef != nil {
						t.Fatalf("%s: %v, reference %v", label, errGot, errRef)
					}
				case op < 9:
					e := r.Int63n(1000)
					label = fmt.Sprintf("step %d: SetNoiseEpoch(%d)", step, e)
					got.SetNoiseEpoch(e)
					ref.SetNoiseEpoch(e)
				default:
					on := r.Intn(2) == 0
					label = fmt.Sprintf("step %d: SetDeltaProgramming(%v)", step, on)
					got.SetDeltaProgramming(on)
					ref.SetDeltaProgramming(on)
				}
				requireRefreshState(t, got, ref, label)
				requireSameReads(t, got, ref, r, label)
			}
		})
	}
}

// TestUpdateCellMatchesDenseRowSum holds UpdateCellInPlace, whose row sums
// walk only live cells, to the dense reference on the cases that make a
// cell dead or live: a −0 target, a stuck cell, and a cell written to zero
// and then written again. Every write's targets, conductances, counters and
// next reads must match bit for bit, and the live sum must equal the dense
// RowSum on every row.
func TestUpdateCellMatchesDenseRowSum(t *testing.T) {
	cfg := Config{Size: 40, IOBits: 8, WriteBits: 14,
		Faults: &memristor.FaultModel{StuckOnDensity: 0.05, StuckOffDensity: 0.05, Seed: 3}}
	got, ref := mustNew(t, cfg), mustNew(t, cfg)
	r := rand.New(rand.NewSource(17))
	a := randomSparseNonNegMatrix(r, 40, 0.2)
	const row = 5
	negZero := math.Copysign(0, -1)
	a.Set(row, 7, negZero)
	for _, x := range []*Crossbar{got, ref} {
		if err := x.Program(a); err != nil {
			t.Fatalf("Program: %v", err)
		}
	}
	stuck := -1
	for j := 0; j < 40 && stuck < 0; j++ {
		if j != 7 && got.faultAt(row, j) != memristor.FaultNone {
			stuck = j
		}
	}
	if stuck < 0 {
		t.Fatal("no stuck cell in the test row; pick another fault seed")
	}
	live := -1
	for j, v := range a.RawRow(row) {
		if v > 0 && j != stuck {
			live = j
			break
		}
	}
	if live < 0 {
		t.Fatal("no live cell in the test row")
	}
	writes := []struct {
		j int
		v float64
	}{
		{7, 0.5},               // the −0 target becomes live
		{7, negZero},           // and is written back to −0
		{stuck, 0.75},          // a stuck cell takes a target it cannot hold
		{live, 0},              // a live cell is written to zero ...
		{live, 1.25},           // ... and back
		{stuck, 0},             // the stuck cell is written to zero
		{(live + 1) % 40, 1e6}, // a value that saturates at the row ceiling
	}
	for k, wr := range writes {
		label := fmt.Sprintf("write %d: UpdateCellInPlace(%d,%d,%v)", k, row, wr.j, wr.v)
		if err, refErr := got.UpdateCellInPlace(row, wr.j, wr.v), refUpdateCellInPlace(ref, row, wr.j, wr.v); err != nil || refErr != nil {
			t.Fatalf("%s: %v, reference %v", label, err, refErr)
		}
		requireRefreshState(t, got, ref, label)
		for i := 0; i < got.rows; i++ {
			if s, d := got.liveRowSum(i), rowSum(got.target, i); math.Float64bits(s) != math.Float64bits(d) {
				t.Fatalf("%s: row %d live sum %v, dense RowSum %v", label, i, s, d)
			}
		}
		requireSameReads(t, got, ref, r, label)
	}
}
