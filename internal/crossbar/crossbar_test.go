package crossbar

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"github.com/memlp/memlp/internal/linalg"
	"github.com/memlp/memlp/internal/memristor"
	"github.com/memlp/memlp/internal/variation"
)

// idealConfig returns a configuration with no variation and high I/O
// precision, so results should match exact linear algebra closely.
func idealConfig(size int) Config {
	return Config{Size: size, IOBits: 16, WriteBits: 16}
}

func mustNew(t *testing.T, cfg Config) *Crossbar {
	t.Helper()
	x, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return x
}

func mustMatrix(t *testing.T, rows [][]float64) *linalg.Matrix {
	t.Helper()
	m, err := linalg.MatrixFromRows(rows)
	if err != nil {
		t.Fatalf("MatrixFromRows: %v", err)
	}
	return m
}

func randomNonNegMatrix(r *rand.Rand, n int) *linalg.Matrix {
	m := linalg.NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			m.Set(i, j, r.Float64()*4)
		}
		// Diagonal dominance keeps test systems well-conditioned.
		m.Set(i, i, m.At(i, i)+8)
	}
	return m
}

func TestConfigValidation(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*Config)
	}{
		{"negative size", func(c *Config) { c.Size = -1 }},
		{"bad IO bits", func(c *Config) { c.IOBits = 30 }},
		{"bad write bits", func(c *Config) { c.WriteBits = -2 }},
		{"NaN cycle noise", func(c *Config) { c.CycleNoise = math.NaN() }},
		{"NaN wire resistance", func(c *Config) { c.WireResistance = math.NaN() }},
		{"infinite wire resistance", func(c *Config) { c.WireResistance = math.Inf(1) }},
		{"NaN write-verify tolerance", func(c *Config) { c.WriteVerifyTol = math.NaN() }},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			cfg := idealConfig(16)
			tc.mutate(&cfg)
			if _, err := New(cfg); !errors.Is(err, ErrBadConfig) {
				t.Errorf("New = %v, want ErrBadConfig", err)
			}
		})
	}
}

func TestDefaultsApplied(t *testing.T) {
	x := mustNew(t, Config{})
	cfg := x.cfg
	if cfg.Size != 4096 || cfg.IOBits != 8 || cfg.WriteBits != 14 {
		t.Errorf("defaults wrong: %+v", cfg)
	}
}

func TestProgramRejections(t *testing.T) {
	x := mustNew(t, idealConfig(4))
	if err := x.Program(linalg.NewMatrix(5, 3)); !errors.Is(err, ErrTooLarge) {
		t.Errorf("oversize: %v, want ErrTooLarge", err)
	}
	neg := mustMatrix(t, [][]float64{{1, -1}, {0, 1}})
	if err := x.Program(neg); !errors.Is(err, ErrNegative) {
		t.Errorf("negative: %v, want ErrNegative", err)
	}
	inf := mustMatrix(t, [][]float64{{1, math.Inf(1)}, {0, 1}})
	if err := x.Program(inf); !errors.Is(err, ErrBadConfig) {
		t.Errorf("non-finite: %v, want ErrBadConfig", err)
	}
}

func TestUnprogrammedOperationsFail(t *testing.T) {
	x := mustNew(t, idealConfig(4))
	if x.target != nil {
		t.Error("fresh crossbar claims programmed")
	}
	if _, err := x.MatVec(linalg.VectorOf(1)); !errors.Is(err, ErrNotProgrammed) {
		t.Errorf("MatVec: %v, want ErrNotProgrammed", err)
	}
	if _, err := x.Solve(linalg.VectorOf(1)); !errors.Is(err, ErrNotProgrammed) {
		t.Errorf("Solve: %v, want ErrNotProgrammed", err)
	}
	if err := x.UpdateRow(0, linalg.VectorOf(1)); !errors.Is(err, ErrNotProgrammed) {
		t.Errorf("UpdateRow: %v, want ErrNotProgrammed", err)
	}
}

func TestMatVecMatchesIdeal(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	x := mustNew(t, idealConfig(32))
	a := randomNonNegMatrix(r, 8)
	if err := x.Program(a); err != nil {
		t.Fatalf("Program: %v", err)
	}
	v := linalg.NewVector(8)
	for i := range v {
		v[i] = r.Float64()*2 - 1
	}
	got, err := x.MatVec(v)
	if err != nil {
		t.Fatalf("MatVec: %v", err)
	}
	want, err := a.MatVec(v)
	if err != nil {
		t.Fatalf("ideal: %v", err)
	}
	for i := range want {
		if rel := math.Abs(got[i]-want[i]) / (1 + math.Abs(want[i])); rel > 2e-3 {
			t.Errorf("MatVec[%d] = %v, want %v (rel %v)", i, got[i], want[i], rel)
		}
	}
}

func TestSolveMatchesIdeal(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	x := mustNew(t, idealConfig(32))
	a := randomNonNegMatrix(r, 8)
	if err := x.Program(a); err != nil {
		t.Fatalf("Program: %v", err)
	}
	b := linalg.NewVector(8)
	for i := range b {
		b[i] = r.Float64()*2 - 1
	}
	got, err := x.Solve(b)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	want, err := linalg.SolveDense(a, b)
	if err != nil {
		t.Fatalf("ideal: %v", err)
	}
	for i := range want {
		if rel := math.Abs(got[i]-want[i]) / (1 + math.Abs(want[i])); rel > 2e-3 {
			t.Errorf("Solve[%d] = %v, want %v (rel %v)", i, got[i], want[i], rel)
		}
	}
}

func TestSolveRequiresSquare(t *testing.T) {
	x := mustNew(t, idealConfig(8))
	a := linalg.NewMatrix(3, 2)
	a.Set(0, 0, 1)
	a.Set(1, 1, 1)
	a.Set(2, 0, 1)
	if err := x.Program(a); err != nil {
		t.Fatalf("Program: %v", err)
	}
	if _, err := x.Solve(linalg.VectorOf(1, 2, 3)); !errors.Is(err, linalg.ErrNotSquare) {
		t.Errorf("Solve: %v, want ErrNotSquare", err)
	}
}

func TestSolveSingularReported(t *testing.T) {
	x := mustNew(t, idealConfig(8))
	// Identical rows map to identical conductance rows (same row sum, same
	// quantization), so the conductance network is exactly singular.
	a := mustMatrix(t, [][]float64{{1, 2}, {1, 2}})
	if err := x.Program(a); err != nil {
		t.Fatalf("Program: %v", err)
	}
	_, err := x.Solve(linalg.VectorOf(1, 1))
	if !errors.Is(err, ErrSingular) {
		t.Errorf("Solve singular: %v, want ErrSingular", err)
	}
}

func TestVariationDegradesAccuracyMonotonically(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	a := randomNonNegMatrix(r, 12)
	v := linalg.NewVector(12)
	for i := range v {
		v[i] = r.Float64()*2 - 1
	}
	want, err := a.MatVec(v)
	if err != nil {
		t.Fatalf("ideal: %v", err)
	}

	errAt := func(mag float64) float64 {
		var worst float64
		// Average over several seeds to avoid flaky ordering.
		for seed := int64(0); seed < 8; seed++ {
			var vm *variation.Model
			if mag > 0 {
				m, err := variation.NewPaperModel(mag, seed)
				if err != nil {
					t.Fatalf("NewPaperModel: %v", err)
				}
				vm = m
			}
			cfg := idealConfig(16)
			cfg.Variation = vm
			x := mustNew(t, cfg)
			if err := x.Program(a); err != nil {
				t.Fatalf("Program: %v", err)
			}
			got, err := x.MatVec(v)
			if err != nil {
				t.Fatalf("MatVec: %v", err)
			}
			diff := got.Clone()
			if err := diff.AxpyInPlace(-1, want); err != nil {
				t.Fatal(err)
			}
			worst += diff.NormInf() / want.NormInf()
		}
		return worst / 8
	}

	e0, e5, e20 := errAt(0), errAt(0.05), errAt(0.20)
	if e0 > 1e-3 {
		t.Errorf("no-variation error = %v, want ≈0", e0)
	}
	if e5 <= e0 {
		t.Errorf("5%% variation error %v not above baseline %v", e5, e0)
	}
	if e20 <= e5 {
		t.Errorf("20%% variation error %v not above 5%% error %v", e20, e5)
	}
}

func TestUpdateRowChangesResult(t *testing.T) {
	x := mustNew(t, idealConfig(8))
	a := mustMatrix(t, [][]float64{{1, 0}, {0, 1}})
	if err := x.Program(a); err != nil {
		t.Fatalf("Program: %v", err)
	}
	if err := x.UpdateRow(0, linalg.VectorOf(0, 1)); err != nil {
		t.Fatalf("UpdateRow: %v", err)
	}
	got, err := x.MatVec(linalg.VectorOf(3, 5))
	if err != nil {
		t.Fatalf("MatVec: %v", err)
	}
	if math.Abs(got[0]-5) > 0.05 || math.Abs(got[1]-5) > 0.05 {
		t.Errorf("after update got %v, want [5 5]", got)
	}
}

func TestUpdateRowValidation(t *testing.T) {
	x := mustNew(t, idealConfig(8))
	a := mustMatrix(t, [][]float64{{1, 0}, {0, 1}})
	if err := x.Program(a); err != nil {
		t.Fatalf("Program: %v", err)
	}
	if err := x.UpdateRow(5, linalg.VectorOf(1, 1)); !errors.Is(err, linalg.ErrDimensionMismatch) {
		t.Errorf("bad row index: %v", err)
	}
	if err := x.UpdateRow(0, linalg.VectorOf(1)); !errors.Is(err, linalg.ErrDimensionMismatch) {
		t.Errorf("bad row len: %v", err)
	}
	if err := x.UpdateRow(0, linalg.VectorOf(-1, 0)); !errors.Is(err, ErrNegative) {
		t.Errorf("negative value: %v", err)
	}
	// A much larger row is absorbed by per-row rescaling, not refused.
	if err := x.UpdateRow(0, linalg.VectorOf(100, 100)); err != nil {
		t.Errorf("large row update: %v, want success via per-row rescale", err)
	}
	got, err := x.MatVec(linalg.VectorOf(1, 1))
	if err != nil {
		t.Fatalf("MatVec: %v", err)
	}
	if math.Abs(got[0]-200) > 2 {
		t.Errorf("after rescaled update got %v, want ≈200", got[0])
	}
}

func TestCountersAccumulate(t *testing.T) {
	x := mustNew(t, idealConfig(8))
	a := mustMatrix(t, [][]float64{{1, 0}, {0, 1}})
	if err := x.Program(a); err != nil {
		t.Fatalf("Program: %v", err)
	}
	c := x.Counters()
	// Only cells whose conductance target changes are written: the 2x2
	// identity has two non-zero cells.
	if c.CellWrites != 2 {
		t.Errorf("CellWrites after 2x2 program = %d, want 2", c.CellWrites)
	}
	if _, err := x.MatVec(linalg.VectorOf(1, 1)); err != nil {
		t.Fatalf("MatVec: %v", err)
	}
	if _, err := x.Solve(linalg.VectorOf(1, 1)); err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if err := x.UpdateRow(0, linalg.VectorOf(0.5, 0)); err != nil {
		t.Fatalf("UpdateRow: %v", err)
	}
	c = x.Counters()
	if c.MatVecOps != 1 || c.SolveOps != 1 {
		t.Errorf("ops = %+v, want 1 matvec / 1 solve", c)
	}
	// Scaling a row is absorbed entirely by its digital per-row gain: the
	// conductance targets are unchanged, so no cell is written.
	if c.CellWrites != 2 {
		t.Errorf("CellWrites = %d, want 2 (program only; row rescale is digital)", c.CellWrites)
	}
	if c.IOConversions == 0 {
		t.Error("IOConversions not counted")
	}
}

func TestCountersAdd(t *testing.T) {
	a := Counters{CellWrites: 1, MatVecOps: 2, SolveOps: 3, IOConversions: 4}
	b := Counters{CellWrites: 10, MatVecOps: 20, SolveOps: 30, IOConversions: 40}
	got := a.Add(b)
	want := Counters{CellWrites: 11, MatVecOps: 22, SolveOps: 33, IOConversions: 44}
	if got != want {
		t.Errorf("Add = %+v, want %+v", got, want)
	}
}

func TestScaleReported(t *testing.T) {
	x := mustNew(t, idealConfig(8))
	a := mustMatrix(t, [][]float64{{3, 1}, {0, 2}})
	if err := x.Program(a); err != nil {
		t.Fatalf("Program: %v", err)
	}
	// Required scale: max over rows of (rowsum + maxElem·gs/gmax), divided
	// by the headroom ρ. Row 0: 4 + 3·(gs/gmax); row 1: 2 + 2·(gs/gmax).
	ratio := senseConductance / memristor.GMax
	want := (4 + 3*ratio) / maxRowSum
	if got := math.Max(x.rowScale[0], x.rowScale[1]); math.Abs(got-want)/want > 1e-12 {
		t.Errorf("Scale = %v, want %v", got, want)
	}
}

func TestZeroMatrixMatVec(t *testing.T) {
	x := mustNew(t, idealConfig(8))
	if err := x.Program(linalg.NewMatrix(3, 3)); err != nil {
		t.Fatalf("Program zero: %v", err)
	}
	got, err := x.MatVec(linalg.VectorOf(1, 2, 3))
	if err != nil {
		t.Fatalf("MatVec: %v", err)
	}
	if got.NormInf() != 0 {
		t.Errorf("zero matrix MatVec = %v, want zeros", got)
	}
}

func TestLowPrecisionIOIntroducesBoundedError(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	a := randomNonNegMatrix(r, 6)
	v := linalg.NewVector(6)
	for i := range v {
		v[i] = r.Float64()*2 - 1
	}
	want, err := a.MatVec(v)
	if err != nil {
		t.Fatalf("ideal: %v", err)
	}
	cfg := idealConfig(8)
	cfg.IOBits = 4 // extremely coarse
	x := mustNew(t, cfg)
	if err := x.Program(a); err != nil {
		t.Fatalf("Program: %v", err)
	}
	got, err := x.MatVec(v)
	if err != nil {
		t.Fatalf("MatVec: %v", err)
	}
	diff := got.Clone()
	if err := diff.AxpyInPlace(-1, want); err != nil {
		t.Fatal(err)
	}
	rel := diff.NormInf() / want.NormInf()
	if rel == 0 {
		t.Error("4-bit I/O produced exact result; quantization not modeled?")
	}
	if rel > 0.5 {
		t.Errorf("4-bit I/O error %v unreasonably large", rel)
	}
}

func TestEffectiveMatrixCloseToTarget(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	x := mustNew(t, idealConfig(16))
	a := randomNonNegMatrix(r, 6)
	if err := x.Program(a); err != nil {
		t.Fatalf("Program: %v", err)
	}
	eff, err := x.EffectiveMatrix()
	if err != nil {
		t.Fatalf("EffectiveMatrix: %v", err)
	}
	if !eff.Equal(a, 0.05) {
		t.Errorf("effective matrix far from target:\n%v\nvs\n%v", eff, a)
	}
}

func TestEffectiveMatrixUnprogrammed(t *testing.T) {
	x := mustNew(t, idealConfig(4))
	if _, err := x.EffectiveMatrix(); !errors.Is(err, ErrNotProgrammed) {
		t.Errorf("EffectiveMatrix: %v", err)
	}
}

func TestMatVecResidualMatchesManualSubtraction(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	x := mustNew(t, idealConfig(16))
	a := randomNonNegMatrix(r, 8)
	if err := x.Program(a); err != nil {
		t.Fatalf("Program: %v", err)
	}
	v := linalg.NewVector(8)
	base := linalg.NewVector(8)
	for i := range v {
		v[i] = r.Float64()*2 - 1
		base[i] = r.Float64() * 10
	}
	got, err := x.MatVecResidual(base, v, nil)
	if err != nil {
		t.Fatalf("MatVecResidual: %v", err)
	}
	want, err := a.MatVec(v)
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		exact := base[i] - want[i]
		if rel := math.Abs(got[i]-exact) / (1 + math.Abs(exact)); rel > 5e-3 {
			t.Errorf("residual[%d] = %v, want %v", i, got[i], exact)
		}
	}
}

func TestMatVecResidualFactor(t *testing.T) {
	r := rand.New(rand.NewSource(24))
	x := mustNew(t, idealConfig(16))
	a := randomNonNegMatrix(r, 6)
	if err := x.Program(a); err != nil {
		t.Fatalf("Program: %v", err)
	}
	v := linalg.NewVector(6)
	v.Fill(1)
	base := linalg.NewVector(6)
	factor := linalg.NewVector(6)
	factor.Fill(0.5)
	got, err := x.MatVecResidual(base, v, factor)
	if err != nil {
		t.Fatalf("MatVecResidual: %v", err)
	}
	want, err := a.MatVec(v)
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		exact := -0.5 * want[i]
		if rel := math.Abs(got[i]-exact) / (1 + math.Abs(exact)); rel > 5e-3 {
			t.Errorf("halved residual[%d] = %v, want %v", i, got[i], exact)
		}
	}
}

func TestMatVecResidualValidation(t *testing.T) {
	x := mustNew(t, idealConfig(8))
	if _, err := x.MatVecResidual(linalg.VectorOf(1), linalg.VectorOf(1), nil); !errors.Is(err, ErrNotProgrammed) {
		t.Errorf("unprogrammed: %v", err)
	}
	a := mustMatrix(t, [][]float64{{1, 0}, {0, 1}})
	if err := x.Program(a); err != nil {
		t.Fatalf("Program: %v", err)
	}
	if _, err := x.MatVecResidual(linalg.VectorOf(1, 2), linalg.VectorOf(1), nil); !errors.Is(err, linalg.ErrDimensionMismatch) {
		t.Errorf("bad input len: %v", err)
	}
	if _, err := x.MatVecResidual(linalg.VectorOf(1), linalg.VectorOf(1, 2), nil); !errors.Is(err, linalg.ErrDimensionMismatch) {
		t.Errorf("bad base len: %v", err)
	}
	if _, err := x.MatVecResidual(linalg.VectorOf(1, 2), linalg.VectorOf(1, 2), linalg.VectorOf(1)); !errors.Is(err, linalg.ErrDimensionMismatch) {
		t.Errorf("bad factor len: %v", err)
	}
}
