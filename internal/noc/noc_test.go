package noc

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"time"

	"github.com/memlp/memlp/internal/crossbar"
	"github.com/memlp/memlp/internal/linalg"
	"github.com/memlp/memlp/internal/memristor"
	"github.com/memlp/memlp/internal/quant"
	"github.com/memlp/memlp/internal/variation"
)

// smallTileConfig forces multiple tiles even for modest matrices.
func smallTileConfig(topology Topology) Config {
	return Config{
		Topology: topology,
		TileSize: 8,
		Crossbar: crossbar.Config{IOBits: 16, WriteBits: 16},
	}
}

func mustFabric(t *testing.T, cfg Config) *TiledFabric {
	t.Helper()
	f, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return f
}

// matVec reads f·v into a new vector at one worker.
func matVec(f *TiledFabric, v linalg.Vector) (linalg.Vector, error) {
	out := linalg.NewVector(f.rows)
	return out, f.MatVecInto(out, v, 1)
}

// tileMatrix returns the block tile k realizes, composed from its
// EffectiveRow rows.
func tileMatrix(f *TiledFabric, k int) *linalg.Matrix {
	rlo, rhi, clo, chi := f.span(k/f.gridC, k%f.gridC)
	m := linalg.NewMatrix(rhi-rlo, chi-clo)
	var p linalg.Pattern
	p.Start(m.Rows(), 0)
	for r := 0; r < m.Rows(); r++ {
		f.tiles[k].xb[0].EffectiveRow(r, m.RawRow(r), 0, &p)
		p.EndRow(r)
	}
	return m
}

func randomNonNeg(r *rand.Rand, rows, cols int) *linalg.Matrix {
	m := linalg.NewMatrix(rows, cols)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			m.Set(i, j, r.Float64()*3)
		}
	}
	for i := 0; i < rows && i < cols; i++ {
		m.Set(i, i, m.At(i, i)+10)
	}
	return m
}

func TestConfigValidation(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*Config)
	}{
		{"bad topology", func(c *Config) { c.Topology = Topology(9) }},
		{"bad tile size", func(c *Config) { c.TileSize = -1 }},
		{"negative hop latency", func(c *Config) { c.HopLatency = -1 }},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			cfg := smallTileConfig(Mesh)
			tc.mutate(&cfg)
			if _, err := New(cfg); !errors.Is(err, ErrBadConfig) {
				t.Errorf("New = %v, want ErrBadConfig", err)
			}
		})
	}
}

func TestDefaults(t *testing.T) {
	cfg, err := Config{}.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Topology != Hierarchical || cfg.TileSize != 512 || cfg.HopLatency != 5*time.Nanosecond || cfg.HopEnergyPerElement != 0.1e-9 {
		t.Errorf("defaults wrong: %+v", cfg)
	}
	if f := mustFabric(t, Config{}); f.r.cfg != cfg {
		t.Errorf("New kept %+v, want the resolved %+v", f.r.cfg, cfg)
	}
}

func TestTopologyString(t *testing.T) {
	if Hierarchical.String() != "hierarchical" || Mesh.String() != "mesh" {
		t.Error("Topology.String wrong")
	}
	if Topology(7).String() == "" {
		t.Error("unknown topology String empty")
	}
}

func TestUnprogrammedOps(t *testing.T) {
	f := mustFabric(t, smallTileConfig(Mesh))
	if _, err := matVec(f, linalg.VectorOf(1)); !errors.Is(err, crossbar.ErrNotProgrammed) {
		t.Errorf("MatVec: %v", err)
	}
	if _, err := f.Solve(linalg.VectorOf(1)); !errors.Is(err, crossbar.ErrNotProgrammed) {
		t.Errorf("Solve: %v", err)
	}
	if err := f.UpdateRow(0, linalg.VectorOf(1)); !errors.Is(err, crossbar.ErrNotProgrammed) {
		t.Errorf("UpdateRow: %v", err)
	}
	if err := f.UpdateCellInPlace(0, 0, 1); !errors.Is(err, crossbar.ErrNotProgrammed) {
		t.Errorf("UpdateCellInPlace: %v", err)
	}
}

func TestTiledMatVecMatchesIdeal(t *testing.T) {
	for _, topo := range []Topology{Hierarchical, Mesh} {
		t.Run(topo.String(), func(t *testing.T) {
			r := rand.New(rand.NewSource(4))
			f := mustFabric(t, smallTileConfig(topo))
			a := randomNonNeg(r, 20, 20) // 3x3 tile grid with ragged edges
			if err := f.Program(a); err != nil {
				t.Fatalf("Program: %v", err)
			}
			if tiles := len(f.tiles); tiles != 9 {
				t.Errorf("tiles = %d, want 9", tiles)
			}
			v := linalg.NewVector(20)
			for i := range v {
				v[i] = r.Float64()*2 - 1
			}
			got, err := matVec(f, v)
			if err != nil {
				t.Fatalf("MatVec: %v", err)
			}
			want, err := a.MatVec(v)
			if err != nil {
				t.Fatal(err)
			}
			for i := range want {
				if rel := math.Abs(got[i]-want[i]) / (1 + math.Abs(want[i])); rel > 5e-3 {
					t.Errorf("MatVec[%d] = %v, want %v", i, got[i], want[i])
				}
			}
		})
	}
}

func TestTiledSolveMatchesIdeal(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	f := mustFabric(t, smallTileConfig(Hierarchical))
	a := randomNonNeg(r, 20, 20)
	if err := f.Program(a); err != nil {
		t.Fatalf("Program: %v", err)
	}
	b := linalg.NewVector(20)
	for i := range b {
		b[i] = r.Float64()*2 - 1
	}
	got, err := f.Solve(b)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	want, err := linalg.SolveDense(a, b)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if rel := math.Abs(got[i]-want[i]) / (1 + math.Abs(want[i])); rel > 5e-3 {
			t.Errorf("Solve[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

// TestComposedSolveCounted pins that a composed solve reaches the cost
// model: the tiles never settle on their own, so the fabric's counters must
// carry the one analog settle and the conversions of b and x, exactly as a
// single crossbar's Solve counts itself.
func TestComposedSolveCounted(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	f := mustFabric(t, smallTileConfig(Mesh))
	a := randomNonNeg(r, 16, 16) // 2x2 tile grid
	if err := f.Program(a); err != nil {
		t.Fatalf("Program: %v", err)
	}
	before := f.Counters()
	b := linalg.NewVector(16)
	b.Fill(1)
	if _, err := f.Solve(b); err != nil {
		t.Fatalf("Solve: %v", err)
	}
	c := f.Counters().Sub(before)
	if c.SolveOps != 1 {
		t.Errorf("SolveOps = %d after one composed solve, want 1", c.SolveOps)
	}
	if c.IOConversions != 2*16 {
		t.Errorf("IOConversions = %d, want %d (b in, x out)", c.IOConversions, 2*16)
	}
	if c.MatVecOps != 0 || c.CellWrites != 0 {
		t.Errorf("solve charged tile work: %+v", c)
	}
}

// TestComposedIOHonoursGlobalRange pins that the fabric's I/O boundary uses
// the crossbar converter model: with GlobalIORange the composed solve and
// the residual come out on one shared full-scale grid, not per element.
func TestComposedIOHonoursGlobalRange(t *testing.T) {
	const bits = 4
	cfg := smallTileConfig(Hierarchical)
	cfg.Crossbar.IOBits = bits
	cfg.Crossbar.GlobalIORange = true
	f := mustFabric(t, cfg)
	r := rand.New(rand.NewSource(8))
	a := randomNonNeg(r, 12, 12)
	if err := f.Program(a); err != nil {
		t.Fatalf("Program: %v", err)
	}
	v := linalg.NewVector(12)
	for i := range v {
		v[i] = r.Float64()*2 - 1
	}
	x, err := f.Solve(v)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	res, err := f.MatVecResidual(v, v, nil)
	if err != nil {
		t.Fatalf("MatVecResidual: %v", err)
	}
	for name, out := range map[string]linalg.Vector{"Solve": x, "MatVecResidual": res} {
		q, err := quant.SymmetricAroundZero(bits, out.NormInf())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for i, e := range out {
			if g := q.Quantize(e); !linalg.Identical(g, e) {
				t.Errorf("%s[%d] = %v is off the %d-bit grid of ‖·‖∞ = %v (nearest %v)", name, i, e, bits, out.NormInf(), g)
			}
		}
	}
}

func TestTiledUpdateRow(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	f := mustFabric(t, smallTileConfig(Mesh))
	a := randomNonNeg(r, 12, 12)
	if err := f.Program(a); err != nil {
		t.Fatalf("Program: %v", err)
	}
	newRow := linalg.NewVector(12)
	newRow[3] = 7
	if err := f.UpdateRow(9, newRow); err != nil {
		t.Fatalf("UpdateRow: %v", err)
	}
	v := linalg.NewVector(12)
	v[3] = 1
	got, err := matVec(f, v)
	if err != nil {
		t.Fatalf("MatVec: %v", err)
	}
	if math.Abs(got[9]-7) > 0.1 {
		t.Errorf("row update not visible: got[9] = %v, want 7", got[9])
	}
	if err := f.UpdateRow(99, newRow); !errors.Is(err, linalg.ErrDimensionMismatch) {
		t.Errorf("bad row: %v", err)
	}
}

func TestTiledUpdateCellInPlace(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	f := mustFabric(t, smallTileConfig(Mesh))
	a := randomNonNeg(r, 12, 12)
	if err := f.Program(a); err != nil {
		t.Fatalf("Program: %v", err)
	}
	if err := f.UpdateCellInPlace(10, 10, 2.5); err != nil {
		t.Fatalf("UpdateCellInPlace: %v", err)
	}
	v := linalg.NewVector(12)
	v[10] = 1
	got, err := matVec(f, v)
	if err != nil {
		t.Fatalf("MatVec: %v", err)
	}
	if math.Abs(got[10]-2.5) > 0.1 {
		t.Errorf("cell update not visible: got[10] = %v, want 2.5", got[10])
	}
	if err := f.UpdateCellInPlace(-1, 0, 1); !errors.Is(err, linalg.ErrDimensionMismatch) {
		t.Errorf("bad cell: %v", err)
	}
}

func TestHopAccounting(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	a := randomNonNeg(r, 16, 16)
	v := linalg.NewVector(16)
	v.Fill(1)

	hier := mustFabric(t, smallTileConfig(Hierarchical))
	if err := hier.Program(a); err != nil {
		t.Fatalf("Program: %v", err)
	}
	if _, err := matVec(hier, v); err != nil {
		t.Fatalf("MatVec: %v", err)
	}
	mesh := mustFabric(t, smallTileConfig(Mesh))
	if err := mesh.Program(a); err != nil {
		t.Fatalf("Program: %v", err)
	}
	if _, err := matVec(mesh, v); err != nil {
		t.Fatalf("MatVec: %v", err)
	}

	hs, ms := hier.Stats(), mesh.Stats()
	if hs.Transfers == 0 || ms.Transfers == 0 {
		t.Fatal("transfers not tracked")
	}
	if hs.ElementHops == 0 || ms.ElementHops == 0 {
		t.Fatal("element-hops not tracked")
	}
	// 2x2 grid: quad-tree depth is 1+1 = 2 for every tile; mesh worst case
	// is 1+1+1 = 3 hops to tile (1,1). Every transfer is charged the worst.
	if hs.SerialHops != 2*hs.Transfers {
		t.Errorf("hierarchical SerialHops = %d, want 2 × %d transfers", hs.SerialHops, hs.Transfers)
	}
	if ms.SerialHops != 3*ms.Transfers {
		t.Errorf("mesh SerialHops = %d, want 3 × %d transfers", ms.SerialHops, ms.Transfers)
	}
}

// TestReProgramPricesTheNewGrid pins that a Program onto a new grid prices
// its transfers, and every later one, on that grid, while the stats of the
// earlier grid stay in the cumulative ledger: the two grids' windows add.
func TestReProgramPricesTheNewGrid(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	for _, tc := range []struct {
		topo        Topology
		small, wide int // worst-case hops of the 1x1 and 3x3 grids
	}{{Hierarchical, 1, 3}, {Mesh, 1, 5}} {
		f := mustFabric(t, smallTileConfig(tc.topo))
		if err := f.Program(randomNonNeg(r, 20, 20)); err != nil {
			t.Fatal(err)
		}
		wide := f.Stats()
		if wide.Transfers != 9 || wide.SerialHops != int64(9*tc.wide) {
			t.Errorf("%v 3x3 Program: %+v, want 9 transfers at %d hops", tc.topo, wide, tc.wide)
		}
		if err := f.Program(randomNonNeg(r, 8, 8)); err != nil {
			t.Fatal(err)
		}
		v := linalg.NewVector(8)
		v.Fill(1)
		if _, err := matVec(f, v); err != nil {
			t.Fatal(err)
		}
		small := f.Stats().Sub(wide)
		// One programming transfer, then a scatter and a gather, each
		// crossing the single tile's one hop.
		if want := (Stats{Transfers: 3, ElementHops: 3 * 8, SerialHops: int64(3 * tc.small)}); small != want {
			t.Errorf("%v 1x1 window = %+v, want %+v", tc.topo, small, want)
		}
		if got := wide.Add(small); got != f.Stats() {
			t.Errorf("%v: windows add to %+v, want the ledger's %+v", tc.topo, got, f.Stats())
		}
	}
}

// TestProgramReusesTheGrid pins that a Program onto a grid of the same
// shape rewrites the arrays it holds, building no crossbar, while the
// counters and the transfers stay cumulative, and that a Program onto a new
// shape builds new arrays and keeps the replaced ones' counts.
func TestProgramReusesTheGrid(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	f := mustFabric(t, smallTileConfig(Mesh))
	if err := f.Program(randomNonNeg(r, 16, 16)); err != nil {
		t.Fatal(err)
	}
	arrays := []*crossbar.Crossbar{}
	f.each(func(xb *crossbar.Crossbar) { arrays = append(arrays, xb) })
	first, firstStats := f.Counters(), f.Stats()
	// 15×13 keeps the 2×2 grid with ragged last tiles.
	if err := f.Program(randomNonNeg(r, 15, 13)); err != nil {
		t.Fatal(err)
	}
	k := 0
	f.each(func(xb *crossbar.Crossbar) {
		if xb != arrays[k] {
			t.Errorf("array %d rebuilt on an unchanged grid", k)
		}
		k++
	})
	if got, want := f.Counters().CellWrites, first.CellWrites+15*13; got != want {
		t.Errorf("CellWrites = %d after two Programs, want %d", got, want)
	}
	if got, want := f.Stats().Transfers, 2*firstStats.Transfers; got != want {
		t.Errorf("Transfers = %d after two Programs, want %d", got, want)
	}
	before := f.Counters()
	if err := f.Program(randomNonNeg(r, 8, 8)); err != nil {
		t.Fatal(err)
	}
	if len(f.tiles) != 1 || f.tiles[0].xb[0] == arrays[0] {
		t.Fatal("a Program onto a 1×1 grid kept the 2×2 grid's arrays")
	}
	if got, want := f.Counters().CellWrites, before.CellWrites+8*8; got != want {
		t.Errorf("CellWrites = %d across a new grid, want %d", got, want)
	}
}

// TestSignedFabricOnlyMultiplies pins that a signed fabric holds negative
// coefficients for MatVec and rejects the operations a differential pair
// has no model for.
func TestSignedFabricOnlyMultiplies(t *testing.T) {
	f, err := NewSigned(smallTileConfig(Mesh), func(i, j, side int) int64 { return int64(side) })
	if err != nil {
		t.Fatal(err)
	}
	a := randomNonNeg(rand.New(rand.NewSource(13)), 12, 12)
	a.Set(3, 9, -2)
	if err := f.Program(a); err != nil {
		t.Fatalf("Program with a negative coefficient: %v", err)
	}
	v := linalg.NewVector(12)
	v[9] = 1
	got, err := matVec(f, v)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got[3]+2) > 0.01 {
		t.Errorf("(A·e₉)[3] = %v, want -2", got[3])
	}
	if err := f.UpdateRow(0, v); !errors.Is(err, ErrBadConfig) {
		t.Errorf("UpdateRow = %v, want ErrBadConfig", err)
	}
	if err := f.UpdateCellInPlace(0, 0, 1); !errors.Is(err, ErrBadConfig) {
		t.Errorf("UpdateCellInPlace = %v, want ErrBadConfig", err)
	}
	if _, err := f.Solve(v); !errors.Is(err, ErrBadConfig) {
		t.Errorf("Solve = %v, want ErrBadConfig", err)
	}
}

func TestCountersAggregate(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	f := mustFabric(t, smallTileConfig(Hierarchical))
	a := randomNonNeg(r, 16, 16)
	if err := f.Program(a); err != nil {
		t.Fatalf("Program: %v", err)
	}
	c := f.Counters()
	if c.CellWrites != 16*16 {
		t.Errorf("CellWrites = %d, want 256", c.CellWrites)
	}
	v := linalg.NewVector(16)
	if _, err := matVec(f, v); err != nil {
		t.Fatalf("MatVec: %v", err)
	}
	if got := f.Counters().MatVecOps; got != 4 {
		t.Errorf("MatVecOps = %d, want 4 (one per tile)", got)
	}
}

// TestFaultCensusSumsTiles checks that every tile is its own die: the
// fabric's census is the sum of its tiles' censuses over their mapped
// regions, each tile's defects placed at the fault seed offset by its
// row-major index + 1, so two full tiles holding the same block realize
// different matrices. The census is empty before the first Program.
func TestFaultCensusSumsTiles(t *testing.T) {
	cfg := smallTileConfig(Mesh)
	fm := &memristor.FaultModel{StuckOnDensity: 0.05, StuckOffDensity: 0.05, Seed: 1}
	cfg.Crossbar.Faults = fm
	f := mustFabric(t, cfg)
	if c := f.FaultCensus(); c != (crossbar.FaultCensus{}) {
		t.Fatalf("census before Program = %+v, want zero", c)
	}
	// 20×13 ones on 8-wide tiles: a 3×2 grid whose last row and column of
	// tiles are partly mapped, and whose full tiles hold the same block.
	a := linalg.NewMatrix(20, 13)
	for i := 0; i < 20; i++ {
		linalg.Vector(a.RawRow(i)).Fill(1)
	}
	if err := f.Program(a); err != nil {
		t.Fatalf("Program: %v", err)
	}
	var want crossbar.FaultCensus
	tile := int64(0)
	for _, rows := range []int{8, 8, 4} {
		for _, cols := range []int{8, 5} {
			die := *fm
			tile++
			die.Seed += tile
			on, off := die.CountFaults(rows, cols)
			want.StuckOn += on
			want.StuckOff += off
		}
	}
	if want.StuckOn == 0 || want.StuckOff == 0 {
		t.Fatalf("fault model placed no stuck cells (%+v); pick another seed", want)
	}
	if got := f.FaultCensus(); got != want {
		t.Errorf("FaultCensus = %+v, want the tiles' sum %+v", got, want)
	}
	// Tiles (0, 0) and (1, 0) are full 8×8 tiles of ones.
	if tileMatrix(f, 0).Equal(tileMatrix(f, 2), 0) {
		t.Error("two full tiles realize the same matrix: every tile carries one die's stuck cells")
	}
}

func TestTiledWithVariation(t *testing.T) {
	vm, err := variation.NewPaperModel(0.10, 3)
	if err != nil {
		t.Fatalf("NewPaperModel: %v", err)
	}
	cfg := smallTileConfig(Hierarchical)
	cfg.Crossbar = crossbar.Config{Variation: vm}
	f := mustFabric(t, cfg)
	r := rand.New(rand.NewSource(10))
	a := randomNonNeg(r, 16, 16)
	if err := f.Program(a); err != nil {
		t.Fatalf("Program: %v", err)
	}
	v := linalg.NewVector(16)
	v.Fill(1)
	got, err := matVec(f, v)
	if err != nil {
		t.Fatalf("MatVec: %v", err)
	}
	want, err := a.MatVec(v)
	if err != nil {
		t.Fatal(err)
	}
	diff := got.Clone()
	if err := diff.AxpyInPlace(-1, want); err != nil {
		t.Fatal(err)
	}
	rel := diff.NormInf() / want.NormInf()
	if rel == 0 {
		t.Error("variation had no effect")
	}
	if rel > 0.2 {
		t.Errorf("variation error %v unreasonably large", rel)
	}
}

func TestSolveNonSquare(t *testing.T) {
	f := mustFabric(t, smallTileConfig(Mesh))
	a := linalg.NewMatrix(12, 8)
	for i := 0; i < 8; i++ {
		a.Set(i, i, 1)
	}
	if err := f.Program(a); err != nil {
		t.Fatalf("Program: %v", err)
	}
	if _, err := f.Solve(linalg.NewVector(12)); !errors.Is(err, linalg.ErrNotSquare) {
		t.Errorf("Solve: %v, want ErrNotSquare", err)
	}
}

func TestTiledMatVecResidual(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	f := mustFabric(t, smallTileConfig(Hierarchical))
	a := randomNonNeg(r, 12, 12)
	if err := f.Program(a); err != nil {
		t.Fatalf("Program: %v", err)
	}
	v := linalg.NewVector(12)
	base := linalg.NewVector(12)
	for i := range v {
		v[i] = r.Float64()*2 - 1
		base[i] = r.Float64() * 5
	}
	got, err := f.MatVecResidual(base, v, nil)
	if err != nil {
		t.Fatalf("MatVecResidual: %v", err)
	}
	want, err := a.MatVec(v)
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		exact := base[i] - want[i]
		if rel := math.Abs(got[i]-exact) / (1 + math.Abs(exact)); rel > 1e-2 {
			t.Errorf("residual[%d] = %v, want %v", i, got[i], exact)
		}
	}
	if _, err := f.MatVecResidual(linalg.VectorOf(1), v, nil); !errors.Is(err, linalg.ErrDimensionMismatch) {
		t.Errorf("bad base: %v", err)
	}
	if _, err := f.MatVecResidual(base, v, linalg.VectorOf(1)); !errors.Is(err, linalg.ErrDimensionMismatch) {
		t.Errorf("bad factor: %v", err)
	}
}
