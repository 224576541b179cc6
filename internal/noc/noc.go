// Package noc implements the analog network-on-chip structures of §3.4
// (Fig. 3) that coordinate multiple memristor crossbars into one large
// logical compute fabric.
//
// Two topologies are modelled:
//
//   - Hierarchical (Fig. 3a): crossbars are grouped in fours under an
//     arbiter; four groups form a higher-level group under a higher-level
//     arbiter, recursively — a quad-tree whose depth is ⌈log₄(#tiles)⌉.
//     A centralized controller steers the tree.
//   - Mesh (Fig. 3b): crossbars sit in a 2-D grid with a router at each
//     node, like a multi-core mesh NoC; transfers hop across the grid with
//     distributed control.
//
// Data stays in analog form end-to-end: arbiters use analog buffers and
// bootstrapped switches (ref [21]), so a transfer costs per-hop latency and
// per-element-per-hop energy but no conversion.
//
// The TiledFabric splits a large matrix into square tiles, each programmed
// on its own crossbar. Mat-vec converts each input segment once, broadcasts
// it to its tile column, runs all tiles' analog multiplies on a worker
// count, and reduces partial sums along rows at the arbiters in one fixed
// order. A linear solve closes the arbiters' switches so the tiles'
// word/bit lines compose into one large conductance network, which settles
// as a whole; the simulation realizes this by writing the tiles' realized
// rows into one network the fabric keeps and solving it on the pattern the
// tiles' patterns compose. That fabric serves the Newton engines, whose
// arrays share one variation stream.
//
// A signed fabric (NewSigned) serves PDHG: each tile is a differential pair
// holding a block's positive part and its negated negative part, read as
// pos·v − neg·v, and every array runs at its own noise epoch, so its
// defects and noise draws do not depend on which goroutine drives it or on
// what ran before.
package noc

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"github.com/memlp/memlp/internal/crossbar"
	"github.com/memlp/memlp/internal/linalg"
)

// ErrBadConfig reports an invalid Config.
var ErrBadConfig = errors.New("noc: invalid configuration")

// Topology selects the interconnect structure of Fig. 3.
type Topology int

const (
	// Hierarchical is the quad-tree structure of Fig. 3(a).
	Hierarchical Topology = iota + 1
	// Mesh is the 2-D grid structure of Fig. 3(b).
	Mesh
)

// String implements fmt.Stringer.
func (t Topology) String() string {
	switch t {
	case Hierarchical:
		return "hierarchical"
	case Mesh:
		return "mesh"
	default:
		return fmt.Sprintf("Topology(%d)", int(t))
	}
}

// Config parameterizes a tiled fabric.
type Config struct {
	// Topology selects Fig. 3(a) or 3(b). Zero means Hierarchical.
	Topology Topology
	// TileSize is the dimension of each constituent crossbar.
	// Zero means 512.
	TileSize int
	// Crossbar configures each constituent array; its Size is overridden
	// with TileSize.
	Crossbar crossbar.Config
	// HopLatency is the analog transfer latency per NoC hop.
	// Zero means 5 ns.
	HopLatency time.Duration
	// HopEnergyPerElement is the transfer energy per vector element per hop.
	// Zero means 0.1 nJ.
	HopEnergyPerElement float64
}

// Resolve returns c with its defaults applied, or an ErrBadConfig error
// when the result is invalid. Transfers must be priced with the resolved
// config: an unresolved one charges every hop nothing.
func (c Config) Resolve() (Config, error) {
	if c.Topology == 0 {
		c.Topology = Hierarchical
	}
	if c.TileSize == 0 {
		c.TileSize = 512
	}
	if c.HopLatency == 0 {
		c.HopLatency = 5 * time.Nanosecond
	}
	if c.HopEnergyPerElement == 0 {
		c.HopEnergyPerElement = 0.1e-9
	}
	switch {
	case c.Topology != Hierarchical && c.Topology != Mesh:
		return Config{}, fmt.Errorf("%w: topology %d", ErrBadConfig, int(c.Topology))
	case c.TileSize < 1:
		return Config{}, fmt.Errorf("%w: tile size %d", ErrBadConfig, c.TileSize)
	case c.HopLatency < 0 || c.HopEnergyPerElement < 0:
		return Config{}, fmt.Errorf("%w: negative hop cost", ErrBadConfig)
	}
	return c, nil
}

// Stats accumulates interconnect activity for the cost model. Every field
// is a sum over transfers, so the stats of two windows, or of two fabrics
// with different grids, add.
type Stats struct {
	// Transfers is the number of vector-segment transfers performed.
	Transfers int64
	// ElementHops is Σ (elements moved × hops traversed).
	ElementHops int64
	// SerialHops is Σ over transfers of the worst-case hop count of the grid
	// each transfer crossed: the hops its latency is charged for.
	SerialHops int64
}

// Add returns s + o field-wise.
func (s Stats) Add(o Stats) Stats {
	return Stats{
		Transfers:   s.Transfers + o.Transfers,
		ElementHops: s.ElementHops + o.ElementHops,
		SerialHops:  s.SerialHops + o.SerialHops,
	}
}

// Sub returns s − o field-wise, for marginalizing cumulative stats on a
// persistent fabric into per-solve figures.
func (s Stats) Sub(o Stats) Stats {
	return Stats{
		Transfers:   s.Transfers - o.Transfers,
		ElementHops: s.ElementHops - o.ElementHops,
		SerialHops:  s.SerialHops - o.SerialHops,
	}
}

// track accounts one transfer of elements vector entries over hops hops on
// a grid whose longest path is worst hops. Latency is charged at the
// grid's worst case; adding hops instead would price each transfer at its
// own distance.
func (s *Stats) track(elements, hops, worst int) {
	s.Transfers++
	s.ElementHops += int64(elements * hops)
	s.SerialHops += int64(worst)
}

// TiledFabric coordinates a grid of crossbars through the NoC. It implements
// the fabric contract of a single crossbar the Newton engines drive
// (Program/UpdateRow/UpdateCellInPlace/MatVecResidual/Solve/Counters).
type TiledFabric struct {
	// r holds the configuration, the hop geometry of the tile grid, and
	// the transfers.
	r Router

	rows, cols int // logical matrix shape
	// tiles holds the grid in row-major order, gridC tiles to a row.
	tiles []tile
	gridC int
	// sides is the number of arrays per tile: 1, or 2 on a signed fabric.
	sides int
	// epoch, set on a signed fabric, gives the array on side s of tile
	// (i, j) its noise epoch; nil on a Newton fabric, whose arrays share
	// one variation stream.
	epoch func(i, j, side int) int64

	// deltaOff mirrors crossbar.SetDeltaProgramming at the fabric level; it
	// must be remembered here because a Program onto a new grid builds new
	// arrays.
	deltaOff bool

	// composed counts the composed analog solves, which belong to no
	// single tile: their settles and the conversions of b and x.
	composed crossbar.Counters
	// retired holds the counts of the arrays a Program onto a new grid
	// replaced, so the fabric's counters stay cumulative across Programs.
	retired crossbar.Counters

	// block holds the part of the matrix Program writes on one array.
	block *linalg.Matrix
	// in holds MatVecInto's input after the controller's DAC, one
	// TileSize-wide segment per tile column, and inScale each segment's
	// normalization factor.
	in      linalg.Vector
	inScale []float64
	// res holds MatVecResidual's result; net, netPat, rhs and ws hold the
	// network Solve settles, its pattern, the converted right-hand side and
	// the settle's workspace.
	res    linalg.Vector
	net    *linalg.Matrix
	netPat linalg.Pattern
	rhs    linalg.Vector
	ws     linalg.StructuredWorkspace
}

// tile is one position of the grid: the array holding its block, or on a
// signed fabric the differential pair holding the block's positive part
// (side 0) and its negated negative part (side 1).
type tile struct {
	xb [2]*crossbar.Crossbar
	// part stages the tile's partial product for the controller's
	// reduction, and err records the error of its read.
	part linalg.Vector
	err  error
}

// New returns an unprogrammed tiled fabric whose arrays share the
// configured variation model.
func New(cfg Config) (*TiledFabric, error) {
	cfg, err := cfg.Resolve()
	if err != nil {
		return nil, err
	}
	return &TiledFabric{r: Router{cfg: cfg}, sides: 1}, nil
}

// NewSigned returns an unprogrammed fabric of signed tiles, which holds a
// matrix of either sign: each tile is a differential pair read as
// pos·v − neg·v. Every array is keyed to its own noise epoch,
// epoch(i, j, side). It gets its own clone of the variation model and a
// fault seed offset by the epoch + 1 when it is built, and it is rebased to
// the epoch before every Program, so its defects and every noise draw are a
// function of (seed, epoch) alone. A signed fabric only multiplies:
// UpdateRow, UpdateCellInPlace and Solve reject it.
func NewSigned(cfg Config, epoch func(i, j, side int) int64) (*TiledFabric, error) {
	f, err := New(cfg)
	if err != nil {
		return nil, err
	}
	f.sides, f.epoch = 2, epoch
	return f, nil
}

// Stats returns the cumulative interconnect activity.
func (f *TiledFabric) Stats() Stats { return f.r.stats }

// Program writes matrix a across the tile grid, as ProgramUnpriced does,
// and prices one programming scatter per tile on that grid.
func (f *TiledFabric) Program(a *linalg.Matrix) error {
	if err := f.ProgramUnpriced(a); err != nil {
		return err
	}
	for k := range f.tiles {
		i, j := k/f.gridC, k%f.gridC
		rlo, rhi, _, _ := f.span(i, j)
		f.r.Scatter(i, j, rhi-rlo)
	}
	return nil
}

// ProgramUnpriced writes matrix a across the tile grid and prices no
// transfer. A grid of a new shape is built from new arrays, whose
// predecessors' counts the fabric keeps; a grid of the same shape is
// rewritten in place. On a signed fabric every array is rebased to its
// epoch first, so writing the same matrix again realizes the same
// conductances: PDHG's refresh. PDHG programs and refreshes its tiles here,
// because the model does not price those transfers yet. A rejected block
// leaves the fabric unprogrammed.
func (f *TiledFabric) ProgramUnpriced(a *linalg.Matrix) error {
	t := f.r.cfg.TileSize
	gridR, gridC := (a.Rows()+t-1)/t, (a.Cols()+t-1)/t
	if gridR*gridC != len(f.tiles) || gridC != f.gridC {
		f.retire()
		f.gridC = gridC
		f.r.setGrid(gridR, gridC)
		tiles := make([]tile, gridR*gridC)
		for k := range tiles {
			for side := 0; side < f.sides; side++ {
				var err error
				if tiles[k].xb[side], err = f.newArray(k, side); err != nil {
					return err
				}
			}
		}
		f.tiles = tiles
	}
	f.rows, f.cols = a.Rows(), a.Cols()
	for k := range f.tiles {
		if err := f.write(k, a); err != nil {
			f.retire()
			return err
		}
	}
	return nil
}

// newArray builds the array on the given side of tile k. Every array is its
// own die: its fault seed is offset by its id + 1, the array's epoch on a
// signed fabric and the tile's row-major index on a Newton fabric. On a
// signed fabric it also gets its own clone of the variation model.
func (f *TiledFabric) newArray(k, side int) (*crossbar.Crossbar, error) {
	i, j := k/f.gridC, k%f.gridC
	cfg := f.r.cfg.Crossbar
	cfg.Size = f.r.cfg.TileSize
	id := int64(k)
	if f.epoch != nil {
		id = f.epoch(i, j, side)
		if cfg.Variation != nil {
			cfg.Variation = cfg.Variation.Clone()
		}
	}
	if cfg.Faults != nil {
		fm := *cfg.Faults
		fm.Seed += id + 1
		cfg.Faults = &fm
	}
	xb, err := crossbar.New(cfg)
	if err != nil {
		return nil, fmt.Errorf("noc: building tile (%d,%d): %w", i, j, err)
	}
	xb.SetDeltaProgramming(!f.deltaOff)
	return xb, nil
}

// write programs tile k with its block of a: the block itself, or on a
// signed fabric its positive part and then its negated negative part.
func (f *TiledFabric) write(k int, a *linalg.Matrix) error {
	i, j := k/f.gridC, k%f.gridC
	rlo, rhi, clo, chi := f.span(i, j)
	for side, xb := range f.tiles[k].xb[:f.sides] {
		f.block = f.block.Reshape(rhi-rlo, chi-clo)
		for r := rlo; r < rhi; r++ {
			dst := f.block.RawRow(r - rlo)
			for c, v := range a.RawRow(r)[clo:chi] {
				if side == 1 {
					v = -v
				}
				// An unsigned array takes every value, and rejects the
				// ones it cannot hold.
				if v > 0 || f.sides == 1 {
					dst[c] = v
				}
			}
		}
		if f.epoch != nil {
			xb.SetNoiseEpoch(f.epoch(i, j, side))
		}
		if err := xb.Program(f.block); err != nil {
			return fmt.Errorf("noc: programming tile (%d,%d): %w", i, j, err)
		}
	}
	return nil
}

// retire drops the tile grid and keeps its arrays' counts.
func (f *TiledFabric) retire() {
	f.each(func(xb *crossbar.Crossbar) { f.retired = f.retired.Add(xb.Counters()) })
	f.tiles = nil
}

// span returns the logical rows [rlo, rhi) and columns [clo, chi) of tile
// (i, j).
func (f *TiledFabric) span(i, j int) (rlo, rhi, clo, chi int) {
	t := f.r.cfg.TileSize
	return i * t, min(i*t+t, f.rows), j * t, min(j*t+t, f.cols)
}

// unsigned returns ErrNotProgrammed before the first Program, and an
// ErrBadConfig error on a signed fabric, whose differential pairs only
// multiply.
func (f *TiledFabric) unsigned() error {
	if f.tiles == nil {
		return crossbar.ErrNotProgrammed
	}
	if f.sides > 1 {
		return fmt.Errorf("%w: a signed fabric only multiplies", ErrBadConfig)
	}
	return nil
}

// UpdateRow rewrites logical row i across the tiles that hold it.
func (f *TiledFabric) UpdateRow(i int, row linalg.Vector) error {
	if err := f.unsigned(); err != nil {
		return err
	}
	if i < 0 || i >= f.rows || len(row) != f.cols {
		return fmt.Errorf("%w: row %d len %d for %dx%d", linalg.ErrDimensionMismatch, i, len(row), f.rows, f.cols)
	}
	t := f.r.cfg.TileSize
	tr, lr := i/t, i%t
	for j := 0; j < f.gridC; j++ {
		lo, hi := j*t, min(j*t+t, f.cols)
		if err := f.tiles[tr*f.gridC+j].xb[0].UpdateRow(lr, row[lo:hi]); err != nil {
			return err
		}
		f.r.Scatter(tr, j, hi-lo)
	}
	return nil
}

// UpdateCellInPlace rewrites one logical coefficient on its tile.
func (f *TiledFabric) UpdateCellInPlace(i, j int, value float64) error {
	if err := f.unsigned(); err != nil {
		return err
	}
	if i < 0 || i >= f.rows || j < 0 || j >= f.cols {
		return fmt.Errorf("%w: cell (%d,%d) of %dx%d", linalg.ErrDimensionMismatch, i, j, f.rows, f.cols)
	}
	t := f.r.cfg.TileSize
	f.r.Scatter(i/t, j/t, 1)
	return f.tiles[i/t*f.gridC+j/t].xb[0].UpdateCellInPlace(i%t, j%t, value)
}

// MatVecInto writes the programmed matrix times v into out. The controller
// converts each input segment once and broadcasts it to its tile column,
// where every array reads the bits it would convert itself and still
// charges its own conversions (crossbar.MatVecAnalog). The tiles multiply
// on workers goroutines, each into its own buffer, and the partials are
// gathered along the tile rows and summed in row-major tile order (analog
// summation at the arbiters), so out, the counters and the transfers are
// the same for every worker count. At one worker it allocates nothing.
func (f *TiledFabric) MatVecInto(out, v linalg.Vector, workers int) error {
	if f.tiles == nil {
		return crossbar.ErrNotProgrammed
	}
	if len(v) != f.cols || len(out) != f.rows {
		return fmt.Errorf("%w: matvec input %d, output %d for %dx%d", linalg.ErrDimensionMismatch, len(v), len(out), f.rows, f.cols)
	}
	t := f.r.cfg.TileSize
	f.in = linalg.Resize(f.in, f.cols)
	f.inScale = linalg.Resize(f.inScale, f.gridC)
	for j := range f.inScale {
		lo, hi := j*t, min(j*t+t, f.cols)
		// The tiles share one converter configuration, as in quantizeIO.
		scale, err := f.tiles[0].xb[0].ToAnalog(f.in[lo:hi], v[lo:hi])
		if err != nil {
			return fmt.Errorf("noc: converting segment %d: %w", j, err)
		}
		f.inScale[j] = scale
	}
	if workers = min(workers, len(f.tiles)); workers > 1 {
		f.fanOut(workers)
	} else {
		for k := range f.tiles {
			f.read(k)
		}
	}
	out.Fill(0)
	for k := range f.tiles {
		i, j := k/f.gridC, k%f.gridC
		rlo, rhi, clo, chi := f.span(i, j)
		// Input broadcast + partial-sum collection.
		f.r.Scatter(i, j, chi-clo)
		f.r.Gather(i, j, rhi-rlo)
		if err := f.tiles[k].err; err != nil {
			return err
		}
		for r, p := range f.tiles[k].part {
			out[rlo+r] += p
		}
	}
	return nil
}

// fanOut spreads the reads over workers goroutines: worker w owns tiles w,
// w+workers, w+2·workers, … so each array is driven by one goroutine per
// read. The join is the barrier before the reduction. It is its own
// function so that a read at one worker allocates no closure.
func (f *TiledFabric) fanOut(workers int) {
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := w; k < len(f.tiles); k += workers {
				f.read(k)
			}
		}(w)
	}
	wg.Wait()
}

// read multiplies tile k's converted input segment into the tile's buffer.
// An array's result is scratch it owns, so the positive partial is copied
// out before the negative array runs.
func (f *TiledFabric) read(k int) {
	tl := &f.tiles[k]
	t, j := f.r.cfg.TileSize, k%f.gridC
	seg := f.in[j*t : min(j*t+t, f.cols)]
	tl.err = nil
	for side, xb := range tl.xb[:f.sides] {
		p, err := xb.MatVecAnalog(seg, f.inScale[j])
		if err != nil {
			tl.err = fmt.Errorf("noc: tile (%d,%d) mat-vec: %w", k/f.gridC, j, err)
			return
		}
		if side == 0 {
			tl.part = linalg.Resize(tl.part, len(p))
			copy(tl.part, p)
			continue
		}
		for r := range tl.part {
			tl.part[r] -= p[r]
		}
	}
}

// MatVecResidual computes base − factor∘(programmedMatrix·v). Each tile's
// partial product is digitized by that tile's ADC (as in MatVecInto), the
// partials are summed and subtracted from base digitally, and the residual
// passes the fabric's I/O converter once more. The result is fabric-owned
// scratch storage, valid until the next MatVecResidual call.
func (f *TiledFabric) MatVecResidual(base, v, factor linalg.Vector) (linalg.Vector, error) {
	if f.tiles == nil {
		return nil, crossbar.ErrNotProgrammed
	}
	if len(base) != f.rows {
		return nil, fmt.Errorf("%w: base %d for %d rows", linalg.ErrDimensionMismatch, len(base), f.rows)
	}
	if factor != nil && len(factor) != f.rows {
		return nil, fmt.Errorf("%w: factor %d for %d rows", linalg.ErrDimensionMismatch, len(factor), f.rows)
	}
	f.res = linalg.Resize(f.res, f.rows)
	out := f.res
	if err := f.MatVecInto(out, v, 1); err != nil {
		return nil, err
	}
	for i := range out {
		if factor != nil {
			out[i] *= factor[i]
		}
		out[i] = base[i] - out[i]
	}
	if err := f.quantizeIO(out); err != nil {
		return nil, err
	}
	return out, nil
}

// Solve solves programmedMatrix · x = b as one composed analog operation:
// the arbiters close their switches so the tiles form a single conductance
// network, which settles to the solution of the composed system. The
// simulation has every tile write its realized (variation- and
// quantization-perturbed) rows into one network the fabric keeps, builds
// the network's pattern from the tiles' patterns as the rows are written,
// and settles it on that pattern. Cost-wise this is one analog settle plus
// the tree/mesh coordination hops, and Counters charges it as such. The
// result is fabric-owned scratch storage, valid until the next Solve call.
func (f *TiledFabric) Solve(b linalg.Vector) (linalg.Vector, error) {
	if err := f.unsigned(); err != nil {
		return nil, err
	}
	if f.rows != f.cols {
		return nil, fmt.Errorf("%w: solve on %dx%d fabric", linalg.ErrNotSquare, f.rows, f.cols)
	}
	if len(b) != f.rows {
		return nil, fmt.Errorf("%w: rhs %d for %dx%d", linalg.ErrDimensionMismatch, len(b), f.rows, f.cols)
	}
	t := f.r.cfg.TileSize
	// SolvePattern reads only the pattern's cells, so the network is never
	// cleared. The pattern starts with room for the last settle's cells.
	if f.net == nil || f.net.Rows() != f.rows {
		f.net = f.net.Reshape(f.rows, f.cols)
	}
	f.netPat.Start(f.rows, f.netPat.NNZ())
	for r := 0; r < f.rows; r++ {
		dst := f.net.RawRow(r)
		for j := 0; j < f.gridC; j++ {
			f.tiles[r/t*f.gridC+j].xb[0].EffectiveRow(r%t, dst, j*t, &f.netPat)
		}
		f.netPat.EndRow(r)
	}
	f.rhs = append(f.rhs[:0], b...)
	if err := f.quantizeIO(f.rhs); err != nil {
		return nil, err
	}
	x, err := f.ws.SolvePattern(f.net, &f.netPat, f.rhs)
	if err != nil {
		if errors.Is(err, linalg.ErrSingular) {
			return nil, fmt.Errorf("%w: %v", crossbar.ErrSingular, err)
		}
		return nil, err
	}
	if err := f.quantizeIO(x); err != nil {
		return nil, err
	}
	f.composed.SolveOps++
	f.composed.IOConversions += int64(len(b) + len(x))
	// RHS distribution and solution collection across the fabric.
	for i := 0; i*f.gridC < len(f.tiles); i++ {
		rl := min(t, f.rows-i*t)
		f.r.Scatter(i, 0, rl)
		f.r.Gather(i, f.gridC-1, rl)
	}
	return x, nil
}

// SetNoiseEpoch rebases every array's stochastic write-noise state to the
// given per-problem epoch (see crossbar.SetNoiseEpoch). A Newton fabric's
// arrays share one variation model, so the reseed is idempotent across
// them; the per-array write-sequence counters and verify caches are rebased
// individually. The fabric pool calls this before each batch member so
// pooled NoC solves stay bit-identical regardless of which replica runs
// which problem.
func (f *TiledFabric) SetNoiseEpoch(epoch int64) {
	f.each(func(xb *crossbar.Crossbar) { xb.SetNoiseEpoch(epoch) })
}

// SetDeltaProgramming toggles delta-programming on every array (current and
// future — the flag survives a Program onto a new grid). See
// crossbar.SetDeltaProgramming.
func (f *TiledFabric) SetDeltaProgramming(on bool) {
	f.deltaOff = !on
	f.each(func(xb *crossbar.Crossbar) { xb.SetDeltaProgramming(on) })
}

// Counters aggregates the arrays' counters, those of the arrays earlier
// Programs replaced, and the composed solves, which settle the whole fabric
// at once.
func (f *TiledFabric) Counters() crossbar.Counters {
	total := f.composed.Add(f.retired)
	f.each(func(xb *crossbar.Crossbar) { total = total.Add(xb.Counters()) })
	return total
}

// FaultCensus sums the stuck cells of the arrays' mapped regions; without a
// fault model, or before programming, it is all zeros.
func (f *TiledFabric) FaultCensus() crossbar.FaultCensus {
	var total crossbar.FaultCensus
	f.each(func(xb *crossbar.Crossbar) {
		c := xb.FaultCensus()
		total.StuckOn += c.StuckOn
		total.StuckOff += c.StuckOff
	})
	return total
}

// each calls fn on every array, in row-major tile order.
func (f *TiledFabric) each(fn func(xb *crossbar.Crossbar)) {
	for k := range f.tiles {
		for _, xb := range f.tiles[k].xb[:f.sides] {
			fn(xb)
		}
	}
}

// quantizeIO applies the fabric's DAC/ADC boundary: the arrays share one
// converter configuration, so the first array's converter model stands for
// the fabric's (per-element or shared full-scale, per crossbar.Config).
func (f *TiledFabric) quantizeIO(v linalg.Vector) error {
	return f.tiles[0].xb[0].QuantizeIO(v)
}
