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
// on its own crossbar. Mat-vec distributes input segments to tile columns,
// runs all tiles' analog multiplies, and reduces partial sums along rows at
// the arbiters. A linear solve closes the arbiters' switches so the tiles'
// word/bit lines compose into one large conductance network, which settles
// as a whole; the simulation realizes this by solving against the composed
// effective matrices of the tiles.
package noc

import (
	"errors"
	"fmt"
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
// the same fabric contract as a single crossbar (Program/UpdateRow/
// UpdateCellInPlace/MatVec/Solve/Counters).
type TiledFabric struct {
	// r holds the configuration, the hop geometry of the tile grid, and
	// the transfers.
	r Router

	rows, cols int // logical matrix shape
	tiles      [][]*crossbar.Crossbar

	// deltaOff mirrors crossbar.SetDeltaProgramming at the fabric level; it
	// must be remembered here because Program rebuilds the tile grid.
	deltaOff bool

	// composed counts the composed analog solves, which belong to no
	// single tile: their settles and the conversions of b and x.
	composed crossbar.Counters
	// retired holds the counts of the tiles a re-Program replaced, so the
	// fabric's counters stay cumulative across Programs.
	retired crossbar.Counters

	// in holds MatVec's input after the controller's DAC, one TileSize-wide
	// segment per tile column, and inScale each segment's normalization
	// factor.
	in      linalg.Vector
	inScale []float64
}

// New returns an unprogrammed tiled fabric.
func New(cfg Config) (*TiledFabric, error) {
	cfg, err := cfg.Resolve()
	if err != nil {
		return nil, err
	}
	return &TiledFabric{r: Router{cfg: cfg}}, nil
}

// Stats returns the cumulative interconnect activity.
func (f *TiledFabric) Stats() Stats { return f.r.stats }

// Program writes matrix a across a new tile grid, on new tiles, and prices
// every programming transfer on that grid.
func (f *TiledFabric) Program(a *linalg.Matrix) error {
	t := f.r.cfg.TileSize
	gridR := (a.Rows() + t - 1) / t
	gridC := (a.Cols() + t - 1) / t
	tiles := make([][]*crossbar.Crossbar, gridR)
	for i := range tiles {
		tiles[i] = make([]*crossbar.Crossbar, gridC)
		for j := range tiles[i] {
			cfg := f.r.cfg.Crossbar
			cfg.Size = t
			xb, err := crossbar.New(cfg)
			if err != nil {
				return fmt.Errorf("noc: building tile (%d,%d): %w", i, j, err)
			}
			xb.SetDeltaProgramming(!f.deltaOff)
			rows := min(t, a.Rows()-i*t)
			cols := min(t, a.Cols()-j*t)
			block, err := a.Submatrix(i*t, j*t, rows, cols)
			if err != nil {
				return err
			}
			if err := xb.Program(block); err != nil {
				return fmt.Errorf("noc: programming tile (%d,%d): %w", i, j, err)
			}
			tiles[i][j] = xb
		}
	}
	for _, row := range f.tiles {
		for _, xb := range row {
			f.retired = f.retired.Add(xb.Counters())
		}
	}
	f.rows, f.cols = a.Rows(), a.Cols()
	f.tiles = tiles
	f.r.setGrid(gridR, gridC)
	for i, row := range tiles {
		for j := range row {
			f.r.Scatter(i, j, min(t, f.rows-i*t))
		}
	}
	return nil
}

// UpdateRow rewrites logical row i across the tiles that hold it.
func (f *TiledFabric) UpdateRow(i int, row linalg.Vector) error {
	if f.tiles == nil {
		return crossbar.ErrNotProgrammed
	}
	if i < 0 || i >= f.rows || len(row) != f.cols {
		return fmt.Errorf("%w: row %d len %d for %dx%d", linalg.ErrDimensionMismatch, i, len(row), f.rows, f.cols)
	}
	t := f.r.cfg.TileSize
	tr, lr := i/t, i%t
	for j, xb := range f.tiles[tr] {
		lo := j * t
		hi := min(lo+t, f.cols)
		if err := xb.UpdateRow(lr, row[lo:hi]); err != nil {
			return err
		}
		f.r.Scatter(tr, j, hi-lo)
	}
	return nil
}

// UpdateCellInPlace rewrites one logical coefficient on its tile.
func (f *TiledFabric) UpdateCellInPlace(i, j int, value float64) error {
	if f.tiles == nil {
		return crossbar.ErrNotProgrammed
	}
	if i < 0 || i >= f.rows || j < 0 || j >= f.cols {
		return fmt.Errorf("%w: cell (%d,%d) of %dx%d", linalg.ErrDimensionMismatch, i, j, f.rows, f.cols)
	}
	t := f.r.cfg.TileSize
	f.r.Scatter(i/t, j/t, 1)
	return f.tiles[i/t][j/t].UpdateCellInPlace(i%t, j%t, value)
}

// MatVec multiplies the programmed matrix by v: the controller converts each
// input segment once, the segments are broadcast to tile columns, every tile
// multiplies in parallel, and partial outputs are summed along tile rows at
// the arbiters (analog summation). Every tile reads its column's converted
// segment and charges its own conversions (crossbar.MatVecAnalog).
func (f *TiledFabric) MatVec(v linalg.Vector) (linalg.Vector, error) {
	if f.tiles == nil {
		return nil, crossbar.ErrNotProgrammed
	}
	if len(v) != f.cols {
		return nil, fmt.Errorf("%w: matvec input %d for %dx%d", linalg.ErrDimensionMismatch, len(v), f.rows, f.cols)
	}
	t := f.r.cfg.TileSize
	f.in = linalg.Resize(f.in, f.cols)
	f.inScale = linalg.Resize(f.inScale, len(f.tiles[0]))
	for j := range f.inScale {
		clo, chi := j*t, min(j*t+t, f.cols)
		// The tiles share one converter configuration, as in quantizeIO.
		scale, err := f.tiles[0][0].ToAnalog(f.in[clo:chi], v[clo:chi])
		if err != nil {
			return nil, fmt.Errorf("noc: converting segment %d: %w", j, err)
		}
		f.inScale[j] = scale
	}
	out := linalg.NewVector(f.rows)
	for i, row := range f.tiles {
		rlo := i * t
		rhi := min(rlo+t, f.rows)
		for j, xb := range row {
			clo := j * t
			chi := min(clo+t, f.cols)
			part, err := xb.MatVecAnalog(f.in[clo:chi], f.inScale[j])
			if err != nil {
				return nil, fmt.Errorf("noc: tile (%d,%d) mat-vec: %w", i, j, err)
			}
			for k := range part {
				out[rlo+k] += part[k]
			}
			// Input broadcast + partial-sum collection.
			f.r.Scatter(i, j, chi-clo)
			f.r.Gather(i, j, rhi-rlo)
		}
	}
	return out, nil
}

// MatVecResidual computes base − factor∘(programmedMatrix·v). Each tile's
// partial product is digitized by that tile's ADC (as in MatVec), the
// partials are summed and subtracted from base digitally, and the residual
// passes the fabric's I/O converter once more.
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
	t, err := f.MatVec(v)
	if err != nil {
		return nil, err
	}
	out := linalg.NewVector(f.rows)
	for i := range out {
		ti := t[i]
		if factor != nil {
			ti *= factor[i]
		}
		out[i] = base[i] - ti
	}
	if err := f.quantizeIO(out); err != nil {
		return nil, err
	}
	return out, nil
}

// Solve solves programmedMatrix · x = b as one composed analog operation:
// the arbiters close their switches so the tiles form a single conductance
// network, which settles to the solution of the composed system. The
// simulation assembles each tile's realized (variation- and quantization-
// perturbed) effective matrix and solves the composed system; cost-wise this
// is one analog settle plus the tree/mesh coordination hops, and Counters
// charges it as such.
func (f *TiledFabric) Solve(b linalg.Vector) (linalg.Vector, error) {
	if f.tiles == nil {
		return nil, crossbar.ErrNotProgrammed
	}
	if f.rows != f.cols {
		return nil, fmt.Errorf("%w: solve on %dx%d fabric", linalg.ErrNotSquare, f.rows, f.cols)
	}
	if len(b) != f.rows {
		return nil, fmt.Errorf("%w: rhs %d for %dx%d", linalg.ErrDimensionMismatch, len(b), f.rows, f.cols)
	}
	t := f.r.cfg.TileSize
	composed := linalg.NewMatrix(f.rows, f.cols)
	for i, row := range f.tiles {
		for j, xb := range row {
			eff, err := xb.EffectiveMatrix()
			if err != nil {
				return nil, fmt.Errorf("noc: tile (%d,%d) effective matrix: %w", i, j, err)
			}
			if err := composed.SetSubmatrix(i*t, j*t, eff); err != nil {
				return nil, err
			}
		}
	}
	rhs := b.Clone()
	if err := f.quantizeIO(rhs); err != nil {
		return nil, err
	}
	x, err := linalg.SolveStructured(composed, rhs)
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
	for i, row := range f.tiles {
		rl := min(t, f.rows-i*t)
		f.r.Scatter(i, 0, rl)
		f.r.Gather(i, len(row)-1, rl)
	}
	return x, nil
}

// SetNoiseEpoch rebases every tile's stochastic write-noise state to the
// given per-problem epoch (see crossbar.SetNoiseEpoch). Tiles share one
// variation model, so the reseed is idempotent across tiles; the per-tile
// write-sequence counters and verify caches are rebased individually. The
// fabric pool calls this before each batch member so pooled NoC solves stay
// bit-identical regardless of which replica runs which problem.
func (f *TiledFabric) SetNoiseEpoch(epoch int64) {
	for _, row := range f.tiles {
		for _, xb := range row {
			xb.SetNoiseEpoch(epoch)
		}
	}
}

// SetDeltaProgramming toggles delta-programming on every tile (current and
// future — the flag survives the tile-grid rebuild a re-Program performs).
// See crossbar.SetDeltaProgramming.
func (f *TiledFabric) SetDeltaProgramming(on bool) {
	f.deltaOff = !on
	for _, row := range f.tiles {
		for _, xb := range row {
			xb.SetDeltaProgramming(on)
		}
	}
}

// Counters aggregates the constituent crossbars' counters, those of the
// tiles earlier Programs replaced, and the composed solves, which settle the
// whole fabric at once.
func (f *TiledFabric) Counters() crossbar.Counters {
	total := f.composed.Add(f.retired)
	for _, row := range f.tiles {
		for _, xb := range row {
			total = total.Add(xb.Counters())
		}
	}
	return total
}

// FaultCensus sums the stuck cells of the tiles' mapped regions; without a
// fault model, or before programming, it is all zeros.
func (f *TiledFabric) FaultCensus() crossbar.FaultCensus {
	var total crossbar.FaultCensus
	for _, row := range f.tiles {
		for _, xb := range row {
			c := xb.FaultCensus()
			total.StuckOn += c.StuckOn
			total.StuckOff += c.StuckOff
		}
	}
	return total
}

// quantizeIO applies the fabric's DAC/ADC boundary: the tiles share one
// converter configuration, so tile (0, 0)'s converter model stands for the
// fabric's (per-element or shared full-scale, per crossbar.Config).
func (f *TiledFabric) quantizeIO(v linalg.Vector) error {
	return f.tiles[0][0].QuantizeIO(v)
}
