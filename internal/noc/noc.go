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
	"math"
	"time"

	"github.com/memlp/memlp/internal/crossbar"
	"github.com/memlp/memlp/internal/linalg"
)

// Errors returned by the NoC layer.
var (
	ErrBadConfig = errors.New("noc: invalid configuration")
	ErrTooLarge  = errors.New("noc: matrix exceeds fabric capacity")
)

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
	// MaxTiles bounds the number of crossbars available. Zero means 256.
	MaxTiles int
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

func (c Config) withDefaults() Config {
	if c.Topology == 0 {
		c.Topology = Hierarchical
	}
	if c.TileSize == 0 {
		c.TileSize = 512
	}
	if c.MaxTiles == 0 {
		c.MaxTiles = 256
	}
	if c.HopLatency == 0 {
		c.HopLatency = 5 * time.Nanosecond
	}
	if c.HopEnergyPerElement == 0 {
		c.HopEnergyPerElement = 0.1e-9
	}
	return c
}

func (c Config) validate() error {
	if c.Topology != Hierarchical && c.Topology != Mesh {
		return fmt.Errorf("%w: topology %d", ErrBadConfig, int(c.Topology))
	}
	if c.TileSize < 1 {
		return fmt.Errorf("%w: tile size %d", ErrBadConfig, c.TileSize)
	}
	if c.MaxTiles < 1 {
		return fmt.Errorf("%w: max tiles %d", ErrBadConfig, c.MaxTiles)
	}
	if c.HopLatency < 0 || c.HopEnergyPerElement < 0 {
		return fmt.Errorf("%w: negative hop cost", ErrBadConfig)
	}
	return nil
}

// Stats accumulates interconnect activity for the cost model.
type Stats struct {
	// Transfers is the number of vector-segment transfers performed.
	Transfers int64
	// ElementHops is Σ (elements moved × hops traversed).
	ElementHops int64
	// MaxHops is the longest path used by any transfer.
	MaxHops int
}

// Sub returns s − o field-wise, for marginalizing cumulative stats on a
// persistent fabric into per-solve figures. MaxHops is a topology-determined
// high-water mark, not an accumulator, so the current value is kept.
func (s Stats) Sub(o Stats) Stats {
	return Stats{
		Transfers:   s.Transfers - o.Transfers,
		ElementHops: s.ElementHops - o.ElementHops,
		MaxHops:     s.MaxHops,
	}
}

// track accounts one transfer of elements vector entries over hops hops.
func (s *Stats) track(elements, hops int) {
	s.Transfers++
	s.ElementHops += int64(elements * hops)
	if hops > s.MaxHops {
		s.MaxHops = hops
	}
}

// TiledFabric coordinates a grid of crossbars through the NoC. It implements
// the same fabric contract as a single crossbar (Program/UpdateRow/
// UpdateCellInPlace/MatVec/Solve/Counters).
type TiledFabric struct {
	cfg Config

	rows, cols int // logical matrix shape
	gridR      int // tile-grid rows
	gridC      int // tile-grid cols
	tiles      [][]*crossbar.Crossbar

	// deltaOff mirrors crossbar.SetDeltaProgramming at the fabric level; it
	// must be remembered here because Program rebuilds the tile grid.
	deltaOff bool

	stats Stats
	// composed counts the composed analog solves, which belong to no
	// single tile: their settles and the conversions of b and x.
	composed crossbar.Counters
	// retired holds the counts of the tiles a re-Program replaced, so the
	// fabric's counters stay cumulative across Programs.
	retired crossbar.Counters
}

// New returns an unprogrammed tiled fabric.
func New(cfg Config) (*TiledFabric, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	return &TiledFabric{cfg: cfg}, nil
}

// Config returns the (defaulted) configuration.
func (f *TiledFabric) Config() Config { return f.cfg }

// Stats returns the cumulative interconnect activity.
func (f *TiledFabric) Stats() Stats { return f.stats }

// hops returns the transfer distance (in NoC hops) between the controller
// and tile (r, c), per the configured topology.
func (f *TiledFabric) hops(r, c int) int {
	return hopCount(f.cfg.Topology, f.gridR*f.gridC, r, c)
}

// hopCount is the shared topology hop model: the transfer distance between
// the controller and tile (r, c) of a grid holding tiles crossbars.
func hopCount(top Topology, tiles, r, c int) int {
	switch top {
	case Hierarchical:
		// Quad-tree: depth levels from root to leaf.
		if tiles <= 1 {
			return 1
		}
		return 1 + int(math.Ceil(math.Log(float64(tiles))/math.Log(4)))
	case Mesh:
		// Manhattan distance from the controller at (0, 0).
		return 1 + r + c
	default:
		return 1
	}
}

// Program writes matrix a across the tile grid, on new tiles. A new grid
// is priced as a fresh fabric prices its first: the hop high-water mark
// starts afresh, and the programming transfers are priced with no grid in
// place yet. A re-Program of the same grid keeps both.
func (f *TiledFabric) Program(a *linalg.Matrix) error {
	t := f.cfg.TileSize
	gridR := (a.Rows() + t - 1) / t
	gridC := (a.Cols() + t - 1) / t
	if gridR*gridC > f.cfg.MaxTiles {
		return fmt.Errorf("%w: %dx%d needs %d tiles of %d, have %d",
			ErrTooLarge, a.Rows(), a.Cols(), gridR*gridC, t, f.cfg.MaxTiles)
	}
	priced := f.gridR * f.gridC
	if gridR != f.gridR || gridC != f.gridC {
		priced = 0
		f.stats.MaxHops = 0
	}
	tiles := make([][]*crossbar.Crossbar, gridR)
	for i := range tiles {
		tiles[i] = make([]*crossbar.Crossbar, gridC)
		for j := range tiles[i] {
			cfg := f.cfg.Crossbar
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
			f.stats.track(rows, hopCount(f.cfg.Topology, priced, i, j))
		}
	}
	for _, row := range f.tiles {
		for _, xb := range row {
			f.retired = f.retired.Add(xb.Counters())
		}
	}
	f.rows, f.cols = a.Rows(), a.Cols()
	f.gridR, f.gridC = gridR, gridC
	f.tiles = tiles
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
	t := f.cfg.TileSize
	tr, lr := i/t, i%t
	for j := 0; j < f.gridC; j++ {
		lo := j * t
		hi := min(lo+t, f.cols)
		if err := f.tiles[tr][j].UpdateRow(lr, row[lo:hi]); err != nil {
			return err
		}
		f.stats.track(hi-lo, f.hops(tr, j))
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
	t := f.cfg.TileSize
	f.stats.track(1, f.hops(i/t, j/t))
	return f.tiles[i/t][j/t].UpdateCellInPlace(i%t, j%t, value)
}

// MatVec multiplies the programmed matrix by v: input segments are broadcast
// to tile columns, every tile multiplies in parallel, and partial outputs are
// summed along tile rows at the arbiters (analog summation).
func (f *TiledFabric) MatVec(v linalg.Vector) (linalg.Vector, error) {
	if f.tiles == nil {
		return nil, crossbar.ErrNotProgrammed
	}
	if len(v) != f.cols {
		return nil, fmt.Errorf("%w: matvec input %d for %dx%d", linalg.ErrDimensionMismatch, len(v), f.rows, f.cols)
	}
	t := f.cfg.TileSize
	out := linalg.NewVector(f.rows)
	for i := 0; i < f.gridR; i++ {
		rlo := i * t
		rhi := min(rlo+t, f.rows)
		for j := 0; j < f.gridC; j++ {
			clo := j * t
			chi := min(clo+t, f.cols)
			seg := v[clo:chi]
			part, err := f.tiles[i][j].MatVec(seg)
			if err != nil {
				return nil, fmt.Errorf("noc: tile (%d,%d) mat-vec: %w", i, j, err)
			}
			for k := range part {
				out[rlo+k] += part[k]
			}
			// Input broadcast + partial-sum collection.
			f.stats.track(chi-clo, f.hops(i, j))
			f.stats.track(rhi-rlo, f.hops(i, j))
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
	t := f.cfg.TileSize
	composed := linalg.NewMatrix(f.rows, f.cols)
	for i := 0; i < f.gridR; i++ {
		for j := 0; j < f.gridC; j++ {
			eff, err := f.tiles[i][j].EffectiveMatrix()
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
	for i := 0; i < f.gridR; i++ {
		rl := min(t, f.rows-i*t)
		f.stats.track(rl, f.hops(i, 0))
		f.stats.track(rl, f.hops(i, f.gridC-1))
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

// quantizeIO applies the fabric's DAC/ADC boundary: the tiles share one
// converter configuration, so tile (0, 0)'s converter model stands for the
// fabric's (per-element or shared full-scale, per crossbar.Config).
func (f *TiledFabric) quantizeIO(v linalg.Vector) error {
	return f.tiles[0][0].QuantizeIO(v)
}
