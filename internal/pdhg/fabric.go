package pdhg

import (
	"github.com/memlp/memlp/internal/crossbar"
	"github.com/memlp/memlp/internal/linalg"
	"github.com/memlp/memlp/internal/noc"
)

// Each canonical block owns four physical crossbars: the differential pair
// holding the block's positive and negative parts (crossbars store only
// non-negative conductances, so A = A⁺ − A⁻ per block), and the pair
// programmed with the transposed parts for the adjoint mat-vec (the array
// has no transpose read mode).
const (
	slotPos = iota
	slotNeg
	slotPosT
	slotNegT
	slots
)

// tileEpoch derives the noise epoch of one physical crossbar from its
// canonical block index and slot. Applied via SetNoiseEpoch BEFORE the tile
// is programmed, it makes every stochastic draw — static variation, cycle
// noise, fault write noise — a pure function of (base seed, block index,
// slot), independent of which worker goroutine later drives the tile and of
// any solve history. This mirrors the fabric pool's (seed, problem index)
// contract from DESIGN.md D12 and is what pins PDHG results bit-identical
// across worker-grid shapes.
func tileEpoch(blockIndex, slot int) int64 {
	return int64(blockIndex*slots + slot)
}

// fabric holds A and Aᵀ on two signed NoC fabrics cut into the same
// canonical t×t blocks: A's tile (i, j) is block (i, j), and Aᵀ's tile
// (i, j) is block (j, i) transposed, keyed to that block's epochs. The
// tiling is fixed by the tile size alone — the worker grid only decides how
// many goroutines read the tiles, never how the matrix is cut — so every
// floating-point result, stochastic draw, and interconnect count is
// independent of the grid shape.
type fabric struct {
	fwd, adj *noc.TiledFabric
	a, at    *linalg.Matrix // the programming targets, kept for the refresh
	cfg      noc.Config     // resolved, to price the transfers
	blocks   int64

	tilesRefreshed int64
}

// newFabric programs a and aᵀ on two signed fabrics of t×t tiles.
func newFabric(a *linalg.Matrix, ncfg noc.Config, xcfg crossbar.Config) (*fabric, error) {
	ncfg.Crossbar = xcfg
	cfg, err := ncfg.Resolve()
	if err != nil {
		return nil, err
	}
	t := cfg.TileSize
	bRows, bCols := (a.Rows()+t-1)/t, (a.Cols()+t-1)/t
	f := &fabric{a: a, at: a.Transpose(), cfg: cfg, blocks: int64(bRows * bCols)}
	if f.fwd, err = noc.NewSigned(cfg, func(i, j, side int) int64 { return tileEpoch(i*bCols+j, slotPos+side) }); err != nil {
		return nil, err
	}
	if f.adj, err = noc.NewSigned(cfg, func(i, j, side int) int64 { return tileEpoch(j*bCols+i, slotPosT+side) }); err != nil {
		return nil, err
	}
	if err := f.program(); err != nil {
		return nil, err
	}
	return f, nil
}

// program writes A and Aᵀ on their fabrics. PDHG's programming transfers
// are not priced.
func (f *fabric) program() error {
	if err := f.fwd.ProgramUnpriced(f.a); err != nil {
		return err
	}
	return f.adj.ProgramUnpriced(f.at)
}

// refresh re-programs every tile against conductance drift: each crossbar
// is rebased to its own (unchanged) epoch and rewritten with its original
// target, so the realized conductances — and every noise draw — come out
// identical to the original programming. Numerically a no-op, but the write
// traffic and energy are honestly accounted, which is the point: the trace
// shows what a real deployment pays to keep tiles fresh.
func (f *fabric) refresh() error {
	if err := f.program(); err != nil {
		return err
	}
	f.tilesRefreshed += f.blocks
	return nil
}

// counters aggregates the crossbar activity of every tile.
func (f *fabric) counters() crossbar.Counters {
	return f.fwd.Counters().Add(f.adj.Counters())
}

// stats sums the two fabrics' transfers.
func (f *fabric) stats() noc.Stats {
	return f.fwd.Stats().Add(f.adj.Stats())
}
