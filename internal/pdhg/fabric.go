package pdhg

import (
	"fmt"
	"sync"

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

// block is one canonical tile of the problem matrix: the submatrix
// A[br·t:…, bc·t:…] and the four crossbars realizing ±A_block and ±A_blockᵀ.
// Per-pass partial outputs land in block-owned buffers, so concurrent
// workers never share writable state (the axOut/atyOut slots are the
// halo-exchange staging area the controller reduces from).
type block struct {
	index      int
	br, bc     int
	rows, cols int

	pos, neg   *crossbar.Crossbar
	posT, negT *crossbar.Crossbar

	// Retained programming targets, for the periodic conductance refresh.
	aPos, aNeg   *linalg.Matrix
	aPosT, aNegT *linalg.Matrix

	axOut  linalg.Vector // partial A·x segment (rows), one pass
	atyOut linalg.Vector // partial Aᵀ·y segment (cols), one pass
	err    error         // first crossbar error of the current pass
}

// fabric is the canonical tiling of one problem matrix across the NoC. The
// tiling is fixed by the tile size alone — the worker grid only decides how
// many goroutines sweep the blocks, never how the matrix is cut — so every
// floating-point result, stochastic draw, and interconnect count is
// independent of the grid shape.
type fabric struct {
	m, n   int
	t      int
	bRows  int
	bCols  int
	blocks []*block // row-major canonical order
	router *noc.Router

	// in holds the current half-iteration's input after the controller's
	// DAC, one t-wide segment per block column (forward) or block row
	// (adjoint), and inScale each segment's normalization factor.
	in      linalg.Vector
	inScale []float64

	tilesRefreshed int64
}

// newFabric tiles a into t×t canonical blocks and programs the per-block
// crossbar quads in canonical order on the calling goroutine.
func newFabric(a *linalg.Matrix, ncfg noc.Config, xcfg crossbar.Config) (*fabric, error) {
	m, n := a.Rows(), a.Cols()
	// The tile size default must be applied before the block grid can be
	// derived.
	ncfg, err := ncfg.Resolve()
	if err != nil {
		return nil, err
	}
	t := ncfg.TileSize
	router, err := noc.NewRouter(ncfg, (m+t-1)/t, (n+t-1)/t)
	if err != nil {
		return nil, err
	}
	f := &fabric{
		m:      m,
		n:      n,
		t:      t,
		bRows:  (m + t - 1) / t,
		bCols:  (n + t - 1) / t,
		router: router,
		in:     linalg.NewVector(max(m, n)),
	}
	f.inScale = make([]float64, max(f.bRows, f.bCols))
	f.blocks = make([]*block, 0, f.bRows*f.bCols)
	for br := 0; br < f.bRows; br++ {
		for bc := 0; bc < f.bCols; bc++ {
			b, err := f.newBlock(a, br, bc, xcfg)
			if err != nil {
				return nil, err
			}
			f.blocks = append(f.blocks, b)
		}
	}
	return f, nil
}

func (f *fabric) newBlock(a *linalg.Matrix, br, bc int, xcfg crossbar.Config) (*block, error) {
	rows := min(f.t, f.m-br*f.t)
	cols := min(f.t, f.n-bc*f.t)
	b := &block{
		index:  br*f.bCols + bc,
		br:     br,
		bc:     bc,
		rows:   rows,
		cols:   cols,
		axOut:  linalg.NewVector(rows),
		atyOut: linalg.NewVector(cols),
	}
	b.aPos = linalg.NewMatrix(rows, cols)
	b.aNeg = linalg.NewMatrix(rows, cols)
	b.aPosT = linalg.NewMatrix(cols, rows)
	b.aNegT = linalg.NewMatrix(cols, rows)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			v := a.At(br*f.t+i, bc*f.t+j)
			if v > 0 {
				b.aPos.Set(i, j, v)
				b.aPosT.Set(j, i, v)
			} else if v < 0 {
				b.aNeg.Set(i, j, -v)
				b.aNegT.Set(j, i, -v)
			}
		}
	}
	var err error
	if b.pos, err = f.buildTile(b.index, slotPos, xcfg, b.aPos); err != nil {
		return nil, err
	}
	if b.neg, err = f.buildTile(b.index, slotNeg, xcfg, b.aNeg); err != nil {
		return nil, err
	}
	if b.posT, err = f.buildTile(b.index, slotPosT, xcfg, b.aPosT); err != nil {
		return nil, err
	}
	if b.negT, err = f.buildTile(b.index, slotNegT, xcfg, b.aNegT); err != nil {
		return nil, err
	}
	return b, nil
}

// buildTile constructs and programs one physical crossbar. The variation
// model is cloned per tile (independent streams, one base seed) and the
// fault model's seed is offset by the tile epoch, so defect placement and
// every noise draw are a pure function of (seed, block index, slot).
func (f *fabric) buildTile(blockIndex, slot int, xcfg crossbar.Config, target *linalg.Matrix) (*crossbar.Crossbar, error) {
	epoch := tileEpoch(blockIndex, slot)
	cfg := xcfg
	cfg.Size = f.t
	if cfg.Variation != nil {
		cfg.Variation = cfg.Variation.Clone()
	}
	if cfg.Faults != nil {
		fm := *cfg.Faults
		fm.Seed += epoch + 1
		cfg.Faults = &fm
	}
	xb, err := crossbar.New(cfg)
	if err != nil {
		return nil, fmt.Errorf("pdhg: building tile (block %d, slot %d): %w", blockIndex, slot, err)
	}
	xb.SetNoiseEpoch(epoch)
	if err := xb.Program(target); err != nil {
		return nil, fmt.Errorf("pdhg: programming tile (block %d, slot %d): %w", blockIndex, slot, err)
	}
	return xb, nil
}

// direction selects a half-iteration's read: forward reads the ±A tiles,
// adjoint the ±Aᵀ tiles.
type direction int

const (
	forward direction = iota
	adjoint
)

// side is block b's read in one direction: the crossbar pair, the staging
// buffer, and the block-grid index and length of the input segment it reads
// and the output segment it writes.
type side struct {
	pos, neg       *crossbar.Crossbar
	staged         linalg.Vector
	inSeg, inLen   int
	outSeg, outLen int
}

// side returns the forward read (block column in, block row out) or the
// adjoint one, on the transposed pair with rows and columns swapped.
func (b *block) side(d direction) side {
	if d == forward {
		return side{b.pos, b.neg, b.axOut, b.bc, b.cols, b.br, b.rows}
	}
	return side{b.posT, b.negT, b.atyOut, b.br, b.rows, b.bc, b.cols}
}

// matVec computes out ← A·v (forward) or out ← Aᵀ·v (adjoint) on the tiled
// fabric: the controller converts each input segment once and scatters it
// across the NoC, the worker grid runs every block's differential analog
// multiply into block-owned staging buffers, and after the join barrier the
// controller gathers the partials and reduces them in canonical block
// order. The fixed reduction order keeps the floating-point sum — and
// therefore the whole trajectory — identical for every worker count.
func (f *fabric) matVec(out, v linalg.Vector, d direction, workers int) error {
	if err := f.convert(v); err != nil {
		return err
	}
	for _, b := range f.blocks {
		f.router.Scatter(b.br, b.bc, b.side(d).inLen)
	}
	f.sweep(workers, d)
	for _, b := range f.blocks {
		f.router.Gather(b.br, b.bc, b.side(d).outLen)
		if b.err != nil {
			return b.err
		}
	}
	out.Fill(0)
	for _, b := range f.blocks {
		s := b.side(d)
		lo := s.outSeg * f.t
		reduceInto(out[lo:lo+s.outLen], s.staged)
	}
	return nil
}

// convert runs the controller's DAC over every t-wide segment of v into
// f.in, once per half-iteration. Every array that reads a segment reads the
// same converted bits it would convert itself, and still charges its own
// conversions (crossbar.MatVecAnalog). The tiles share one converter
// configuration, so block 0's positive array stands for all of them.
func (f *fabric) convert(v linalg.Vector) error {
	dac := f.blocks[0].pos
	for s := 0; s*f.t < len(v); s++ {
		lo, hi := s*f.t, min(s*f.t+f.t, len(v))
		scale, err := dac.ToAnalog(f.in[lo:hi], v[lo:hi])
		if err != nil {
			return fmt.Errorf("pdhg: converting segment %d: %w", s, err)
		}
		f.inScale[s] = scale
	}
	return nil
}

// sweep runs every block's read in direction d on the worker grid. At one
// worker the controller runs them in canonical order and allocates nothing.
func (f *fabric) sweep(workers int, d direction) {
	if workers > len(f.blocks) {
		workers = len(f.blocks)
	}
	if workers <= 1 {
		for _, b := range f.blocks {
			f.read(b, d)
		}
		return
	}
	f.fanOut(workers, d)
}

// fanOut spreads the reads over workers goroutines: worker w owns blocks
// w, w+workers, w+2·workers, … so ownership is disjoint and each crossbar
// is driven by exactly one goroutine per pass. The WaitGroup join is the
// barrier between half-iterations.
func (f *fabric) fanOut(workers int, d direction) {
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := w; k < len(f.blocks); k += workers {
				f.read(f.blocks[k], d)
			}
		}(w)
	}
	wg.Wait()
}

// read runs block b's differential analog multiply in direction d on the
// converted input segment it reads, recording the first error in b.err.
func (f *fabric) read(b *block, d direction) {
	s := b.side(d)
	lo := s.inSeg * f.t
	b.err = b.differentialMatVec(s.pos, s.neg, s.staged, f.in[lo:lo+s.inLen], f.inScale[s.inSeg])
}

// differentialMatVec runs the block's differential analog multiply
// out ← pos·seg − neg·seg on the converted segment vi = Q(seg/inScale).
// The crossbar's result is scratch-owned, so the positive partial is copied
// into the block's staging buffer before the negative array runs.
func (b *block) differentialMatVec(pos, neg *crossbar.Crossbar, out, vi linalg.Vector, inScale float64) error {
	pv, err := pos.MatVecAnalog(vi, inScale)
	if err != nil {
		return fmt.Errorf("pdhg: block %d mat-vec: %w", b.index, err)
	}
	copy(out, pv)
	nv, err := neg.MatVecAnalog(vi, inScale)
	if err != nil {
		return fmt.Errorf("pdhg: block %d mat-vec: %w", b.index, err)
	}
	subInto(out, nv)
	return nil
}

// refresh re-programs every tile against conductance drift: each crossbar
// is rebased to its own (unchanged) epoch and rewritten with its original
// target, so the realized conductances — and every noise draw — come out
// identical to the original programming. Numerically a no-op, but the write
// traffic and energy are honestly accounted, which is the point: the trace
// shows what a real deployment pays to keep tiles fresh.
func (f *fabric) refresh() error {
	for _, b := range f.blocks {
		quads := [slots]struct {
			xb  *crossbar.Crossbar
			tgt *linalg.Matrix
		}{
			{b.pos, b.aPos}, {b.neg, b.aNeg}, {b.posT, b.aPosT}, {b.negT, b.aNegT},
		}
		for slot, q := range quads {
			q.xb.SetNoiseEpoch(tileEpoch(b.index, slot))
			if err := q.xb.Program(q.tgt); err != nil {
				return fmt.Errorf("pdhg: refreshing tile (block %d, slot %d): %w", b.index, slot, err)
			}
		}
		f.tilesRefreshed++
	}
	return nil
}

// counters aggregates the crossbar activity of every tile in canonical
// order.
func (f *fabric) counters() crossbar.Counters {
	var total crossbar.Counters
	for _, b := range f.blocks {
		total = total.Add(b.pos.Counters()).Add(b.neg.Counters()).
			Add(b.posT.Counters()).Add(b.negT.Counters())
	}
	return total
}
