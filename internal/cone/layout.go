package cone

// Layout is the second-order-cone structure of a length-m constraint
// vector, shared by the interior-point engines: its blocks, the block that
// owns each row, and one NT scaling per block. Rows outside every block are
// orthant rows. The zero Layout has no blocks.
type Layout struct {
	// Blocks lists the cone blocks, ordered and disjoint; Scalings holds
	// block k's NT scaling at index k, refreshed by Update.
	Blocks   []Block
	Scalings []*Scaling

	m     int
	owner []int     // owner[i] is the block holding row i, or -1; nil without blocks
	tmp   []float64 // SlackDist scratch, the largest block's dimension
}

// Reset lays blocks out over m rows. It keeps the scalings when the block
// dimensions repeat, so same-shaped solves allocate nothing here.
func (l *Layout) Reset(m int, blocks []Block) {
	l.m = m
	if len(blocks) == 0 {
		l.Blocks, l.Scalings, l.owner, l.tmp = nil, nil, nil, nil
		return
	}
	l.Blocks = blocks
	if cap(l.owner) < m {
		l.owner = make([]int, m)
	}
	l.owner = l.owner[:m]
	for i := range l.owner {
		l.owner[i] = -1
	}
	maxDim := 0
	reuse := len(l.Scalings) == len(blocks)
	for k, blk := range blocks {
		for i := 0; i < blk.Dim; i++ {
			l.owner[blk.Start+i] = k
		}
		maxDim = max(maxDim, blk.Dim)
		if reuse && l.Scalings[k].Dim() != blk.Dim {
			reuse = false
		}
	}
	if !reuse {
		l.Scalings = make([]*Scaling, len(blocks))
		for k, blk := range blocks {
			l.Scalings[k] = NewScaling(blk.Dim)
		}
	}
	if len(l.tmp) < maxDim {
		l.tmp = make([]float64, maxDim)
	}
}

// Conic reports whether the layout has any cone block.
func (l *Layout) Conic() bool { return len(l.Blocks) > 0 }

// InCone reports whether row i belongs to a cone block.
//
//memlp:hotpath
func (l *Layout) InCone(i int) bool { return l.owner != nil && l.owner[i] >= 0 }

// Degree returns the rank the µ rule counts over the m rows: one per
// orthant row and one per cone block.
func (l *Layout) Degree() int {
	d := l.m + len(l.Blocks)
	for _, blk := range l.Blocks {
		d -= blk.Dim
	}
	return d
}

// Update refreshes every block's NT scaling from the iterate (w, y). It
// reports false when a block of w or y has left the cone interior, which
// the caller must treat as a numerical failure.
//
//memlp:hotpath
func (l *Layout) Update(w, y []float64) bool {
	for k, blk := range l.Blocks {
		end := blk.Start + blk.Dim
		if !l.Scalings[k].Update(w[blk.Start:end], y[blk.Start:end]) {
			return false
		}
	}
	return true
}

// SlackDist returns the worst cone violation (Dist, floored at 0) of the
// constraint slack b − A·x = r + w, where r is the primal residual
// b − A·x − w.
//
//memlp:hotpath
func (l *Layout) SlackDist(r, w []float64) float64 {
	worst := 0.0
	for _, blk := range l.Blocks {
		s := l.tmp[:blk.Dim]
		for i := range s {
			s[i] = r[blk.Start+i] + w[blk.Start+i]
		}
		if d := Dist(s); d > worst {
			worst = d
		}
	}
	return worst
}

// FloorOrthant raises every orthant row of v below floor up to it; the
// rows of blocks, whose tails are legitimately signed, are left to
// ClampInterior. blocks must be ordered and disjoint.
//
//memlp:hotpath
func FloorOrthant(v []float64, blocks []Block, floor float64) {
	i := 0
	for _, b := range blocks {
		for ; i < b.Start; i++ {
			v[i] = max(v[i], floor)
		}
		i = b.Start + b.Dim
	}
	for ; i < len(v); i++ {
		v[i] = max(v[i], floor)
	}
}
