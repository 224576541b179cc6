package core

import (
	"fmt"

	"github.com/memlp/memlp/internal/cone"
	"github.com/memlp/memlp/internal/linalg"
	"github.com/memlp/memlp/internal/lp"
)

// extended holds the non-negative reformulation of the full Newton system
// (Eq. 14a). The variable vector is
//
//	Δs = [Δx(n) | Δy(m) | Δw(m) | Δz(n) | Δu(m) | Δv(n) | Δp(q)]
//
// and the block rows are
//
//	r1 (m): A′·Δx + I·Δw + A″·Δp                = b − A·x − w
//	r2 (n): Aᵀ′·Δy + I·Δv + Aᵀ″·Δp              = c − Aᵀ·y + z
//	r3 (n): Z·Δx + X·Δz                          = µ1 − XZe
//	r4 (m): W·Δy + Y·Δw                          = µ1 − YWe
//	r5 (m): Δw + Δu                              = 0
//	r6 (n): Δz + Δv                              = 0
//	r7 (q): Δx_j + Δp_k  or  Δy_k' + Δp_k        = 0
//
// where r1, r2 and r7 are the sign split's primal, dual and Δp consistency
// rows (signSplit, Eq. 13): A′/Aᵀ′ zero out the negative entries of A/Aᵀ,
// A″/Aᵀ″ carry their absolute values in the Δp columns, and q is the number
// of columns (resp. rows) of A containing at least one negative entry.
//
// For conic problems the r4 rows of each second-order-cone block carry the
// dense Nesterov–Todd complementarity blocks instead of the scalar W/Y
// diagonals: P·Δw + Q·Δy = µe − λ∘λ, with P = Arw(λ)W⁻¹ and Q = Arw(λ)W
// (see internal/cone). The identity P·w + Q·y = 2·λ∘λ means the analog
// product through those rows is still exactly twice the complementarity
// vector, so the same Eq. 15 resistive divider (factor 0.5) and base-vector
// subtraction apply unchanged. Because P/Q entries change sign across
// iterations, every y component of a SOC row gets an unconditional Δp mirror
// column (negative coefficients move there with absolute value, exactly like
// Eq. 13 handles negative A entries), and negative Δw coefficients reuse the
// Δu = −Δw mirror that row r5 already enforces.
type extended struct {
	signSplit

	// cones is the cone layout of the constraint rows (no blocks for pure
	// LPs); its NT scalings are refreshed each iteration before the r4 rows
	// are rewritten.
	cones cone.Layout

	// matrix is the digital mirror of what is programmed on the fabric.
	matrix *linalg.Matrix
	// pat covers every cell of matrix that newExtendedInto and fillDiagRows
	// can write, both sides of each conic sign-split pair included, so the
	// digital residual walks nnz cells instead of size².
	pat linalg.Pattern

	// Per-iteration scratch, sized to the extended system by
	// newExtendedInto on storage that survives across solves, so the
	// iteration allocates nothing here.
	base   linalg.Vector // baseVector backing store
	res    linalg.Vector // residual backing store
	factor linalg.Vector // the per-row analog dividers (fillFactor)
}

// Column offsets of the blocks beyond the sign split's Δx, Δy and Δp.
func (e *extended) colW(k int) int { return e.n + e.m + k }
func (e *extended) colZ(j int) int { return e.n + 2*e.m + j }
func (e *extended) colU(k int) int { return 2*e.n + 2*e.m + k }
func (e *extended) colV(j int) int { return 2*e.n + 3*e.m + j }

// Row offsets of the block rows beyond the sign split's r1, r2 and r7.
func (e *extended) rowR3(i int) int { return e.m + e.n + i }
func (e *extended) rowR4(i int) int { return e.m + 2*e.n + i }
func (e *extended) rowR5(i int) int { return 2*e.m + 2*e.n + i }
func (e *extended) rowR6(i int) int { return 3*e.m + 2*e.n + i }

// newExtended builds the extended matrix for problem p with the initial
// interior point (x, y, w, z).
func newExtended(p *lp.Problem, x, y, w, z linalg.Vector) (*extended, error) {
	return newExtendedInto(nil, p, x, y, w, z)
}

// newExtendedInto is newExtended with storage reuse: prev's matrix, pattern
// and scratch keep their capacity across problems of any shape, so a system
// no larger than one built before allocates nothing. Pass nil to allocate
// fresh. The returned *extended is prev when prev is non-nil.
func newExtendedInto(prev *extended, p *lp.Problem, x, y, w, z linalg.Vector) (*extended, error) {
	n, m := p.NumVariables(), p.NumConstraints()
	e := prev
	if e == nil {
		e = &extended{}
	}
	e.cones.Reset(m, p.SOCBlocks())
	// The Δp block follows the six blocks of Δx … Δv. Every SOC row gets a
	// y-mirror: its r4 coefficients flip sign from iteration to iteration,
	// so the −Δy column must exist even when row k of A is all-nonnegative.
	e.assign(p.A, 3*n+3*m, e.cones.InCone)
	e.matrix = e.matrix.Reshape(e.size, e.size)
	e.res = linalg.Resize(e.res, e.size)
	// baseVector refills only the r1–r4 entries; the rest stay zero.
	e.base = linalg.Resize(e.base, e.size)
	clear(e.base)
	e.fillFactor()
	if e.cones.Conic() && !e.cones.Update(w, y) {
		return nil, fmt.Errorf("core: initial cone iterate not interior")
	}

	mtx := e.matrix
	// r1, r2 and r7: the sign split, with I on Δw in r1 and on Δv in r2.
	e.write(mtx, p.A)
	for i := 0; i < m; i++ {
		mtx.Set(e.rowA(i), e.colW(i), 1)
	}
	for j := 0; j < n; j++ {
		mtx.Set(e.rowAT(j), e.colV(j), 1)
	}
	// r3/r4 hold the complementarity diagonals, which fillDiagRows below
	// and every iteration's refresh write.
	// r5: Δw + Δu = 0.
	for i := 0; i < m; i++ {
		r := e.rowR5(i)
		mtx.Set(r, e.colW(i), 1)
		mtx.Set(r, e.colU(i), 1)
	}
	// r6: Δz + Δv = 0.
	for i := 0; i < n; i++ {
		r := e.rowR6(i)
		mtx.Set(r, e.colZ(i), 1)
		mtx.Set(r, e.colV(i), 1)
	}

	e.buildPattern(p.A)
	e.fillDiagRows(x, y, w, z)

	if !mtx.AllNonNegative() {
		return nil, fmt.Errorf("core: internal error: extended matrix has negative entries")
	}
	return e, nil
}

// buildPattern emits pat row by row, each row's columns ascending: the
// sign split's cells of A's non-zero entries (an explicit zero writes no
// cell), the identity and consistency cells, and every r3/r4 cell
// fillDiagRows can write, both sides of each conic sign-split pair
// included.
func (e *extended) buildPattern(a *linalg.Matrix) {
	n, m := e.n, e.m
	// The exact cell count, so a same-shaped rebuild reuses pat's storage.
	cells := 5*m + 5*n + 2*e.q
	for i := 0; i < m; i++ {
		for _, v := range a.RawRow(i) {
			if v != 0 {
				cells += 2
			}
		}
	}
	for _, blk := range e.cones.Blocks {
		cells += 4*blk.Dim*blk.Dim - 2*blk.Dim
	}
	p := &e.pat
	p.Start(e.size, cells)
	pair := func(row, c1, c2 int) {
		p.Add(c1)
		p.Add(c2)
		p.EndRow(row)
	}
	// r1: A′ on Δx, I on Δw, A″ on the x-mirrors.
	for i := 0; i < m; i++ {
		row := a.RawRow(i)
		for j, v := range row {
			if v > 0 {
				p.Add(e.colX(j))
			}
		}
		p.Add(e.colW(i))
		for j, v := range row {
			if v < 0 {
				p.Add(e.colP(e.pOfX[j]))
			}
		}
		p.EndRow(e.rowA(i))
	}
	// r2: Aᵀ′ on Δy, I on Δv, Aᵀ″ on the y-mirrors.
	for j := 0; j < n; j++ {
		for i := 0; i < m; i++ {
			if a.At(i, j) > 0 {
				p.Add(e.colY(i))
			}
		}
		p.Add(e.colV(j))
		for i := 0; i < m; i++ {
			if a.At(i, j) < 0 {
				p.Add(e.colP(e.pOfY[i]))
			}
		}
		p.EndRow(e.rowAT(j))
	}
	for i := 0; i < n; i++ {
		pair(e.rowR3(i), e.colX(i), e.colZ(i))
	}
	// r4: W·Δy + Y·Δw on an orthant row; an SOC row holds its block's NT
	// cells on Δy, Δw, Δu and the y-mirrors. The blocks are ordered and
	// disjoint, so blocks[0] is dropped at the first row of the next one.
	blocks := e.cones.Blocks
	for i := 0; i < m; i++ {
		if !e.cones.InCone(i) {
			pair(e.rowR4(i), e.colY(i), e.colW(i))
			continue
		}
		if i >= blocks[0].Start+blocks[0].Dim {
			blocks = blocks[1:]
		}
		lo, hi := blocks[0].Start, blocks[0].Start+blocks[0].Dim
		for _, col0 := range [...]int{e.colY(0), e.colW(0), e.colU(0)} {
			for k := lo; k < hi; k++ {
				p.Add(col0 + k)
			}
		}
		for k := lo; k < hi; k++ {
			p.Add(e.colP(e.pOfY[k]))
		}
		p.EndRow(e.rowR4(i))
	}
	for i := 0; i < m; i++ {
		pair(e.rowR5(i), e.colW(i), e.colU(i))
	}
	for j := 0; j < n; j++ {
		pair(e.rowR6(j), e.colZ(j), e.colV(j))
	}
	// r7: the x-mirrors are numbered before the y-mirrors, so this walks
	// the consistency rows in order.
	for j, k := range e.pOfX {
		if k >= 0 {
			pair(e.rowP(k), e.colX(j), e.colP(k))
		}
	}
	for i, k := range e.pOfY {
		if k >= 0 {
			pair(e.rowP(k), e.colY(i), e.colP(k))
		}
	}
}

// residual computes Algorithm 1's Newton residual r = base − factor∘(M·s)
// digitally, in float64, from the true coefficients the controller holds in
// matrix (mixed-precision Newton, DESIGN.md D20). It walks only the cells
// of pat, in ascending column order: every other cell holds +0, and a row
// sum that starts at +0 never becomes −0, so for a finite s the result is
// base − factor∘(matrix.MatVec(s)) bit for bit. It costs residualMACs
// multiply-adds. The returned vector is scratch storage owned by e,
// overwritten by the next call.
//
//memlp:hotpath
func (e *extended) residual(base, s, factor linalg.Vector) linalg.Vector {
	r := e.res
	for i := range r {
		row := e.matrix.RawRow(i)
		var acc float64
		for _, j := range e.pat.Row(i) {
			acc += row[j] * s[j]
		}
		r[i] = base[i] - factor[i]*acc
	}
	return r
}

// residualMACs is the number of multiply-adds one residual call costs.
func (e *extended) residualMACs() int64 { return int64(e.pat.NNZ()) }

// fillDiagRows writes the X/Y/Z/W complementarity entries into the digital
// mirror (rows r3 and r4). Orthant rows keep the scalar w/y cells; SOC rows
// get their dense NT blocks, sign-split across the mirror columns (the
// complementary cell of each pair is zeroed so stale magnitudes never
// survive a sign flip). For conic systems the caller must refresh the
// scalings (cones.Update) first.
//
//memlp:hotpath
func (e *extended) fillDiagRows(x, y, w, z linalg.Vector) {
	for i := 0; i < e.n; i++ {
		r := e.rowR3(i)
		e.matrix.Set(r, e.colX(i), z[i])
		e.matrix.Set(r, e.colZ(i), x[i])
	}
	for i := 0; i < e.m; i++ {
		if e.cones.InCone(i) {
			continue
		}
		r := e.rowR4(i)
		e.matrix.Set(r, e.colY(i), w[i])
		e.matrix.Set(r, e.colW(i), y[i])
	}
	for bi, blk := range e.cones.Blocks {
		sc, d := e.cones.Scalings[bi], blk.Dim
		for i := 0; i < d; i++ {
			r := e.rowR4(blk.Start + i)
			for j := 0; j < d; j++ {
				k := blk.Start + j
				qv, pv := sc.Q[i*d+j], sc.P[i*d+j]
				if qv >= 0 {
					e.matrix.Set(r, e.colY(k), qv)
					e.matrix.Set(r, e.colP(e.pOfY[k]), 0)
				} else {
					e.matrix.Set(r, e.colY(k), 0)
					e.matrix.Set(r, e.colP(e.pOfY[k]), -qv)
				}
				if pv >= 0 {
					e.matrix.Set(r, e.colW(k), pv)
					e.matrix.Set(r, e.colU(k), 0)
				} else {
					e.matrix.Set(r, e.colW(k), 0)
					e.matrix.Set(r, e.colU(k), -pv)
				}
			}
		}
	}
}

// stateVector assembles s = [x, y, w, z, u, v, p] with u = −w, v = −z and
// p the mirrors of the negated x/y components (Eq. 15b).
func (e *extended) stateVector(x, y, w, z linalg.Vector) linalg.Vector {
	s := e.signSplit.stateVector(x, y)
	copy(s[e.colW(0):], w)
	copy(s[e.colZ(0):], z)
	for i, v := range w {
		s[e.colU(i)] = -v
	}
	for j, v := range z {
		s[e.colV(j)] = -v
	}
	return s
}

// baseVector assembles the static reference of Eq. 15a,
// [b; c; µ1; µ1; 0; 0; 0], which the summing amplifiers subtract the analog
// product from. Only the µ entries change between iterations.
// The returned vector is scratch storage owned by e, overwritten by the
// next call. It refills the r1–r4 entries; newExtendedInto zeroed the rest.
func (e *extended) baseVector(p *lp.Problem, mu float64) linalg.Vector {
	base := e.base
	for i := 0; i < e.m; i++ {
		base[e.rowA(i)] = p.B[i]
	}
	for i := 0; i < e.n; i++ {
		base[e.rowAT(i)] = p.C[i]
	}
	for i := 0; i < e.n; i++ {
		base[e.rowR3(i)] = mu
	}
	for i := 0; i < e.m; i++ {
		base[e.rowR4(i)] = mu
	}
	// SOC rows center on µ·e with e the Jordan identity: µ sits on the
	// block axis only, the tail rows subtract the full analog product.
	for _, blk := range e.cones.Blocks {
		for i := 1; i < blk.Dim; i++ {
			base[e.rowR4(blk.Start+i)] = 0
		}
	}
	return base
}

// fillFactor sets the per-row analog dividers of Eq. 15: the r3/r4 rows
// arrive as 2XZe and 2YWe and are halved by a resistive divider before the
// subtraction; all other rows pass through unchanged.
func (e *extended) fillFactor() {
	e.factor = linalg.Resize(e.factor, e.size)
	e.factor.Fill(1)
	for i := 0; i < e.n; i++ {
		e.factor[e.rowR3(i)] = 0.5
	}
	for i := 0; i < e.m; i++ {
		e.factor[e.rowR4(i)] = 0.5
	}
}

// split returns (Δx, Δy, Δw, Δz) as views of the extended solution vector.
func (e *extended) split(ds linalg.Vector) (dx, dy, dw, dz linalg.Vector) {
	return ds[0:e.n], ds[e.n : e.n+e.m], ds[e.n+e.m : e.n+2*e.m], ds[e.n+2*e.m : 2*e.n+2*e.m]
}
