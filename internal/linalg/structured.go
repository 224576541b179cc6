package linalg

import (
	"fmt"
	"math"
)

// SolveStructured solves a·x = b exactly like SolveDense but first performs a
// sparsity-exploiting presolve: rows with at most two non-zeros are
// eliminated by exact Gaussian steps (each such elimination adds at most one
// fill-in entry per affected row), and the remaining dense core is solved by
// LU with partial pivoting. The result is algebraically identical to
// SolveDense up to floating-point rounding.
//
// The paper's extended PDIP matrix (Eq. 14a) is dominated by two-non-zero
// rows — the X/Z and Y/W complementarity rows and the Δu/Δv/Δp consistency
// rows — so this reduces an O((3n+3m+q)³) dense solve to an O((n+m)³) one,
// which is what makes the m = 1024 experiments tractable in simulation. The
// hardware, of course, solves the whole system in one analog settle;
// this routine only accelerates the simulation of that settle.
func SolveStructured(a *Matrix, b Vector) (Vector, error) {
	var w StructuredWorkspace
	x, err := w.Solve(a, b)
	if err != nil {
		return nil, err
	}
	return x, nil
}

// structuredStep records one presolve elimination: the pivot row and
// column, and the row's other live non-zero column (-1 when the pivot was
// the row's only one). A pivot row is frozen once eliminated, so other is
// the single term of its back-substitution.
type structuredStep struct {
	row, col, other int
}

// colEntry is one link of a column-occupancy chain: a row holding a
// non-zero in the column, and the next entry (-1 at the end).
type colEntry struct {
	row, next int32
}

// fillIn is one entry that turned non-zero during elimination, linked into
// its row's fill-in chain (newest first; -1 ends it).
type fillIn struct {
	row, col, next int32
}

// StructuredWorkspace holds the scratch storage for SolveStructured so that
// repeated solves of same-shaped systems allocate (almost) nothing. All of
// it lives in flat slices, so even a new shape costs O(1) allocations. A
// workspace is not safe for concurrent use; each goroutine needs its own.
type StructuredWorkspace struct {
	// work holds the eliminated values. It is all zero between solves: a
	// solve loads its pattern entries and clears them and its fill-in
	// before returning, so it never copies or scans a dense row.
	work    *Matrix
	rhs     Vector
	rowNNZ  []int
	liveRow []bool
	liveCol []bool
	// Column occupancy: column j's rows form a chain through colEnts from
	// colHead[j] to colTail[j] — its initial non-zeros in ascending row
	// order, then its fill-in in order of appearance.
	colEnts []colEntry
	colHead []int32
	colTail []int32
	// Fill-in: row i's chain through fills starts at rowHead[i].
	fills   []fillIn
	rowHead []int32
	order   []structuredStep
	queue   []int
	// pat is Solve's own scan of its matrix.
	pat      Pattern
	coreRows []int
	coreCols []int
	core     *Matrix
	cb       Vector
	lu       *LU
	x        Vector
}

// Solve solves a·x = b (see SolveStructured for the algorithm), scanning a
// once for its non-zero pattern. The returned vector is owned by the
// workspace and overwritten by the next call.
func (w *StructuredWorkspace) Solve(a *Matrix, b Vector) (Vector, error) {
	w.pat.Scan(a)
	return w.SolvePattern(a, &w.pat, b)
}

// SolvePattern is Solve for a caller that already knows a's non-zero
// pattern p: every non-zero of a must lie inside p, and entries inside p
// may be zero too. The elimination visits only the pattern and its fill-in,
// never a dense row, and returns bit for bit what eliminating a densely
// would.
// The returned vector is owned by the workspace and overwritten by the next
// call.
func (w *StructuredWorkspace) SolvePattern(a *Matrix, p *Pattern, b Vector) (Vector, error) {
	if a.Rows() != a.Cols() {
		return nil, fmt.Errorf("%w: %dx%d", ErrNotSquare, a.Rows(), a.Cols())
	}
	n := a.Rows()
	if len(b) != n {
		return nil, fmt.Errorf("%w: rhs %d for %d unknowns", ErrDimensionMismatch, len(b), n)
	}
	if p.Rows() != n {
		return nil, fmt.Errorf("%w: pattern of %d rows for %d unknowns", ErrDimensionMismatch, p.Rows(), n)
	}
	w.load(a, p, b)
	x, err := w.solveLoaded(p)
	// Leave work all zero for the next solve.
	for i := 0; i < n; i++ {
		wrow := w.work.RawRow(i)
		for _, j := range p.Row(i) {
			wrow[j] = 0
		}
	}
	for _, f := range w.fills {
		w.work.Set(int(f.row), int(f.col), 0)
	}
	return x, err
}

// load (re)sizes the scratch buffers for an n-unknown system and loads a's
// pattern entries and b into them.
func (w *StructuredWorkspace) load(a *Matrix, p *Pattern, b Vector) {
	n := a.Rows()
	if w.work == nil || w.work.Rows() != n {
		// Size the growable lists for a typical elimination up front, so a
		// new shape costs a fixed handful of allocations rather than a chain
		// of regrowths: the order and core lists hold at most one entry per
		// row, and on the extended PDIP systems fill-in stays below the
		// pattern's own size.
		nnz := len(p.cols)
		w.colEnts = make([]colEntry, 0, 2*nnz)
		w.fills = make([]fillIn, 0, nnz)
		w.order = make([]structuredStep, 0, n)
		w.queue = make([]int, 0, n)
		w.coreRows = make([]int, 0, n)
		w.coreCols = make([]int, 0, n)
		w.work = NewMatrix(n, n)
		w.rhs = make(Vector, n)
		w.rowNNZ = make([]int, n)
		w.liveRow = make([]bool, n)
		w.liveCol = make([]bool, n)
		w.colHead = make([]int32, n)
		w.colTail = make([]int32, n)
		w.rowHead = make([]int32, n)
		w.x = make(Vector, n)
	}
	copy(w.rhs, b)
	clear(w.rowNNZ)
	for i := 0; i < n; i++ {
		w.liveRow[i], w.liveCol[i] = true, true
		w.colHead[i], w.colTail[i], w.rowHead[i] = -1, -1, -1
	}
	w.colEnts = w.colEnts[:0]
	w.fills = w.fills[:0]
	w.order = w.order[:0]
	w.queue = w.queue[:0]
	w.coreRows = w.coreRows[:0]
	w.coreCols = w.coreCols[:0]
	for i := 0; i < n; i++ {
		row, wrow := a.RawRow(i), w.work.RawRow(i)
		for _, j := range p.Row(i) {
			v := row[j]
			wrow[j] = v
			if v != 0 {
				w.rowNNZ[i]++
				w.appendToColumn(int(j), i)
			}
		}
	}
}

// appendToColumn adds row i to the end of column j's occupancy chain.
func (w *StructuredWorkspace) appendToColumn(j, i int) {
	k := int32(len(w.colEnts))
	w.colEnts = append(w.colEnts, colEntry{row: int32(i), next: -1})
	if t := w.colTail[j]; t >= 0 {
		w.colEnts[t].next = k
	} else {
		w.colHead[j] = k
	}
	w.colTail[j] = k
}

// solveLoaded runs the presolve over the loaded system, then solves the
// dense core and back-substitutes.
func (w *StructuredWorkspace) solveLoaded(p *Pattern) (Vector, error) {
	n := w.work.Rows()
	work, rhs := w.work, w.rhs
	rowNNZ, liveRow, liveCol := w.rowNNZ, w.liveRow, w.liveCol

	// Column chains are append-only: an entry whose value has since become
	// zero is a tombstone, detected exactly at use (eliminations zero the
	// pivot column with an assignment, never arithmetic, so the test
	// against 0 is reliable), and a cell that cycles zero→fill-in→zero→
	// fill-in appends once per revival. Chains iterate in insertion order,
	// which keeps the elimination sequence — and therefore the
	// floating-point result — deterministic; a map's randomized iteration
	// order here would perturb results run to run and across fabric-pool
	// replicas.
	for i := 0; i < n; i++ {
		if rowNNZ[i] <= 2 {
			w.queue = append(w.queue, i)
		}
	}

	for len(w.queue) > 0 {
		r := w.queue[len(w.queue)-1]
		w.queue = w.queue[:len(w.queue)-1]
		if !liveRow[r] || rowNNZ[r] > 2 {
			continue
		}
		row := work.RawRow(r)
		cand, nc := w.liveCols(p, r)
		// Select the pivot column: the first strictly largest magnitude in
		// ascending column order, so a NaN entry is never chosen.
		pc, other := -1, -1
		var pv float64
		for _, c := range cand[:nc] {
			if math.Abs(row[c]) > math.Abs(pv) {
				pc, pv = c, row[c]
			}
		}
		if pc < 0 {
			return nil, fmt.Errorf("%w: empty row %d in presolve", ErrSingular, r)
		}
		for _, c := range cand[:nc] {
			if c != pc {
				other = c
			}
		}

		// Eliminate the pivot column from every other live row; the pivot
		// row's other column is the only entry each update touches.
		// Tombstoned and duplicate entries both read back exactly zero, so
		// the skip makes the walk idempotent.
		for k := w.colHead[pc]; k >= 0; k = w.colEnts[k].next {
			o := int(w.colEnts[k].row)
			orow := work.RawRow(o)
			if o == r || !liveRow[o] || orow[pc] == 0 {
				continue
			}
			factor := orow[pc] / pv
			// Zero the pivot-column entry exactly; computing old − factor·pv
			// would leave rounding residue.
			orow[pc] = 0
			rowNNZ[o]--
			if other >= 0 {
				old := orow[other]
				nw := old - factor*row[other]
				orow[other] = nw
				if old != 0 && nw == 0 {
					// Leave the column-chain entry as a tombstone.
					rowNNZ[o]--
				} else if old == 0 && nw != 0 {
					rowNNZ[o]++
					w.appendToColumn(other, o)
					w.fills = append(w.fills, fillIn{row: int32(o), col: int32(other), next: w.rowHead[o]})
					w.rowHead[o] = int32(len(w.fills) - 1)
				}
			}
			rhs[o] -= factor * rhs[r]
			if rowNNZ[o] <= 2 {
				w.queue = append(w.queue, o)
			}
		}

		liveRow[r] = false
		liveCol[pc] = false
		w.order = append(w.order, structuredStep{row: r, col: pc, other: other})
	}

	// Dense core solve over the remaining live rows/columns.
	for i := 0; i < n; i++ {
		if liveRow[i] {
			w.coreRows = append(w.coreRows, i)
		}
		if liveCol[i] {
			w.coreCols = append(w.coreCols, i)
		}
	}
	if len(w.coreRows) != len(w.coreCols) {
		return nil, fmt.Errorf("%w: presolve core is %dx%d", ErrSingular, len(w.coreRows), len(w.coreCols))
	}

	x := w.x
	clear(x)
	if k := len(w.coreRows); k > 0 {
		if w.core == nil || w.core.Rows() != k || w.core.Cols() != k {
			w.core = NewMatrix(k, k)
			w.cb = make(Vector, k)
		}
		core, cb := w.core, w.cb
		for ci, i := range w.coreRows {
			row, crow := work.RawRow(i), core.RawRow(ci)
			for cj, j := range w.coreCols {
				crow[cj] = row[j]
			}
			cb[ci] = rhs[i]
		}
		f, err := FactorizeInto(w.lu, core)
		if err != nil {
			return nil, err
		}
		w.lu = f
		if err := f.SolveInPlace(cb); err != nil {
			return nil, err
		}
		for cj, j := range w.coreCols {
			x[j] = cb[cj]
		}
	}

	// Back-substitute the presolve eliminations in reverse order. Each
	// frozen pivot row holds at most one term besides its pivot.
	for k := len(w.order) - 1; k >= 0; k-- {
		st := w.order[k]
		row := work.RawRow(st.row)
		s := rhs[st.row]
		if st.other >= 0 {
			s -= row[st.other] * x[st.other]
		}
		x[st.col] = s / row[st.col]
	}
	return x, nil
}

// liveCols returns row r's live non-zero columns in ascending order: at
// most two, and exactly rowNNZ[r] of them. They are gathered from the row's
// pattern entries and its fill-in chain, which may name a column twice.
func (w *StructuredWorkspace) liveCols(p *Pattern, r int) (cand [2]int, nc int) {
	row, need := w.work.RawRow(r), w.rowNNZ[r]
	for _, c := range p.Row(r) {
		if nc == need {
			break
		}
		if j := int(c); row[j] != 0 && w.liveCol[j] && (nc == 0 || cand[0] != j) {
			cand[nc] = j
			nc++
		}
	}
	for k := w.rowHead[r]; k >= 0 && nc < need; k = w.fills[k].next {
		if j := int(w.fills[k].col); row[j] != 0 && w.liveCol[j] && (nc == 0 || cand[0] != j) {
			cand[nc] = j
			nc++
		}
	}
	if nc == 2 && cand[1] < cand[0] {
		cand[0], cand[1] = cand[1], cand[0]
	}
	return cand, nc
}
