package linalg

// Pattern is the CSR-style zero/non-zero structure of a matrix: row
// i's candidate non-zero columns are Row(i), in ascending order. Every entry
// outside the pattern is zero; an entry inside it may be zero as well, so a
// pattern that has gone stale by losing non-zeros stays valid. The row
// pointers and column indices share one flat buffer, so rescanning a matrix
// of a new shape costs at most one allocation.
type Pattern struct {
	buf    []int32
	rowPtr []int32
	cols   []int32
}

// Scan rebuilds p as the exact non-zero structure of a, reusing p's
// storage. NaN entries count as non-zero; signed zeros do not.
func (p *Pattern) Scan(a *Matrix) {
	nnz := 0
	for _, v := range a.data {
		if v != 0 {
			nnz++
		}
	}
	rows := a.Rows()
	need := rows + 1 + nnz
	if cap(p.buf) < need {
		p.buf = make([]int32, need)
	}
	p.buf = p.buf[:need]
	p.rowPtr, p.cols = p.buf[:rows+1], p.buf[rows+1:]
	k := 0
	for i := 0; i < rows; i++ {
		p.rowPtr[i] = int32(k)
		for j, v := range a.RawRow(i) {
			if v != 0 {
				p.cols[k] = int32(j)
				k++
			}
		}
	}
	p.rowPtr[rows] = int32(k)
}

// Rows returns the number of rows the pattern describes.
func (p *Pattern) Rows() int {
	if len(p.rowPtr) == 0 {
		return 0
	}
	return len(p.rowPtr) - 1
}

// Row returns row i's candidate non-zero columns, ascending. The slice
// aliases the pattern's storage and is invalidated by the next Scan.
func (p *Pattern) Row(i int) []int32 { return p.cols[p.rowPtr[i]:p.rowPtr[i+1]] }

// NNZ returns the number of cells the pattern covers.
func (p *Pattern) NNZ() int { return len(p.cols) }
