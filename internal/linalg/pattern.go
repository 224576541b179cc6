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
	p.Start(a.Rows(), nnz)
	for i := 0; i < a.Rows(); i++ {
		for j, v := range a.RawRow(i) {
			if v != 0 {
				p.Add(j)
			}
		}
		p.EndRow(i)
	}
}

// Start begins rebuilding p, row by row, as a pattern of rows rows with
// room for nnz cells, reusing p's storage. The caller then adds each row's
// columns in ascending order with Add and closes the row with EndRow, for
// rows 0 through rows−1 in turn. Adding more than nnz cells stays correct
// but allocates.
func (p *Pattern) Start(rows, nnz int) {
	p.buf = Resize(p.buf, rows+1+nnz)
	p.rowPtr, p.cols = p.buf[:rows+1], p.buf[rows+1:rows+1]
	p.rowPtr[0] = 0
}

// Add appends column j to the row being built.
func (p *Pattern) Add(j int) { p.cols = append(p.cols, int32(j)) }

// EndRow closes row i, whose columns are the ones added since the previous
// row was closed.
func (p *Pattern) EndRow(i int) { p.rowPtr[i+1] = int32(len(p.cols)) }

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
