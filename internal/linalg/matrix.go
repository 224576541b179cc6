package linalg

import (
	"fmt"
	"math"
)

// Matrix is a dense, row-major matrix.
type Matrix struct {
	rows, cols int
	data       []float64
}

// NewMatrix returns a zero matrix with the given shape.
// It panics if rows or cols is negative; a zero dimension is allowed.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("linalg: invalid matrix shape %dx%d", rows, cols))
	}
	return &Matrix{rows: rows, cols: cols, data: make([]float64, rows*cols)}
}

// MatrixFromRows builds a matrix from row slices. All rows must have equal
// length. The data is copied.
func MatrixFromRows(rows [][]float64) (*Matrix, error) {
	if len(rows) == 0 {
		return NewMatrix(0, 0), nil
	}
	cols := len(rows[0])
	m := NewMatrix(len(rows), cols)
	for i, r := range rows {
		if len(r) != cols {
			return nil, fmt.Errorf("%w: row %d has %d cols, want %d", ErrDimensionMismatch, i, len(r), cols)
		}
		copy(m.data[i*cols:(i+1)*cols], r)
	}
	return m, nil
}

// Rows returns the number of rows.
func (m *Matrix) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Matrix) Cols() int { return m.cols }

// At returns the element at (i, j).
func (m *Matrix) At(i, j int) float64 { return m.data[i*m.cols+j] }

// Set assigns the element at (i, j).
func (m *Matrix) Set(i, j int, x float64) { m.data[i*m.cols+j] = x }

// RawRow returns row i as a live sub-slice (no copy). Mutating the returned
// slice mutates the matrix.
func (m *Matrix) RawRow(i int) []float64 { return m.data[i*m.cols : (i+1)*m.cols] }

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	out := NewMatrix(m.rows, m.cols)
	copy(out.data, m.data)
	return out
}

// Zero resets every element to 0 without reallocating.
func (m *Matrix) Zero() {
	clear(m.data)
}

// Reshape returns a rows×cols matrix of zeros: m itself, on its own storage
// when that holds rows·cols elements and on new storage otherwise, or a new
// matrix when m is nil. Storage only grows, so a matrix reshaped to a
// smaller shape keeps the capacity of the largest it has held.
func (m *Matrix) Reshape(rows, cols int) *Matrix {
	if m == nil {
		return NewMatrix(rows, cols)
	}
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("linalg: invalid matrix shape %dx%d", rows, cols))
	}
	m.rows, m.cols = rows, cols
	m.data = Resize(m.data, rows*cols)
	clear(m.data)
	return m
}

// Resize returns s resized to n elements, on s's storage when its capacity
// suffices and on new storage otherwise. The elements are unspecified.
func Resize[S ~[]E, E any](s S, n int) S {
	if cap(s) < n {
		return make(S, n)
	}
	return s[:n]
}

// Transpose returns mᵀ.
func (m *Matrix) Transpose() *Matrix {
	out := NewMatrix(m.cols, m.rows)
	for i := 0; i < m.rows; i++ {
		for j := 0; j < m.cols; j++ {
			out.Set(j, i, m.At(i, j))
		}
	}
	return out
}

// MatVec returns m·v.
func (m *Matrix) MatVec(v Vector) (Vector, error) {
	if m.cols != len(v) {
		return nil, fmt.Errorf("%w: matvec %dx%d · %d", ErrDimensionMismatch, m.rows, m.cols, len(v))
	}
	out := make(Vector, m.rows)
	for i := 0; i < m.rows; i++ {
		row := m.data[i*m.cols : (i+1)*m.cols]
		var s float64
		for j, a := range row {
			s += a * v[j]
		}
		out[i] = s
	}
	return out, nil
}

// MatVecInto computes m·v into out, which must have length m.Rows(). It
// allocates nothing.
func (m *Matrix) MatVecInto(out, v Vector) error {
	if m.cols != len(v) || m.rows != len(out) {
		return fmt.Errorf("%w: matvec %dx%d · %d into %d", ErrDimensionMismatch, m.rows, m.cols, len(v), len(out))
	}
	for i := 0; i < m.rows; i++ {
		row := m.data[i*m.cols : (i+1)*m.cols]
		var s float64
		for j, a := range row {
			s += a * v[j]
		}
		out[i] = s
	}
	return nil
}

// MatVecTranspose returns mᵀ·v without materializing the transpose.
func (m *Matrix) MatVecTranspose(v Vector) (Vector, error) {
	if m.rows != len(v) {
		return nil, fmt.Errorf("%w: matvecT %dx%d ᵀ· %d", ErrDimensionMismatch, m.rows, m.cols, len(v))
	}
	out := make(Vector, m.cols)
	for i := 0; i < m.rows; i++ {
		row := m.data[i*m.cols : (i+1)*m.cols]
		vi := v[i]
		if vi == 0 {
			continue
		}
		for j, a := range row {
			out[j] += a * vi
		}
	}
	return out, nil
}

// MatVecTransposeInto computes mᵀ·v into out (length m.Cols()) without
// materializing the transpose. It allocates nothing.
func (m *Matrix) MatVecTransposeInto(out, v Vector) error {
	if m.rows != len(v) || m.cols != len(out) {
		return fmt.Errorf("%w: matvecT %dx%d ᵀ· %d into %d", ErrDimensionMismatch, m.rows, m.cols, len(v), len(out))
	}
	clear(out)
	for i := 0; i < m.rows; i++ {
		row := m.data[i*m.cols : (i+1)*m.cols]
		vi := v[i]
		if vi == 0 {
			continue
		}
		for j, a := range row {
			out[j] += a * vi
		}
	}
	return nil
}

// Scale returns alpha*m.
func (m *Matrix) Scale(alpha float64) *Matrix {
	out := m.Clone()
	for i := range out.data {
		out.data[i] *= alpha
	}
	return out
}

// AllNonNegative reports whether every element is ≥ 0.
func (m *Matrix) AllNonNegative() bool {
	for _, x := range m.data {
		if x < 0 {
			return false
		}
	}
	return true
}

// AllFinite reports whether every element is finite.
func (m *Matrix) AllFinite() bool {
	for _, x := range m.data {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return false
		}
	}
	return true
}

// Equal reports whether m and b have the same shape and all elements within
// tol of each other.
func (m *Matrix) Equal(b *Matrix, tol float64) bool {
	if m.rows != b.rows || m.cols != b.cols {
		return false
	}
	for i := range m.data {
		if math.Abs(m.data[i]-b.data[i]) > tol {
			return false
		}
	}
	return true
}

// String renders the matrix for debugging; large matrices are abbreviated.
func (m *Matrix) String() string {
	const maxShow = 8
	s := fmt.Sprintf("Matrix(%dx%d)[", m.rows, m.cols)
	for i := 0; i < m.rows && i < maxShow; i++ {
		s += "\n  "
		for j := 0; j < m.cols && j < maxShow; j++ {
			s += fmt.Sprintf("%10.4g ", m.At(i, j))
		}
		if m.cols > maxShow {
			s += "..."
		}
	}
	if m.rows > maxShow {
		s += "\n  ..."
	}
	return s + "\n]"
}
