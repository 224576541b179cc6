package linalg

import (
	"errors"
	"fmt"
	"math"
)

// ErrSingular is returned when a matrix is exactly or numerically singular.
var ErrSingular = errors.New("linalg: matrix is singular")

// ErrNotSquare is returned when a square matrix is required.
var ErrNotSquare = errors.New("linalg: matrix is not square")

// LU holds an LU factorization with partial pivoting: P·A = L·U.
type LU struct {
	lu    *Matrix // packed L (unit lower, below diag) and U (on/above diag)
	pivot []int   // row permutation
}

// Factorize computes the LU factorization of a square matrix with partial
// pivoting. It returns ErrSingular if a pivot underflows.
func Factorize(a *Matrix) (*LU, error) {
	return FactorizeInto(nil, a)
}

// FactorizeInto is Factorize with storage reuse: when f already holds a
// factorization of the same dimension, its packed matrix and pivot buffers
// are overwritten instead of reallocated. Passing nil f (or one of a
// different dimension) allocates fresh storage. The returned *LU is f when
// reuse succeeded; callers should always keep the returned value.
func FactorizeInto(f *LU, a *Matrix) (*LU, error) {
	if a.Rows() != a.Cols() {
		return nil, fmt.Errorf("%w: %dx%d", ErrNotSquare, a.Rows(), a.Cols())
	}
	n := a.Rows()
	var lu *Matrix
	var pivot []int
	if f != nil && f.lu != nil && f.lu.Rows() == n && f.lu.Cols() == n {
		lu = f.lu
		copy(lu.data, a.data)
		pivot = f.pivot
	} else {
		lu = a.Clone()
		pivot = make([]int, n)
		f = &LU{}
	}
	if err := factorizeCore(lu, pivot); err != nil {
		return nil, err
	}
	f.lu, f.pivot = lu, pivot
	return f, nil
}

// factorizeCore runs the in-place LU factorization with partial pivoting on
// lu, recording the row permutation in pivot.
func factorizeCore(lu *Matrix, pivot []int) error {
	n := lu.Rows()
	for k := 0; k < n; k++ {
		// Find pivot row.
		p := k
		maxAbs := math.Abs(lu.At(k, k))
		for i := k + 1; i < n; i++ {
			if a := math.Abs(lu.At(i, k)); a > maxAbs {
				maxAbs = a
				p = i
			}
		}
		pivot[k] = p
		if maxAbs == 0 {
			return fmt.Errorf("%w: zero pivot at column %d", ErrSingular, k)
		}
		if p != k {
			rk := lu.RawRow(k)
			rp := lu.RawRow(p)
			for j := range rk {
				rk[j], rp[j] = rp[j], rk[j]
			}
		}
		pv := lu.At(k, k)
		rk := lu.RawRow(k)[k+1:]
		for i := k + 1; i < n; i++ {
			m := lu.At(i, k) / pv
			lu.Set(i, k, m)
			if m == 0 {
				continue
			}
			// Equal-length views let the compiler drop the bounds checks.
			ri := lu.RawRow(i)[k+1:]
			ri = ri[:len(rk)]
			for j, v := range rk {
				ri[j] -= m * v
			}
		}
	}
	return nil
}

// Solve solves A·x = b using the factorization.
func (f *LU) Solve(b Vector) (Vector, error) {
	n := f.lu.Rows()
	if len(b) != n {
		return nil, fmt.Errorf("%w: solve %d unknowns, rhs %d", ErrDimensionMismatch, n, len(b))
	}
	x := b.Clone()
	if err := f.SolveInPlace(x); err != nil {
		return nil, err
	}
	return x, nil
}

// SolveInPlace solves A·x = b using the factorization, overwriting b with
// the solution. It allocates nothing.
func (f *LU) SolveInPlace(x Vector) error {
	n := f.lu.Rows()
	if len(x) != n {
		return fmt.Errorf("%w: solve %d unknowns, rhs %d", ErrDimensionMismatch, n, len(x))
	}
	// The factorization swaps full rows (LAPACK convention), so the whole
	// permutation is applied to the right-hand side up front, followed by
	// clean triangular solves.
	for k := 0; k < n; k++ {
		if p := f.pivot[k]; p != k {
			x[k], x[p] = x[p], x[k]
		}
	}
	// Forward-substitute unit-diagonal L.
	for k := 0; k < n; k++ {
		xk := x[k]
		if xk == 0 {
			continue
		}
		for i := k + 1; i < n; i++ {
			x[i] -= f.lu.At(i, k) * xk
		}
	}
	// Back-substitute U.
	for i := n - 1; i >= 0; i-- {
		s := x[i]
		ri := f.lu.RawRow(i)
		for j := i + 1; j < n; j++ {
			s -= ri[j] * x[j]
		}
		d := ri[i]
		if d == 0 {
			return fmt.Errorf("%w: zero diagonal in U at %d", ErrSingular, i)
		}
		x[i] = s / d
	}
	return nil
}

// SolveDense factorizes a and solves a·x = b in one call.
func SolveDense(a *Matrix, b Vector) (Vector, error) {
	f, err := Factorize(a)
	if err != nil {
		return nil, err
	}
	return f.Solve(b)
}
