package linalg

import (
	"fmt"
	"math"
)

// LDLT holds a pivot-free LDLᵀ factorization A = LDLᵀ of a symmetric
// quasi-definite matrix: the packed unit-upper factor U = Lᵀ above the
// diagonal and D on it. Quasi-definiteness — a positive-definite leading
// diagonal block and a negative-definite trailing one, exactly the shape of
// the reduced KKT system [[X⁻¹Z, Aᵀ], [A, −Y⁻¹W]] — guarantees a nonzero
// pivot sequence in any symmetric elimination order (Vanderbei), so no pivot
// search, no row swaps, and half the flops of LU on the same matrix.
type LDLT struct {
	u *Matrix // packed unit-upper U = Lᵀ (above diag) and D (on diag)
}

// FactorizeLDLTInto computes the pivot-free LDLᵀ factorization of a
// symmetric quasi-definite matrix. Only the upper triangle of a is read;
// symmetry is the caller's contract (the KKT assemblies write both halves
// from the same source matrix). It returns ErrSingular if a pivot collapses
// to zero, which for an SQD matrix only happens by floating-point underflow
// of an iterate.
//
// When f already holds a factorization of the same dimension its packed
// matrix is overwritten instead of reallocated, so the per-iteration
// re-factorization of a PDIP solve allocates nothing; pass nil to allocate
// fresh. The returned *LDLT is f when reuse succeeded; callers should always
// keep the returned value.
func FactorizeLDLTInto(f *LDLT, a *Matrix) (*LDLT, error) {
	if a.Rows() != a.Cols() {
		return nil, fmt.Errorf("%w: %dx%d", ErrNotSquare, a.Rows(), a.Cols())
	}
	n := a.Rows()
	var u *Matrix
	if f != nil && f.u != nil && f.u.Rows() == n && f.u.Cols() == n {
		u = f.u
		copy(u.data, a.data)
	} else {
		u = a.Clone()
		f = &LDLT{}
	}

	// Right-looking outer-product elimination on the upper triangle, rows of
	// U contiguous in memory. The zero-skip on the pivot row's entries is
	// what exploits the KKT block structure: row k of the diagonal block
	// [X⁻¹Z] has non-zeros only in the Aᵀ columns, so the trailing update
	// touches O(n·m) cells instead of O((n+m)²) — the Eq. 14a sparsity that
	// StructuredWorkspace exploits on the analog path, carried over to the
	// software rung. With no pivoting the sparsity pattern is static, so no
	// occupancy bookkeeping is needed: the skip test is the data itself.
	for k := 0; k < n; k++ {
		rk := u.RawRow(k)
		d := rk[k]
		if d == 0 {
			return nil, fmt.Errorf("%w: zero pivot at column %d", ErrSingular, k)
		}
		for i := k + 1; i < n; i++ {
			aki := rk[i] // still unscaled: S_ki
			if aki == 0 {
				continue
			}
			m := aki / d
			ri := u.RawRow(i)
			for j := i; j < n; j++ {
				ri[j] -= m * rk[j]
			}
		}
		inv := 1 / d
		for i := k + 1; i < n; i++ {
			rk[i] *= inv
		}
	}
	f.u = u
	return f, nil
}

// Solve solves A·x = b using the factorization.
func (f *LDLT) Solve(b Vector) (Vector, error) {
	x := b.Clone()
	if err := f.SolveInPlace(x); err != nil {
		return nil, err
	}
	return x, nil
}

// SolveRefineInPlace solves A·x = b with one step of iterative refinement
// against the original matrix a (which the factorization left untouched):
// x ← x + A⁻¹(b − A·x), both solves through the factorization. The pivot-free
// elimination is exact for a comfortably quasi-definite matrix but loses
// accuracy as the definiteness margin collapses — exactly the late
// interior-point iterations where X⁻¹Z spans many orders of magnitude (e.g.
// approaching an infeasibility certificate). One O(n²) correction restores
// pivoted-LU-grade solutions there while keeping the factorization itself
// pivot-free. x holds b on entry and the solution on return; scratch must
// have length ≥ 2n; on return scratch[:n] still holds b, so the caller can
// retry with a different factorization if refinement did not converge.
//
// The returned ratio is ‖correction‖∞ / ‖x‖∞, the standard refinement
// convergence estimate: a ratio ≪ 1 means the factorized solve was already
// accurate, while a ratio ≳ 0.5 means the matrix is too ill-conditioned for
// refinement to converge and the solution should not be trusted (NaN or Inf
// anywhere in the correction reports +Inf). Allocates nothing.
func (f *LDLT) SolveRefineInPlace(a *Matrix, x, scratch Vector) (float64, error) {
	n := f.u.Rows()
	if a.Rows() != n || a.Cols() != n || len(scratch) < 2*n {
		return 0, fmt.Errorf("%w: refine with %dx%d matrix, %d scratch for %d unknowns",
			ErrDimensionMismatch, a.Rows(), a.Cols(), len(scratch), n)
	}
	b := scratch[:n]
	r := scratch[n : 2*n]
	copy(b, x)
	if err := f.SolveInPlace(x); err != nil {
		return 0, err
	}
	for i := 0; i < n; i++ {
		ri := a.RawRow(i)
		s := b[i]
		for j, v := range ri {
			if v != 0 {
				s -= v * x[j]
			}
		}
		r[i] = s
	}
	if err := f.SolveInPlace(r); err != nil {
		return 0, err
	}
	var xn, rn float64
	for i := range x {
		x[i] += r[i]
		if a := math.Abs(x[i]); a > xn {
			xn = a
		}
		if a := math.Abs(r[i]); a > rn {
			rn = a
		}
	}
	if math.IsNaN(rn) || math.IsInf(rn, 0) || math.IsNaN(xn) {
		return math.Inf(1), nil
	}
	if xn == 0 {
		return 0, nil
	}
	return rn / xn, nil
}

// SolveInPlace solves A·x = b via Uᵀ(D(U·x)) = b, overwriting b with the
// solution. It allocates nothing.
func (f *LDLT) SolveInPlace(x Vector) error {
	n := f.u.Rows()
	if len(x) != n {
		return fmt.Errorf("%w: solve %d unknowns, rhs %d", ErrDimensionMismatch, n, len(x))
	}
	// Forward-substitute Uᵀ (unit lower) in saxpy form so every inner loop
	// walks one contiguous row of U.
	for k := 0; k < n; k++ {
		xk := x[k]
		if xk == 0 {
			continue
		}
		rk := f.u.RawRow(k)
		for i := k + 1; i < n; i++ {
			x[i] -= rk[i] * xk
		}
	}
	// Diagonal scale by D⁻¹.
	for i := 0; i < n; i++ {
		x[i] /= f.u.At(i, i)
	}
	// Back-substitute unit-upper U.
	for i := n - 1; i >= 0; i-- {
		ri := f.u.RawRow(i)
		s := x[i]
		for j := i + 1; j < n; j++ {
			s -= ri[j] * x[j]
		}
		x[i] = s
	}
	return nil
}
