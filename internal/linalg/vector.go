// Package linalg provides the dense linear-algebra substrate used by every
// other package in memlp: vectors, row-major dense matrices, and direct
// solvers (partial-pivoted LU, pivot-free LDLᵀ, and the pattern-driven
// structured elimination behind the analog settle).
//
// The package depends only on the standard library. It is written for the
// moderate problem sizes of the paper's evaluation (systems up to a few
// thousand unknowns), favouring clarity and numerical robustness (partial
// pivoting, explicit singularity reporting) over cache-blocked performance.
package linalg

import (
	"errors"
	"fmt"
	"math"
)

// ErrDimensionMismatch is returned when operand shapes are incompatible.
var ErrDimensionMismatch = errors.New("linalg: dimension mismatch")

// Vector is a dense column vector.
type Vector []float64

// NewVector returns a zero vector of length n.
func NewVector(n int) Vector { return make(Vector, n) }

// Ones returns a vector of n ones.
func Ones(n int) Vector {
	v := make(Vector, n)
	v.Fill(1)
	return v
}

// VectorOf returns a vector with the given elements (copied).
//
//memlpvet:ignore deadexport a shared literal-vector fixture for the tests of many packages
func VectorOf(elems ...float64) Vector {
	v := make(Vector, len(elems))
	copy(v, elems)
	return v
}

// Clone returns a deep copy of v.
func (v Vector) Clone() Vector {
	out := make(Vector, len(v))
	copy(out, v)
	return out
}

// AxpyInPlace computes v += alpha*w in place.
func (v Vector) AxpyInPlace(alpha float64, w Vector) error {
	if len(v) != len(w) {
		return fmt.Errorf("%w: axpy %d vs %d", ErrDimensionMismatch, len(v), len(w))
	}
	for i := range v {
		v[i] += alpha * w[i]
	}
	return nil
}

// Scale returns alpha*v.
func (v Vector) Scale(alpha float64) Vector {
	out := make(Vector, len(v))
	for i := range v {
		out[i] = alpha * v[i]
	}
	return out
}

// Dot returns the inner product vᵀw.
func (v Vector) Dot(w Vector) (float64, error) {
	if len(v) != len(w) {
		return 0, fmt.Errorf("%w: dot %d vs %d", ErrDimensionMismatch, len(v), len(w))
	}
	var s float64
	for i := range v {
		s += v[i] * w[i]
	}
	return s, nil
}

// Norm2 returns the Euclidean norm, guarding against overflow.
func (v Vector) Norm2() float64 {
	var scale, ssq float64 = 0, 1
	for _, x := range v {
		if x == 0 {
			continue
		}
		ax := math.Abs(x)
		if scale < ax {
			r := scale / ax
			ssq = 1 + ssq*r*r
			scale = ax
		} else {
			r := ax / scale
			ssq += r * r
		}
	}
	return scale * math.Sqrt(ssq)
}

// NormInf returns the maximum absolute element, or 0 for an empty vector.
func (v Vector) NormInf() float64 {
	var m float64
	for _, x := range v {
		if a := math.Abs(x); a > m {
			m = a
		}
	}
	return m
}

// Max returns the largest element. It returns -Inf for an empty vector.
func (v Vector) Max() float64 {
	m := math.Inf(-1)
	for _, x := range v {
		if x > m {
			m = x
		}
	}
	return m
}

// Fill sets every element to x.
func (v Vector) Fill(x float64) {
	for i := range v {
		v[i] = x
	}
}

// AllFinite reports whether every element is finite (no NaN or Inf).
func (v Vector) AllFinite() bool {
	for _, x := range v {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return false
		}
	}
	return true
}
