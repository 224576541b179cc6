package pdhg

import "github.com/memlp/memlp/internal/linalg"

// Per-iteration vector kernels. Each runs once (or once per block) per PDHG
// iteration on preallocated buffers, so all of them are annotated
// //memlp:hotpath and allocate nothing.

// primalStep applies the proximal gradient step of the primal
// half-iteration, x ← max(0, x − τ(z − c)), and writes the overrelaxed
// point x̄ ← 2x⁺ − x used by the following forward mat-vec.
//
//memlp:hotpath
func primalStep(x, xbar, z, c linalg.Vector, tau float64) {
	for i := range x {
		xi := x[i] - tau*(z[i]-c[i])
		if xi < 0 {
			xi = 0
		}
		xbar[i] = 2*xi - x[i]
		x[i] = xi
	}
}

// dualStep applies the dual half-iteration y ← max(0, y + σ(v − b)) where
// v is the analog A·x̄.
//
//memlp:hotpath
func dualStep(y, v, b linalg.Vector, sigma float64) {
	for i := range y {
		yi := y[i] + sigma*(v[i]-b[i])
		if yi < 0 {
			yi = 0
		}
		y[i] = yi
	}
}

// axUpdate advances the A·x recurrence: with v = A(2x⁺ − x) and ax = A·x,
// the new product is A·x⁺ = (v + ax)/2 — one cheap combine instead of a
// third analog pass per iteration.
//
//memlp:hotpath
func axUpdate(ax, v linalg.Vector) {
	for i := range ax {
		ax[i] = 0.5 * (v[i] + ax[i])
	}
}

// accumulate folds v into the running ergodic sum.
//
//memlp:hotpath
func accumulate(sum, v linalg.Vector) {
	for i := range sum {
		sum[i] += v[i]
	}
}

// scaleInto writes dst ← alpha·src (the ergodic average).
//
//memlp:hotpath
func scaleInto(dst, src linalg.Vector, alpha float64) {
	for i := range dst {
		dst[i] = alpha * src[i]
	}
}

// maxPosDiff returns max_i (a[i] − b[i])₊ — the ∞-norm of the positive
// part of a − b, the numerator of the one-sided KKT residuals (Ax ≤ b and
// Aᵀy ≥ c violations).
//
//memlp:hotpath
func maxPosDiff(a, b linalg.Vector) float64 {
	worst := 0.0
	for i := range a {
		if d := a[i] - b[i]; d > worst {
			worst = d
		}
	}
	return worst
}

// dot returns aᵀb for equal-length vectors.
//
//memlp:hotpath
func dot(a, b linalg.Vector) float64 {
	s := 0.0
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}
