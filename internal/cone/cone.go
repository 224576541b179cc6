// Package cone implements the Jordan-algebra and Nesterov–Todd (NT) scaling
// primitives for second-order (Lorentz) cones,
//
//	Q^d = { s ∈ R^d : s₀ ≥ ‖s̄‖₂ },  s = (s₀, s̄),  d ≥ 2,
//
// following the SOCP extension of the crossbar-PDIP framework (Ren et al.,
// arXiv 1802.00824). The package is pure vector math with no dependencies, so
// both the software PDIP baseline and the analog crossbar core can share one
// implementation of the scaling algebra.
//
// The central object is Scaling: for a strictly interior primal/dual block
// pair (w, y) it computes the NT scaling point v, the scaled point
// λ = W·y = W⁻¹·w, and the two dense d×d blocks
//
//	P = Arw(λ)·W⁻¹   (acting on Δw)
//	Q = Arw(λ)·W     (acting on Δy)
//
// that replace the diagonal W/Y complementarity entries of the LP Newton
// system: the linearized complementarity row reads P·Δw + Q·Δy = µe − λ∘λ.
// Because P·w + Q·y = Arw(λ)(λ + λ) = 2·λ∘λ, the row has exactly the Eq. 15
// crossbar shape — base µe, a 0.5 resistive divider on the analog product,
// residual µe − λ∘λ — so the SOCP system maps onto the fabric the same way
// the LP system does (the d = 1 orthant case degenerates to P = y, Q = w,
// the existing diagonal entries).
package cone

import "math"

// interiorMargin is the relative axis headroom ClampInterior restores: a
// clamped block satisfies s₀ ≥ ‖s̄‖·(1+interiorMargin) + floor, keeping
// det(s) strictly positive for the NT scaling even after analog perturbation.
const interiorMargin = 1e-9

// Block locates one second-order cone inside a length-m constraint vector:
// components [Start, Start+Dim) form the block, with the axis first.
type Block struct {
	Start, Dim int
}

// tailNorm returns ‖s̄‖₂, the Euclidean norm of the non-axis components.
//
//memlp:hotpath
func tailNorm(s []float64) float64 {
	var ss float64
	for _, v := range s[1:] {
		ss += v * v
	}
	return math.Sqrt(ss)
}

// tailDot returns s̄ᵀt̄, the dot product of the non-axis components.
//
//memlp:hotpath
func tailDot(s, t []float64) float64 {
	var d float64
	for i := 1; i < len(s); i++ {
		d += s[i] * t[i]
	}
	return d
}

// Det returns the hyperbolic determinant s₀² − ‖s̄‖², computed in factored
// form to avoid cancellation near the boundary.
//
//memlp:hotpath
func Det(s []float64) float64 {
	n := tailNorm(s)
	return (s[0] - n) * (s[0] + n)
}

// Dist returns ‖s̄‖ − s₀: negative strictly inside the cone, zero on the
// boundary, positive outside.
//
//memlp:hotpath
func Dist(s []float64) float64 {
	return tailNorm(s) - s[0]
}

// InitInterior sets every block of v to the Jordan identity e = (1, 0, …, 0),
// the canonical strictly interior starting point (the all-ones LP start is
// NOT interior for d ≥ 2: ‖1̄‖ = √(d−1) ≥ 1).
func InitInterior(v []float64, blocks []Block) {
	for _, b := range blocks {
		v[b.Start] = 1
		for i := 1; i < b.Dim; i++ {
			v[b.Start+i] = 0
		}
	}
}

// ClampInterior restores strict interiority of each block of v: the axis is
// raised to ‖s̄‖·(1+interiorMargin) + floor when it has fallen below. It is
// the cone analogue of the orthant representability-floor clamp — the damped
// step keeps iterates interior in exact arithmetic, and this guards the NT
// scaling against analog rounding pushing a block onto the boundary.
//
//memlp:hotpath
func ClampInterior(v []float64, blocks []Block, floor float64) {
	for _, b := range blocks {
		s := v[b.Start : b.Start+b.Dim]
		min0 := tailNorm(s)*(1+interiorMargin) + floor
		if s[0] < min0 {
			s[0] = min0
		}
	}
}

// StepToBoundary returns the largest t ≥ 0 such that s + t·ds stays in Q^d
// (math.Inf(1) when the ray never leaves). s must be strictly interior. The
// exit is the smallest positive root of det(s + t·ds) = a·t² + b·t + c: with
// c = det(s) > 0 the axis cannot reach zero before the determinant does, so
// the quadratic alone decides.
//
//memlp:hotpath
func StepToBoundary(s, ds []float64) float64 {
	c := Det(s)
	a := Det(ds)
	b := 2 * (s[0]*ds[0] - tailDot(s, ds))

	const tiny = 1e-300
	if math.Abs(a) < tiny {
		if b < 0 {
			return -c / b
		}
		return math.Inf(1)
	}
	disc := b*b - 4*a*c
	if disc < 0 {
		if a > 0 {
			return math.Inf(1) // opens upward, never touches zero
		}
		disc = 0 // a < 0 with c > 0 must cross; rounding pushed disc below 0
	}
	sq := math.Sqrt(disc)
	var q float64
	if b >= 0 {
		q = -(b + sq) / 2
	} else {
		q = -(b - sq) / 2
	}
	t := math.Inf(1)
	if r := q / a; r > 0 && r < t {
		t = r
	}
	if math.Abs(q) > tiny {
		if r := c / q; r > 0 && r < t {
			t = r
		}
	}
	return t
}

// MaxStepRatio returns the cone analogue of the Eq. 11 ratio test over the
// blocks of (v, dv): the largest 1/θ_exit, where θ_exit is each block's
// StepToBoundary. Merging the result with the componentwise orthant ratio
// (via max) and stepping θ = r/maxRatio keeps every block interior with the
// same damping r the LP path uses. Returns 0 when no block ever exits.
//
//memlp:hotpath
func MaxStepRatio(v, dv []float64, blocks []Block) float64 {
	var mx float64
	for _, b := range blocks {
		t := StepToBoundary(v[b.Start:b.Start+b.Dim], dv[b.Start:b.Start+b.Dim])
		if t > 0 && !math.IsInf(t, 1) {
			if r := 1 / t; r > mx {
				mx = r
			}
		}
	}
	return mx
}
