package cone

import "math"

// Scaling is the per-block NT scaling workspace. All storage is preallocated
// at construction, so Update and the apply methods are allocation-free on the
// iteration hot path. One Scaling serves one SOC block across all iterations
// of a solve (and across solves of same-shaped problems).
type Scaling struct {
	dim int

	// Lambda is the scaled point λ = W·y = W⁻¹·w.
	Lambda []float64
	// v is the hyperbolic Householder vector with vᵀJv = 1
	// (J = diag(1, −1, …, −1)); W = η(2vvᵀ − J) and
	// W⁻¹ = η⁻¹(2(Jv)(Jv)ᵀ − J).
	v []float64
	// eta is the scaling magnitude η = (det w / det y)^¼.
	eta float64

	// P = Arw(λ)·W⁻¹ and Q = Arw(λ)·W, row-major d×d — the coefficient
	// blocks written into the Newton system (and onto the crossbar).
	P, Q []float64
	// Wsq is W² = P⁻¹Q = η²(2ggᵀ − J), row-major d×d — the Schur block the
	// reduced KKT system carries for cone rows (the conic −Y⁻¹W analogue).
	Wsq []float64

	g, wb, yb, col, tmp []float64
}

// NewScaling returns a scaling workspace for blocks of the given dimension
// (dim ≥ 2).
func NewScaling(dim int) *Scaling {
	return &Scaling{
		dim:    dim,
		Lambda: make([]float64, dim),
		v:      make([]float64, dim),
		P:      make([]float64, dim*dim),
		Q:      make([]float64, dim*dim),
		Wsq:    make([]float64, dim*dim),
		g:      make([]float64, dim),
		wb:     make([]float64, dim),
		yb:     make([]float64, dim),
		col:    make([]float64, dim),
		tmp:    make([]float64, dim),
	}
}

// Dim returns the block dimension.
func (sc *Scaling) Dim() int { return sc.dim }

// Update recomputes the NT scaling for the strictly interior pair (w, y) and
// refreshes λ, v, η, P and Q. It reports false when either block has lost
// interiority (det ≤ 0), in which case the previous contents are stale and
// the caller must treat the iterate as a numerical failure.
//
//memlp:hotpath
func (sc *Scaling) Update(w, y []float64) bool {
	d := sc.dim
	dw, dy := Det(w), Det(y)
	if !(dw > 0) || !(dy > 0) {
		return false
	}
	sw, sy := math.Sqrt(dw), math.Sqrt(dy)
	var dot float64
	for i := 0; i < d; i++ {
		sc.wb[i] = w[i] / sw
		sc.yb[i] = y[i] / sy
		dot += sc.wb[i] * sc.yb[i]
	}
	gamma := math.Sqrt((1 + dot) / 2)
	if !(gamma > 0) {
		return false
	}
	// Scaling-point direction g = (w̄ + Jȳ)/(2γ) with det(g) = 1; the NT
	// matrix is W = Q_g^½ = η(2vvᵀ − J) with v the Jordan square root
	// v = (g + e)/√(2(g₀+1)) (det(v) = 1), since Q_v² = Q_g.
	sc.g[0] = (sc.wb[0] + sc.yb[0]) / (2 * gamma)
	for i := 1; i < d; i++ {
		sc.g[i] = (sc.wb[i] - sc.yb[i]) / (2 * gamma)
	}
	root := math.Sqrt(2 * (sc.g[0] + 1))
	sc.v[0] = (sc.g[0] + 1) / root
	for i := 1; i < d; i++ {
		sc.v[i] = sc.g[i] / root
	}
	sc.eta = math.Sqrt(sw / sy)

	// λ = W·y = η(2v(vᵀy) − Jy).
	var vy float64
	for i := 0; i < d; i++ {
		vy += sc.v[i] * y[i]
	}
	sc.Lambda[0] = sc.eta * (2*sc.v[0]*vy - y[0])
	for i := 1; i < d; i++ {
		sc.Lambda[i] = sc.eta * (2*sc.v[i]*vy + y[i])
	}

	// P and Q column by column: column j of W (resp. W⁻¹) in closed form,
	// then one arrow product. O(d²) total, no allocation.
	for j := 0; j < d; j++ {
		jj := 1.0 // J(j,j)
		jvj := sc.v[j]
		if j > 0 {
			jj = -1
			jvj = -sc.v[j]
		}
		// W⁻¹·e_j = η⁻¹(2(Jv)·(Jv)_j − J·e_j) → P column j.
		sc.col[0] = 2 * sc.v[0] * jvj / sc.eta
		for i := 1; i < d; i++ {
			sc.col[i] = 2 * -sc.v[i] * jvj / sc.eta
		}
		sc.col[j] -= jj / sc.eta
		sc.arwMul(sc.tmp, sc.col)
		for i := 0; i < d; i++ {
			sc.P[i*d+j] = sc.tmp[i]
		}
		// W·e_j = η(2v·v_j − J·e_j) → Q column j.
		for i := 0; i < d; i++ {
			sc.col[i] = 2 * sc.v[i] * sc.v[j] * sc.eta
		}
		sc.col[j] -= jj * sc.eta
		sc.arwMul(sc.tmp, sc.col)
		for i := 0; i < d; i++ {
			sc.Q[i*d+j] = sc.tmp[i]
		}
	}

	// W² = Q_g = η²(2ggᵀ − J) directly from the scaling-point direction.
	eta2 := sc.eta * sc.eta
	for i := 0; i < d; i++ {
		for j := 0; j < d; j++ {
			sc.Wsq[i*d+j] = 2 * sc.g[i] * sc.g[j] * eta2
		}
	}
	sc.Wsq[0] -= eta2
	for i := 1; i < d; i++ {
		sc.Wsq[i*d+i] += eta2
	}
	return true
}

// arwMul computes dst = Arw(λ)·u = λ∘u. dst must not alias u.
//
//memlp:hotpath
func (sc *Scaling) arwMul(dst, u []float64) {
	d := sc.dim
	var dot float64
	for i := 0; i < d; i++ {
		dot += sc.Lambda[i] * u[i]
	}
	l0, u0 := sc.Lambda[0], u[0]
	dst[0] = dot
	for i := 1; i < d; i++ {
		dst[i] = l0*u[i] + u0*sc.Lambda[i]
	}
}

// LambdaSq writes λ∘λ into dst (length dim): the current complementarity
// products, playing the role the XZe/YWe diagonals play in the LP system.
//
//memlp:hotpath
func (sc *Scaling) LambdaSq(dst []float64) {
	sc.arwMul(dst, sc.Lambda)
}

// mulW computes dst = W·u = η(2v(vᵀu) − Ju). dst may alias u.
//
//memlp:hotpath
func (sc *Scaling) mulW(dst, u []float64) {
	d := sc.dim
	var vu float64
	for i := 0; i < d; i++ {
		vu += sc.v[i] * u[i]
	}
	u0 := u[0]
	dst[0] = sc.eta * (2*sc.v[0]*vu - u0)
	for i := 1; i < d; i++ {
		dst[i] = sc.eta * (2*sc.v[i]*vu + u[i])
	}
}

// SolveP computes dst = P⁻¹·u = W·Arw(λ)⁻¹·u, used to eliminate Δw from the
// cone rows of the reduced system. dst must not alias u.
//
//memlp:hotpath
func (sc *Scaling) SolveP(dst, u []float64) bool {
	d := sc.dim
	l0 := sc.Lambda[0]
	det := Det(sc.Lambda)
	if !(det > 0) || !(l0 > 0) {
		return false
	}
	// Arw(λ)⁻¹·u: t₀ = (λ₀u₀ − λ̄ᵀū)/det, t̄ = (ū − λ̄·t₀)/λ₀.
	t0 := (l0*u[0] - tailDot(sc.Lambda, u)) / det
	sc.tmp[0] = t0
	for i := 1; i < d; i++ {
		sc.tmp[i] = (u[i] - sc.Lambda[i]*t0) / l0
	}
	sc.mulW(dst, sc.tmp)
	return true
}
