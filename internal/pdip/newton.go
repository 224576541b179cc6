package pdip

import (
	"fmt"

	"github.com/memlp/memlp/internal/cone"
	"github.com/memlp/memlp/internal/linalg"
	"github.com/memlp/memlp/internal/lp"
)

// workspace holds the per-solver scratch storage for the Newton systems so
// repeated solves of same-shaped problems allocate (almost) nothing: the
// assembled matrix, its LU factorization buffers, the residual vectors, and
// the direction vectors are all reused across iterations and solves.
type workspace struct {
	n, m int

	rho, sigma linalg.Vector
	mat        *linalg.Matrix
	rhs        linalg.Vector
	// lu factorizes the full (unsymmetric) Eq. 12 system; ldlt factorizes
	// the symmetric quasi-definite reduced KKT system without pivoting —
	// half the flops and a static sparsity pattern (see solveNewtonReduced).
	lu     *linalg.LU
	ldlt   *linalg.LDLT
	refine linalg.Vector // 2(n+m) scratch for one LDLᵀ refinement step
	dw, dz linalg.Vector

	// cones is the cone layout of the constraint rows (no blocks for pure
	// LPs). coneRc and conePinv are length-m scratch for the cone rows'
	// complementarity residual µe − λ∘λ and its P⁻¹ image.
	cones    cone.Layout
	coneRc   linalg.Vector
	conePinv linalg.Vector
}

// coneResiduals fills coneRc with the centered complementarity residual
// µe − λ∘λ on the cone rows (e is the Jordan identity: 1 on each block's
// axis row, 0 on tail rows).
func (ws *workspace) coneResiduals(mu float64) {
	for k, blk := range ws.cones.Blocks {
		rc := ws.coneRc[blk.Start : blk.Start+blk.Dim]
		ws.cones.Scalings[k].LambdaSq(rc)
		rc[0] = mu - rc[0]
		for i := 1; i < blk.Dim; i++ {
			rc[i] = -rc[i]
		}
	}
}

// errConeScaling wraps linalg.ErrSingular so callers map a degenerate NT
// scaling onto the same numerical-failure path as a singular Newton matrix.
var errConeScaling = fmt.Errorf("%w: degenerate cone scaling", linalg.ErrSingular)

// prepare (re)sizes the buffers for problem p and fills the static blocks of
// the Newton matrix (the A/Aᵀ/±I blocks, which do not change across
// iterations); the complementarity diagonals are refreshed per iteration by
// the solveNewton* methods.
func (ws *workspace) prepare(p *lp.Problem, backend NewtonBackend) {
	n, m := p.NumVariables(), p.NumConstraints()
	size := n + m
	if backend == NewtonFull {
		size = 2 * (n + m)
	}
	if ws.n != n || ws.m != m || ws.mat == nil || ws.mat.Rows() != size {
		ws.n, ws.m = n, m
		ws.rho = linalg.NewVector(m)
		ws.sigma = linalg.NewVector(n)
		ws.mat = linalg.NewMatrix(size, size)
		ws.rhs = linalg.NewVector(size)
		ws.lu = nil
		ws.ldlt = nil
		ws.refine = linalg.NewVector(2 * (n + m))
		ws.dw = linalg.NewVector(m)
		ws.dz = linalg.NewVector(n)
	} else {
		ws.mat.Zero()
	}
	ws.cones.Reset(m, p.SOCBlocks())
	if ws.cones.Conic() {
		ws.coneRc = linalg.Resize(ws.coneRc, m)
		ws.conePinv = linalg.Resize(ws.conePinv, m)
	}

	mat := ws.mat
	if backend == NewtonFull {
		// Block row 1: A·Δx + I·Δw = ρ.
		for i := 0; i < m; i++ {
			arow := p.A.RawRow(i)
			brow := mat.RawRow(i)
			copy(brow[:n], arow)
			brow[n+m+i] = 1
		}
		// Block row 2: Aᵀ·Δy − I·Δz = σ (transpose written by loops — no
		// temporary matrix).
		for j := 0; j < n; j++ {
			brow := mat.RawRow(m + j)
			for k := 0; k < m; k++ {
				brow[n+k] = p.A.At(k, j)
			}
			brow[n+2*m+j] = -1
		}
		return
	}
	// Reduced KKT: Aᵀ upper-right, A lower-left.
	for j := 0; j < n; j++ {
		brow := mat.RawRow(j)
		for k := 0; k < m; k++ {
			brow[n+k] = p.A.At(k, j)
		}
	}
	for i := 0; i < m; i++ {
		copy(mat.RawRow(n + i)[:n], p.A.RawRow(i))
	}
}

// solveNewtonFull refreshes the complementarity blocks of, and solves, the
// full Newton system of Eq. 12:
//
//	⎡ A   0   I   0 ⎤ ⎡Δx⎤   ⎡ b − A·x − w  ⎤
//	⎢ 0   Aᵀ  0  −I ⎥ ⎢Δy⎥ = ⎢ c − Aᵀ·y + z ⎥
//	⎢ Z   0   0   X ⎥ ⎢Δw⎥   ⎢ µ1 − XZe     ⎥
//	⎣ 0   W   Y   0 ⎦ ⎣Δz⎦   ⎣ µ1 − YWe     ⎦
//
// with dense LU — the O(N³)-per-iteration software baseline of §3.5. The
// returned directions are views into workspace storage, valid until the next
// solveNewton* call.
func (ws *workspace) solveNewtonFull(x, y, w, z, rho, sigma linalg.Vector, mu float64) (dx, dy, dw, dz linalg.Vector, err error) {
	n, m := ws.n, ws.m
	big := ws.mat
	// Block row 3: Z·Δx + X·Δz = µ1 − XZe.
	for i := 0; i < n; i++ {
		big.Set(m+n+i, i, z[i])
		big.Set(m+n+i, n+2*m+i, x[i])
	}
	// Block row 4, orthant rows: W·Δy + Y·Δw = µ1 − YWe. Cone rows carry
	// the NT-scaled linearization instead: P·Δw + Q·Δy = µe − λ∘λ, with the
	// dense d×d blocks P = Arw(λ)W⁻¹ and Q = Arw(λ)W replacing the scalar
	// diagonals (the d = 1 degenerate case is exactly P = y, Q = w).
	for i := 0; i < m; i++ {
		if ws.cones.InCone(i) {
			continue
		}
		big.Set(m+2*n+i, n+i, w[i])
		big.Set(m+2*n+i, n+m+i, y[i])
	}
	for k, blk := range ws.cones.Blocks {
		sc, d := ws.cones.Scalings[k], blk.Dim
		for i := 0; i < d; i++ {
			row := big.RawRow(m + 2*n + blk.Start + i)
			for j := 0; j < d; j++ {
				row[n+blk.Start+j] = sc.Q[i*d+j]
				row[n+m+blk.Start+j] = sc.P[i*d+j]
			}
		}
	}

	rhs := ws.rhs
	copy(rhs[0:m], rho)
	copy(rhs[m:m+n], sigma)
	for i := 0; i < n; i++ {
		rhs[m+n+i] = mu - x[i]*z[i]
	}
	for i := 0; i < m; i++ {
		if ws.cones.InCone(i) {
			continue
		}
		rhs[m+2*n+i] = mu - y[i]*w[i]
	}
	if ws.cones.Conic() {
		ws.coneResiduals(mu)
		for _, blk := range ws.cones.Blocks {
			for i := 0; i < blk.Dim; i++ {
				rhs[m+2*n+blk.Start+i] = ws.coneRc[blk.Start+i]
			}
		}
	}

	ws.lu, err = linalg.FactorizeInto(ws.lu, big)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	if err := ws.lu.SolveInPlace(rhs); err != nil {
		return nil, nil, nil, nil, err
	}
	sol := rhs
	return sol[0:n], sol[n : n+m], sol[n+m : n+2*m], sol[n+2*m:], nil
}

// solveNewtonReduced eliminates Δz and Δw from Eq. 9:
//
//	Δz = X⁻¹(µ1 − XZe) − X⁻¹Z·Δx      (from 9c)
//	Δw = Y⁻¹(µ1 − YWe) − Y⁻¹W·Δy      (from 9d)
//
// leaving the (n+m) reduced KKT system
//
//	⎡ X⁻¹Z    Aᵀ    ⎤ ⎡Δx⎤ = ⎡ σ + X⁻¹(µ1 − XZe) ⎤
//	⎣  A     −Y⁻¹W  ⎦ ⎣Δy⎦   ⎣ ρ − Y⁻¹(µ1 − YWe) ⎦
//
// The reduced matrix is symmetric quasi-definite — positive-definite X⁻¹Z
// block, negative-definite −Y⁻¹W/−W² block — so it is solved with a
// pivot-free LDLᵀ instead of dense LU: half the flops, no pivot search, and
// a static sparsity pattern that lets the factorization skip the structural
// zeros of the diagonal blocks. The returned directions are views into
// workspace storage, valid until the next solveNewton* call.
// For cone rows the same elimination runs through the NT blocks: from
// P·Δw + Q·Δy = µe − λ∘λ,
//
//	Δw = P⁻¹(µe − λ∘λ) − W²·Δy      (P⁻¹Q = W²)
//
// so row block (n+blk, n+blk) carries the dense −W² in place of the scalar
// −Y⁻¹W diagonal and the rhs subtracts P⁻¹(µe − λ∘λ).
func (ws *workspace) solveNewtonReduced(x, y, w, z, rho, sigma linalg.Vector, mu float64) (dx, dy, dw, dz linalg.Vector, err error) {
	n, m := ws.n, ws.m
	kkt := ws.mat

	for i := 0; i < n; i++ {
		kkt.Set(i, i, z[i]/x[i])
	}
	for i := 0; i < m; i++ {
		if ws.cones.InCone(i) {
			continue
		}
		kkt.Set(n+i, n+i, -w[i]/y[i])
	}
	for k, blk := range ws.cones.Blocks {
		sc, d := ws.cones.Scalings[k], blk.Dim
		for i := 0; i < d; i++ {
			row := kkt.RawRow(n + blk.Start + i)
			for j := 0; j < d; j++ {
				row[n+blk.Start+j] = -sc.Wsq[i*d+j]
			}
		}
	}

	rhs := ws.rhs
	for i := 0; i < n; i++ {
		rhs[i] = sigma[i] + (mu-x[i]*z[i])/x[i]
	}
	for i := 0; i < m; i++ {
		if ws.cones.InCone(i) {
			continue
		}
		rhs[n+i] = rho[i] - (mu-y[i]*w[i])/y[i]
	}
	if ws.cones.Conic() {
		ws.coneResiduals(mu)
		for k, blk := range ws.cones.Blocks {
			end := blk.Start + blk.Dim
			if !ws.cones.Scalings[k].SolveP(ws.conePinv[blk.Start:end], ws.coneRc[blk.Start:end]) {
				return nil, nil, nil, nil, errConeScaling
			}
			for i := blk.Start; i < end; i++ {
				rhs[n+i] = rho[i] - ws.conePinv[i]
			}
		}
	}

	ws.ldlt, err = linalg.FactorizeLDLTInto(ws.ldlt, kkt)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	// Solve with one refinement step against the intact kkt matrix: the
	// pivot-free factorization loses accuracy exactly when the
	// complementarity diagonals span many orders of magnitude — late
	// iterations, and in particular the diverging iterates of an infeasible
	// instance, where a garbage Newton direction would mask the y-blowup
	// certificate. When the refinement ratio says the correction itself is as
	// large as the solution (cond(K) past 1/ε, refinement cannot converge),
	// fall back to partially-pivoted LU on the same matrix for this iteration
	// only: the hot path of a well-conditioned solve never pays for it.
	ratio, err := ws.ldlt.SolveRefineInPlace(kkt, rhs, ws.refine)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	if ratio >= 0.5 {
		copy(rhs, ws.refine[:n+m])
		ws.lu, err = linalg.FactorizeInto(ws.lu, kkt)
		if err != nil {
			return nil, nil, nil, nil, err
		}
		if err := ws.lu.SolveInPlace(rhs); err != nil {
			return nil, nil, nil, nil, err
		}
	}
	sol := rhs
	dx = sol[0:n]
	dy = sol[n:]

	dz = ws.dz
	for i := 0; i < n; i++ {
		dz[i] = (mu-x[i]*z[i])/x[i] - z[i]/x[i]*dx[i]
	}
	dw = ws.dw
	for i := 0; i < m; i++ {
		if ws.cones.InCone(i) {
			continue
		}
		dw[i] = (mu-y[i]*w[i])/y[i] - w[i]/y[i]*dy[i]
	}
	for k, blk := range ws.cones.Blocks {
		sc, d := ws.cones.Scalings[k], blk.Dim
		for i := 0; i < d; i++ {
			s := ws.conePinv[blk.Start+i]
			for j := 0; j < d; j++ {
				s -= sc.Wsq[i*d+j] * dy[blk.Start+j]
			}
			dw[blk.Start+i] = s
		}
	}
	return dx, dy, dw, dz, nil
}
