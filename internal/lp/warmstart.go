package lp

import (
	"fmt"

	"github.com/memlp/memlp/internal/cone"
	"github.com/memlp/memlp/internal/linalg"
)

// warmFloor is the strict-interior safeguard of a warm-started iterate: a
// converged previous solution sits on the boundary (inactive rows have
// y ≈ 0, basic variables have z ≈ 0), and seeding the interior-point
// iteration exactly on the boundary stalls the very first step. 1e-6 is far
// above the iterations' own floors (1e-12 in the crossbar engines, 1e-14 in
// the software one) but small enough that the centering work it
// re-introduces is a couple of iterations, not a cold start.
const warmFloor = 1e-6

// SeedWarmStart overwrites the start iterate (x, y, w, z) of an
// interior-point solve of p with a prior primal/dual point (x0, y0), the
// seeder of every engine that takes warm starts. x is x0 raised to
// warmFloor; y is y0, multiplied row by row by yScale when it is non-nil
// (a batch row-scales A, under which internal ŷᵢ = yᵢ·scaleᵢ). The slacks
// are then derived from p's own data at zero residual, w = b − A·x and
// z = Aᵀ·y − c, and z, the orthant rows of y and w are raised to warmFloor
// while their second-order-cone rows get the cone interior clamp.
//
// It reports whether it seeded. A nil x0 or y0 means no warm start, and a
// non-finite entry (a degraded previous solution) falls back to the cold
// start; both leave the iterate alone and return false. Dimensions that do
// not match p fail with ErrInvalid.
func (p *Problem) SeedWarmStart(x0, y0, yScale, x, y, w, z linalg.Vector) (bool, error) {
	if x0 == nil || y0 == nil {
		return false, nil
	}
	if len(x0) != len(x) || len(y0) != len(y) {
		return false, fmt.Errorf("%w: warm start dimensions %d vars / %d duals, problem has %d vars / %d constraints",
			ErrInvalid, len(x0), len(y0), len(x), len(y))
	}
	if !x0.AllFinite() || !y0.AllFinite() {
		return false, nil
	}
	copy(x, x0)
	cone.FloorOrthant(x, nil, warmFloor)
	for i, v := range y0 {
		if yScale != nil {
			v *= yScale[i]
		}
		y[i] = v
	}
	// The dimensions are checked above, so the Into errors cannot fire.
	_ = p.A.MatVecInto(w, x)
	for i := range w {
		w[i] = p.B[i] - w[i]
	}
	_ = p.A.MatVecTransposeInto(z, y)
	for i := range z {
		z[i] -= p.C[i]
	}
	cone.FloorOrthant(z, nil, warmFloor)
	blocks := p.SOCBlocks()
	cone.FloorOrthant(y, blocks, warmFloor)
	cone.FloorOrthant(w, blocks, warmFloor)
	cone.ClampInterior(y, blocks, warmFloor)
	cone.ClampInterior(w, blocks, warmFloor)
	return true, nil
}
