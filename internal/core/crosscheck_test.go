package core

// Cross-checks between the crossbar reformulation and the software PDIP
// machinery: the extended non-negative system of Eq. 14a must produce the
// exact same Newton directions as the plain system of Eq. 12.

import (
	"math"
	"testing"

	"github.com/memlp/memlp/internal/linalg"
	"github.com/memlp/memlp/internal/lp"
)

// solveEq12 assembles and solves the plain (signed) Newton system of Eq. 12
// directly — the reference for the extended reformulation.
func solveEq12(t *testing.T, p *lp.Problem, x, y, w, z linalg.Vector, mu float64) (dx, dy, dw, dz linalg.Vector) {
	t.Helper()
	n, m := p.NumVariables(), p.NumConstraints()
	size := 2 * (n + m)
	big := linalg.NewMatrix(size, size)
	for i := 0; i < m; i++ {
		for j, v := range p.A.RawRow(i) {
			big.Set(i, j, v)
			big.Set(m+j, n+i, v)
		}
		big.Set(i, n+m+i, 1)
	}
	for i := 0; i < n; i++ {
		big.Set(m+i, n+2*m+i, -1)
	}
	for i := 0; i < n; i++ {
		big.Set(m+n+i, i, z[i])
		big.Set(m+n+i, n+2*m+i, x[i])
	}
	for i := 0; i < m; i++ {
		big.Set(m+2*n+i, n+i, w[i])
		big.Set(m+2*n+i, n+m+i, y[i])
	}

	rhs := linalg.NewVector(size)
	ax, err := p.A.MatVec(x)
	if err != nil {
		t.Fatal(err)
	}
	aty, err := p.A.MatVecTranspose(y)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < m; i++ {
		rhs[i] = p.B[i] - ax[i] - w[i]
	}
	for i := 0; i < n; i++ {
		rhs[m+i] = p.C[i] - aty[i] + z[i]
	}
	for i := 0; i < n; i++ {
		rhs[m+n+i] = mu - x[i]*z[i]
	}
	for i := 0; i < m; i++ {
		rhs[m+2*n+i] = mu - y[i]*w[i]
	}
	sol, err := linalg.SolveDense(big, rhs)
	if err != nil {
		t.Fatalf("Eq. 12 solve: %v", err)
	}
	return sol[0:n], sol[n : n+m], sol[n+m : n+2*m], sol[n+2*m:]
}

// TestExtendedSystemReproducesEq12Directions builds the extended system at a
// generic interior point, computes the residual and Newton step the way the
// solver does (with an ideal fabric), and compares (Δx, Δy, Δw, Δz) against
// the directly-solved Eq. 12 system.
func TestExtendedSystemReproducesEq12Directions(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		p, err := lp.GenerateFeasible(lp.GenConfig{Constraints: 10, Seed: seed})
		if err != nil {
			t.Fatalf("GenerateFeasible: %v", err)
		}
		n, m := p.NumVariables(), p.NumConstraints()

		// A generic strictly interior point.
		x := linalg.NewVector(n)
		z := linalg.NewVector(n)
		for i := range x {
			x[i] = 0.5 + float64(i%3)
			z[i] = 0.25 + float64(i%2)
		}
		y := linalg.NewVector(m)
		w := linalg.NewVector(m)
		for i := range y {
			y[i] = 0.75 + float64(i%4)/2
			w[i] = 1.25 + float64(i%3)/3
		}
		const mu = 0.05

		ext, err := newExtended(p, x, y, w, z)
		if err != nil {
			t.Fatalf("newExtended: %v", err)
		}
		fab, err := newIdealFabric(ext.size)
		if err != nil {
			t.Fatal(err)
		}
		if err := fab.Program(ext.matrix); err != nil {
			t.Fatal(err)
		}
		s := ext.stateVector(x, y, w, z)
		r, err := fab.MatVecResidual(ext.baseVector(p, mu), s, ext.factor)
		if err != nil {
			t.Fatal(err)
		}
		ds, err := fab.Solve(r)
		if err != nil {
			t.Fatalf("extended solve: %v", err)
		}
		gotDx, gotDy, gotDw, gotDz := ext.split(ds)

		wantDx, wantDy, wantDw, wantDz := solveEq12(t, p, x, y, w, z, mu)

		check := func(name string, got, want linalg.Vector) {
			t.Helper()
			for i := range want {
				if math.Abs(got[i]-want[i]) > 1e-8*(1+math.Abs(want[i])) {
					t.Errorf("seed %d: %s[%d] = %v, want %v", seed, name, i, got[i], want[i])
				}
			}
		}
		check("dx", gotDx, wantDx)
		check("dy", gotDy, wantDy)
		check("dw", gotDw, wantDw)
		check("dz", gotDz, wantDz)

		// The compensation directions must mirror their sources.
		for i := 0; i < m; i++ {
			if got := ds[ext.colU(i)]; math.Abs(got+gotDw[i]) > 1e-8*(1+math.Abs(gotDw[i])) {
				t.Errorf("seed %d: du[%d] = %v, want %v", seed, i, got, -gotDw[i])
			}
		}
		for i := 0; i < n; i++ {
			if got := ds[ext.colV(i)]; math.Abs(got+gotDz[i]) > 1e-8*(1+math.Abs(gotDz[i])) {
				t.Errorf("seed %d: dv[%d] = %v, want %v", seed, i, got, -gotDz[i])
			}
		}
		for j := 0; j < n; j++ {
			if k := ext.pOfX[j]; k >= 0 {
				if got := ds[ext.colP(k)]; math.Abs(got+gotDx[j]) > 1e-8*(1+math.Abs(gotDx[j])) {
					t.Errorf("seed %d: dp(x %d) = %v, want %v", seed, j, got, -gotDx[j])
				}
			}
		}
	}
}
