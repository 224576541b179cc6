package lp

import (
	"errors"
	"math"
	"testing"

	"github.com/memlp/memlp/internal/linalg"
)

// TestSeedWarmStart pins the seeder both interior-point engines share: x is
// floored before w is derived from it, so the seeded point has zero primal
// residual on every row whose slack is above the floor; y is scaled row by
// row; and z and the slacks never fall below the floor.
func TestSeedWarmStart(t *testing.T) {
	p := tinyLP(t)
	x, y, w, z := linalg.Ones(2), linalg.Ones(2), linalg.Ones(2), linalg.Ones(2)
	// The optimum x = (4, 0), y = (3, 0), nudged off the orthant.
	seeded, err := p.SeedWarmStart(linalg.VectorOf(4, -0.5), linalg.VectorOf(3, 0), linalg.VectorOf(2, 1), x, y, w, z)
	if err != nil || !seeded {
		t.Fatalf("SeedWarmStart = %v, %v; want seeded", seeded, err)
	}
	if x[0] != 4 || x[1] != warmFloor {
		t.Errorf("x = %v, want (4, %g)", x, warmFloor)
	}
	if y[0] != 6 || y[1] != warmFloor {
		t.Errorf("y = %v, want (6, %g): scaled by yScale, then floored", y, warmFloor)
	}
	ax, err := p.A.MatVec(x)
	if err != nil {
		t.Fatal(err)
	}
	for i := range w {
		if w[i] < warmFloor {
			t.Errorf("w[%d] = %g below the floor", i, w[i])
		}
		if w[i] > warmFloor && math.Abs(ax[i]+w[i]-p.B[i]) > 1e-12 {
			t.Errorf("row %d: A·x + w = %g, want b = %g", i, ax[i]+w[i], p.B[i])
		}
	}
	for j, v := range z {
		if v < warmFloor {
			t.Errorf("z[%d] = %g below the floor", j, v)
		}
	}
}

// TestSeedWarmStartFallbacks: no warm point and a non-finite one leave the
// cold start in place; mismatched dimensions fail with ErrInvalid.
func TestSeedWarmStartFallbacks(t *testing.T) {
	p := tinyLP(t)
	for _, tc := range []struct {
		name   string
		x0, y0 linalg.Vector
	}{
		{"none", nil, nil},
		{"non-finite", linalg.VectorOf(1, math.NaN()), linalg.VectorOf(1, 1)},
	} {
		x, y, w, z := linalg.Ones(2), linalg.Ones(2), linalg.Ones(2), linalg.Ones(2)
		seeded, err := p.SeedWarmStart(tc.x0, tc.y0, nil, x, y, w, z)
		if err != nil || seeded {
			t.Errorf("%s: SeedWarmStart = %v, %v; want the cold start", tc.name, seeded, err)
		}
		for _, v := range [][]float64{x, y, w, z} {
			if v[0] != 1 || v[1] != 1 {
				t.Errorf("%s: the cold start was overwritten: %v", tc.name, v)
			}
		}
	}
	x, y, w, z := linalg.Ones(2), linalg.Ones(2), linalg.Ones(2), linalg.Ones(2)
	if _, err := p.SeedWarmStart(linalg.Ones(3), linalg.Ones(2), nil, x, y, w, z); !errors.Is(err, ErrInvalid) {
		t.Errorf("mismatched dimensions: %v, want ErrInvalid", err)
	}
}
