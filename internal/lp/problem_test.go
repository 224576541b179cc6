package lp

import (
	"errors"
	"math"
	"testing"

	"github.com/memlp/memlp/internal/linalg"
)

func mustMatrix(t *testing.T, rows [][]float64) *linalg.Matrix {
	t.Helper()
	m, err := linalg.MatrixFromRows(rows)
	if err != nil {
		t.Fatalf("MatrixFromRows: %v", err)
	}
	return m
}

// tinyLP returns max 3x+2y s.t. x+y ≤ 4, x+3y ≤ 6, x,y ≥ 0.
// The optimum is x=4, y=0 with objective 12.
func tinyLP(t *testing.T) *Problem {
	t.Helper()
	p, err := New("tiny",
		linalg.VectorOf(3, 2),
		mustMatrix(t, [][]float64{{1, 1}, {1, 3}}),
		linalg.VectorOf(4, 6))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return p
}

func TestNewValidation(t *testing.T) {
	a := mustMatrix(t, [][]float64{{1, 1}})
	tests := []struct {
		name string
		c, b linalg.Vector
		a    *linalg.Matrix
	}{
		{"nil matrix", linalg.VectorOf(1), linalg.VectorOf(1), nil},
		{"c wrong len", linalg.VectorOf(1), linalg.VectorOf(1), a},
		{"b wrong len", linalg.VectorOf(1, 2), linalg.VectorOf(1, 2), a},
		{"nan in c", linalg.VectorOf(math.NaN(), 1), linalg.VectorOf(1), a},
		{"inf in b", linalg.VectorOf(1, 2), linalg.VectorOf(math.Inf(1)), a},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := New("x", tc.c, tc.a, tc.b); !errors.Is(err, ErrInvalid) {
				t.Errorf("New = %v, want ErrInvalid", err)
			}
		})
	}
}

func TestDimensions(t *testing.T) {
	p := tinyLP(t)
	if p.NumVariables() != 2 || p.NumConstraints() != 2 {
		t.Errorf("dims = (%d, %d), want (2, 2)", p.NumVariables(), p.NumConstraints())
	}
}

func TestObjective(t *testing.T) {
	p := tinyLP(t)
	got, err := p.Objective(linalg.VectorOf(4, 0))
	if err != nil {
		t.Fatalf("Objective: %v", err)
	}
	if got != 12 {
		t.Errorf("Objective = %v, want 12", got)
	}
}

func TestIsFeasible(t *testing.T) {
	p := tinyLP(t)
	tests := []struct {
		name string
		x    linalg.Vector
		tol  float64
		want bool
	}{
		{"origin", linalg.VectorOf(0, 0), 0, true},
		{"optimum", linalg.VectorOf(4, 0), 1e-9, true},
		{"interior", linalg.VectorOf(1, 1), 0, true},
		{"violates first", linalg.VectorOf(5, 0), 1e-9, false},
		{"negative", linalg.VectorOf(-1, 0), 1e-9, false},
		{"slightly over within tol", linalg.VectorOf(4.1, 0), 0.05, true},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			got, err := p.IsFeasible(tc.x, tc.tol)
			if err != nil {
				t.Fatalf("IsFeasible: %v", err)
			}
			if got != tc.want {
				t.Errorf("IsFeasible(%v, %v) = %v, want %v", tc.x, tc.tol, got, tc.want)
			}
		})
	}
	if _, err := p.IsFeasible(linalg.VectorOf(1), 0); !errors.Is(err, ErrInvalid) {
		t.Errorf("wrong size: %v, want ErrInvalid", err)
	}
}

// TestIsFeasibleNonFinite: a tolerance that is NaN, infinite or negative
// is an error, and a point with a non-finite entry is infeasible however
// loose the tolerance, on orthant and cone rows alike.
func TestIsFeasibleNonFinite(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	diet, soc := tinyLP(t), socpFixture(t)
	tests := []struct {
		name    string
		p       *Problem
		x       linalg.Vector
		tol     float64
		wantErr bool
	}{
		{"NaN tolerance", diet, linalg.VectorOf(100, 100), nan, true},
		{"+Inf tolerance", diet, linalg.VectorOf(100, 100), inf, true},
		{"-Inf tolerance", diet, linalg.VectorOf(0, 0), -inf, true},
		{"negative tolerance", diet, linalg.VectorOf(0, 0), -1, true},
		{"NaN point", diet, linalg.VectorOf(nan, nan), 0, false},
		{"NaN entry", diet, linalg.VectorOf(1, nan), 1e-9, false},
		{"+Inf entry", diet, linalg.VectorOf(inf, 0), math.MaxFloat64, false},
		{"-Inf entry", diet, linalg.VectorOf(0, -inf), math.MaxFloat64, false},
		{"NaN point on a cone", soc, linalg.VectorOf(nan, 1), 1e-9, false},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			ok, err := tc.p.IsFeasible(tc.x, tc.tol)
			if tc.wantErr {
				if !errors.Is(err, ErrInvalid) {
					t.Errorf("IsFeasible(%v, %v) = %v, %v; want ErrInvalid", tc.x, tc.tol, ok, err)
				}
				return
			}
			if err != nil || ok {
				t.Errorf("IsFeasible(%v, %v) = %v, %v; want infeasible", tc.x, tc.tol, ok, err)
			}
		})
	}
}

func TestDualShape(t *testing.T) {
	p := tinyLP(t)
	d := p.Dual()
	if d.NumVariables() != p.NumConstraints() || d.NumConstraints() != p.NumVariables() {
		t.Errorf("dual dims = (%d, %d), want transposed", d.NumVariables(), d.NumConstraints())
	}
	// Dual data: max (−b)ᵀy s.t. (−Aᵀ)y ≤ −c.
	if d.C[0] != -4 || d.C[1] != -6 {
		t.Errorf("dual c = %v, want [-4 -6]", d.C)
	}
	if d.A.At(0, 0) != -1 || d.A.At(0, 1) != -1 || d.A.At(1, 0) != -1 || d.A.At(1, 1) != -3 {
		t.Errorf("dual A wrong: %v", d.A)
	}
	if d.B[0] != -3 || d.B[1] != -2 {
		t.Errorf("dual b = %v, want [-3 -2]", d.B)
	}
}

func TestDualOfDualIsPrimal(t *testing.T) {
	p := tinyLP(t)
	dd := p.Dual().Dual()
	if !dd.A.Equal(p.A, 0) {
		t.Error("dual∘dual A != A")
	}
	for i := range p.C {
		if dd.C[i] != p.C[i] {
			t.Errorf("dual∘dual c[%d] = %v, want %v", i, dd.C[i], p.C[i])
		}
	}
	for i := range p.B {
		if dd.B[i] != p.B[i] {
			t.Errorf("dual∘dual b[%d] = %v, want %v", i, dd.B[i], p.B[i])
		}
	}
}
