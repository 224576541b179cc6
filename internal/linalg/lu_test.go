package linalg

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSolveDenseKnown(t *testing.T) {
	a := mustMatrix(t, [][]float64{
		{2, 1, -1},
		{-3, -1, 2},
		{-2, 1, 2},
	})
	b := VectorOf(8, -11, -3)
	x, err := SolveDense(a, b)
	if err != nil {
		t.Fatalf("SolveDense: %v", err)
	}
	want := VectorOf(2, 3, -1)
	for i := range want {
		if math.Abs(x[i]-want[i]) > 1e-10 {
			t.Errorf("x[%d] = %v, want %v", i, x[i], want[i])
		}
	}
}

func TestSolveSingular(t *testing.T) {
	a := mustMatrix(t, [][]float64{{1, 2}, {2, 4}})
	_, err := SolveDense(a, VectorOf(1, 2))
	if !errors.Is(err, ErrSingular) {
		t.Errorf("singular solve: got %v, want ErrSingular", err)
	}
}

func TestFactorizeNotSquare(t *testing.T) {
	_, err := Factorize(NewMatrix(2, 3))
	if !errors.Is(err, ErrNotSquare) {
		t.Errorf("got %v, want ErrNotSquare", err)
	}
}

func TestSolveWrongRHS(t *testing.T) {
	f, err := Factorize(identity(3))
	if err != nil {
		t.Fatalf("Factorize: %v", err)
	}
	if _, err := f.Solve(VectorOf(1, 2)); !errors.Is(err, ErrDimensionMismatch) {
		t.Errorf("got %v, want ErrDimensionMismatch", err)
	}
}

func TestDetKnown(t *testing.T) {
	tests := []struct {
		name string
		m    [][]float64
		want float64
	}{
		{"identity", [][]float64{{1, 0}, {0, 1}}, 1},
		{"2x2", [][]float64{{1, 2}, {3, 4}}, -2},
		{"3x3", [][]float64{{6, 1, 1}, {4, -2, 5}, {2, 8, 7}}, -306},
		{"singular", [][]float64{{1, 2}, {2, 4}}, 0},
		{"swap", [][]float64{{0, 1}, {1, 0}}, -1},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			got, err := det(mustMatrix(t, tc.m))
			if err != nil {
				t.Fatalf("det: %v", err)
			}
			if math.Abs(got-tc.want) > 1e-9 {
				t.Errorf("det = %v, want %v", got, tc.want)
			}
		})
	}
}

func TestLUPivotingHandlesZeroLeadingEntry(t *testing.T) {
	a := mustMatrix(t, [][]float64{
		{0, 1},
		{1, 0},
	})
	x, err := SolveDense(a, VectorOf(3, 5))
	if err != nil {
		t.Fatalf("SolveDense: %v", err)
	}
	if math.Abs(x[0]-5) > 1e-12 || math.Abs(x[1]-3) > 1e-12 {
		t.Errorf("x = %v, want [5 3]", x)
	}
}

func TestPropertySolveResidualSmall(t *testing.T) {
	f := func(seed int64, size uint8) bool {
		n := int(size%12) + 2
		r := rand.New(rand.NewSource(seed))
		a := randomMatrix(r, n, n)
		for i := 0; i < n; i++ {
			a.Set(i, i, a.At(i, i)+100) // keep well-conditioned
		}
		b := randomVec(r, n)
		x, err := SolveDense(a, b)
		if err != nil {
			return false
		}
		ax, err := a.MatVec(x)
		if err != nil {
			return false
		}
		res := b.Clone()
		if err := res.AxpyInPlace(-1, ax); err != nil {
			return false
		}
		return res.NormInf() <= 1e-7*(1+b.NormInf())
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropertyDetProductRule(t *testing.T) {
	// det(A·B) == det(A)·det(B)
	f := func(seed int64, size uint8) bool {
		n := int(size%6) + 1
		r := rand.New(rand.NewSource(seed))
		a := randomMatrix(r, n, n)
		b := randomMatrix(r, n, n)
		da, err1 := det(a)
		db, err2 := det(b)
		dab, err3 := det(mul(a, b))
		if err1 != nil || err2 != nil || err3 != nil {
			return false
		}
		return math.Abs(dab-da*db) <= 1e-6*(1+math.Abs(da*db))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropertyDetTransposeInvariant(t *testing.T) {
	f := func(seed int64, size uint8) bool {
		n := int(size%6) + 1
		r := rand.New(rand.NewSource(seed))
		a := randomMatrix(r, n, n)
		da, err1 := det(a)
		dat, err2 := det(a.Transpose())
		if err1 != nil || err2 != nil {
			return false
		}
		return math.Abs(da-dat) <= 1e-6*(1+math.Abs(da))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// det returns the determinant of a from its LU factors: the product of U's
// diagonal, negated once per row swap. A singular matrix yields 0. The
// determinant tests use it to check Factorize's elimination and pivoting.
func det(a *Matrix) (float64, error) {
	f, err := Factorize(a)
	if errors.Is(err, ErrSingular) {
		return 0, nil
	}
	if err != nil {
		return 0, err
	}
	d := 1.0
	for k, p := range f.pivot {
		d *= f.lu.At(k, k)
		if p != k {
			d = -d
		}
	}
	return d, nil
}
