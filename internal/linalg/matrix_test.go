package linalg

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func mustMatrix(t *testing.T, rows [][]float64) *Matrix {
	t.Helper()
	m, err := MatrixFromRows(rows)
	if err != nil {
		t.Fatalf("MatrixFromRows: %v", err)
	}
	return m
}

func identity(n int) *Matrix {
	m := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}

func randomMatrix(r *rand.Rand, rows, cols int) *Matrix {
	m := NewMatrix(rows, cols)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			m.Set(i, j, r.NormFloat64()*5)
		}
	}
	return m
}

func TestMatrixFromRowsRagged(t *testing.T) {
	_, err := MatrixFromRows([][]float64{{1, 2}, {3}})
	if !errors.Is(err, ErrDimensionMismatch) {
		t.Errorf("ragged rows: got %v, want ErrDimensionMismatch", err)
	}
}

func TestMatrixAtSet(t *testing.T) {
	m := NewMatrix(2, 3)
	m.Set(1, 2, 7)
	if got := m.At(1, 2); got != 7 {
		t.Errorf("At(1,2) = %v, want 7", got)
	}
	if got := m.At(0, 0); got != 0 {
		t.Errorf("At(0,0) = %v, want 0", got)
	}
}

func TestIdentityMatVec(t *testing.T) {
	id := identity(4)
	v := VectorOf(1, 2, 3, 4)
	got, err := id.MatVec(v)
	if err != nil {
		t.Fatalf("MatVec: %v", err)
	}
	for i := range v {
		if got[i] != v[i] {
			t.Errorf("I·v[%d] = %v, want %v", i, got[i], v[i])
		}
	}
}

func TestMatVecKnown(t *testing.T) {
	m := mustMatrix(t, [][]float64{{1, 2}, {3, 4}, {5, 6}})
	got, err := m.MatVec(VectorOf(1, -1))
	if err != nil {
		t.Fatalf("MatVec: %v", err)
	}
	want := VectorOf(-1, -1, -1)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("MatVec[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestMatVecDimensionError(t *testing.T) {
	m := NewMatrix(2, 3)
	if _, err := m.MatVec(VectorOf(1, 2)); !errors.Is(err, ErrDimensionMismatch) {
		t.Errorf("got %v, want ErrDimensionMismatch", err)
	}
}

func TestMatVecTransposeMatchesExplicit(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	m := randomMatrix(r, 5, 3)
	v := randomVec(r, 5)
	got, err := m.MatVecTranspose(v)
	if err != nil {
		t.Fatalf("MatVecTranspose: %v", err)
	}
	want, err := m.Transpose().MatVec(v)
	if err != nil {
		t.Fatalf("explicit: %v", err)
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Errorf("[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestTransposeInvolution(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	m := randomMatrix(r, 4, 7)
	if !m.Transpose().Transpose().Equal(m, 0) {
		t.Error("(mᵀ)ᵀ != m")
	}
}

func TestAddSubScale(t *testing.T) {
	a := mustMatrix(t, [][]float64{{1, 2}, {3, 4}})
	if !a.Scale(2).Equal(mustMatrix(t, [][]float64{{2, 4}, {6, 8}}), 0) {
		t.Error("Scale wrong")
	}
}

func TestRowColCopies(t *testing.T) {
	m := mustMatrix(t, [][]float64{{1, 2}, {3, 4}})
	m.Clone().RawRow(0)[0] = 99
	if m.At(0, 0) != 1 {
		t.Error("Clone shares its rows with the source, want copies")
	}
	m.RawRow(1)[1] = 7
	if m.At(1, 1) != 7 {
		t.Error("RawRow returned a copy, want the live row")
	}
}

// TestMatrixReshape pins Reshape's contract: zeros of the new shape, on the
// matrix's own storage whenever it holds them, whatever shape came before.
func TestMatrixReshape(t *testing.T) {
	var m *Matrix
	m = m.Reshape(2, 3)
	if m.Rows() != 2 || m.Cols() != 3 {
		t.Fatalf("nil Reshape(2, 3) is %dx%d", m.Rows(), m.Cols())
	}
	m.Set(1, 2, 5)
	big := m.Reshape(4, 4)
	if big != m || big.Rows() != 4 || big.Cols() != 4 {
		t.Fatalf("Reshape(4, 4) is %dx%d, same matrix %v", big.Rows(), big.Cols(), big == m)
	}
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			big.Set(i, j, float64(i*4+j+1))
		}
	}
	if allocs := testing.AllocsPerRun(10, func() { m.Reshape(3, 5); m.Reshape(4, 4) }); allocs > 0 {
		t.Errorf("reshaping within capacity allocates %.0f times, want 0", allocs)
	}
	m.Set(2, 3, 7)
	m.Reshape(5, 3)
	for i := 0; i < 5; i++ {
		for j := 0; j < 3; j++ {
			if v := m.At(i, j); v != 0 {
				t.Fatalf("reshaped (%d,%d) = %v, want 0", i, j, v)
			}
		}
	}
}

func TestPredicatesAndNorms(t *testing.T) {
	m := mustMatrix(t, [][]float64{{1, -2}, {3, 4}})
	if m.AllNonNegative() {
		t.Error("AllNonNegative with -2 = true")
	}
	if !mustMatrix(t, [][]float64{{0, 1}}).AllNonNegative() {
		t.Error("AllNonNegative(0,1) = false")
	}
	if !m.AllFinite() {
		t.Error("AllFinite = false")
	}
	m.Set(0, 0, math.NaN())
	if m.AllFinite() {
		t.Error("AllFinite with NaN = true")
	}
}

func TestPropertyMulAssociativeWithVector(t *testing.T) {
	// (A·B)·v == A·(B·v)
	f := func(seed int64, s1, s2, s3 uint8) bool {
		r := rand.New(rand.NewSource(seed))
		p, q, n := int(s1%6)+1, int(s2%6)+1, int(s3%6)+1
		a := randomMatrix(r, p, q)
		b := randomMatrix(r, q, n)
		v := randomVec(r, n)
		left, err := mul(a, b).MatVec(v)
		if err != nil {
			return false
		}
		bv, err := b.MatVec(v)
		if err != nil {
			return false
		}
		right, err := a.MatVec(bv)
		if err != nil {
			return false
		}
		for i := range left {
			if math.Abs(left[i]-right[i]) > 1e-8*(1+math.Abs(left[i])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropertyTransposeDistributesOverMul(t *testing.T) {
	// (A·B)ᵀ == Bᵀ·Aᵀ
	f := func(seed int64, s1, s2, s3 uint8) bool {
		r := rand.New(rand.NewSource(seed))
		p, q, n := int(s1%5)+1, int(s2%5)+1, int(s3%5)+1
		a := randomMatrix(r, p, q)
		b := randomMatrix(r, q, n)
		return mul(a, b).Transpose().Equal(mul(b.Transpose(), a.Transpose()), 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// mul returns a·b, the reference product for the property tests.
func mul(a, b *Matrix) *Matrix {
	out := NewMatrix(a.Rows(), b.Cols())
	for i := 0; i < a.Rows(); i++ {
		for j := 0; j < b.Cols(); j++ {
			var s float64
			for k := 0; k < a.Cols(); k++ {
				s += a.At(i, k) * b.At(k, j)
			}
			out.Set(i, j, s)
		}
	}
	return out
}
