package linalg

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestVectorDimensionMismatch(t *testing.T) {
	v := VectorOf(1, 2)
	w := VectorOf(1, 2, 3)
	if _, err := v.Dot(w); !errors.Is(err, ErrDimensionMismatch) {
		t.Errorf("Dot mismatch: got %v, want ErrDimensionMismatch", err)
	}
	if err := v.AxpyInPlace(1, w); !errors.Is(err, ErrDimensionMismatch) {
		t.Errorf("Axpy mismatch: got %v, want ErrDimensionMismatch", err)
	}
}

func TestVectorDot(t *testing.T) {
	v := VectorOf(1, 2, 3)
	w := VectorOf(4, -5, 6)
	got, err := v.Dot(w)
	if err != nil {
		t.Fatalf("Dot: %v", err)
	}
	if got != 12 {
		t.Errorf("Dot = %v, want 12", got)
	}
}

func TestVectorNorms(t *testing.T) {
	v := VectorOf(3, -4)
	if got := v.Norm2(); math.Abs(got-5) > 1e-12 {
		t.Errorf("Norm2 = %v, want 5", got)
	}
	if got := v.NormInf(); got != 4 {
		t.Errorf("NormInf = %v, want 4", got)
	}
}

func TestVectorNorm2OverflowSafe(t *testing.T) {
	big := math.MaxFloat64 / 2
	v := VectorOf(big, big)
	got := v.Norm2()
	if math.IsInf(got, 0) || math.IsNaN(got) {
		t.Errorf("Norm2 overflowed: %v", got)
	}
	want := big * math.Sqrt2
	if math.Abs(got-want)/want > 1e-12 {
		t.Errorf("Norm2 = %v, want %v", got, want)
	}
}

func TestVectorMinMax(t *testing.T) {
	v := VectorOf(2, -7, 5)
	if got := v.Max(); got != 5 {
		t.Errorf("Max = %v, want 5", got)
	}
	empty := Vector{}
	if got := empty.Max(); !math.IsInf(got, -1) {
		t.Errorf("empty Max = %v, want -Inf", got)
	}
}

func TestVectorPredicates(t *testing.T) {
	if !VectorOf(1, -2).AllFinite() {
		t.Error("AllFinite(1,-2) = false, want true")
	}
	if VectorOf(1, math.NaN()).AllFinite() {
		t.Error("AllFinite with NaN = true, want false")
	}
	if VectorOf(1, math.Inf(1)).AllFinite() {
		t.Error("AllFinite with Inf = true, want false")
	}
}

func TestVectorCloneIndependent(t *testing.T) {
	v := VectorOf(1, 2, 3)
	c := v.Clone()
	c[0] = 99
	if v[0] != 1 {
		t.Errorf("Clone aliases source: v[0] = %v", v[0])
	}
}

func TestVectorFill(t *testing.T) {
	v := NewVector(4)
	v.Fill(2.5)
	for i, x := range v {
		if x != 2.5 {
			t.Errorf("Fill[%d] = %v, want 2.5", i, x)
		}
	}
}

func TestVectorScale(t *testing.T) {
	v := VectorOf(1, -2, 3)
	got := v.Scale(-2)
	want := VectorOf(-2, 4, -6)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("Scale[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestVectorAxpy(t *testing.T) {
	v := VectorOf(1, 1, 1)
	if err := v.AxpyInPlace(2, VectorOf(1, 2, 3)); err != nil {
		t.Fatalf("Axpy: %v", err)
	}
	want := VectorOf(3, 5, 7)
	for i := range want {
		if v[i] != want[i] {
			t.Errorf("Axpy[%d] = %v, want %v", i, v[i], want[i])
		}
	}
}

// randomVec generates a bounded random vector for property tests.
func randomVec(r *rand.Rand, n int) Vector {
	v := NewVector(n)
	for i := range v {
		v[i] = r.NormFloat64() * 10
	}
	return v
}

func TestPropertyDotCommutative(t *testing.T) {
	f := func(seed int64, size uint8) bool {
		n := int(size%32) + 1
		r := rand.New(rand.NewSource(seed))
		v, w := randomVec(r, n), randomVec(r, n)
		a, err1 := v.Dot(w)
		b, err2 := w.Dot(v)
		return err1 == nil && err2 == nil && math.Abs(a-b) <= 1e-9*(1+math.Abs(a))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropertyTriangleInequality(t *testing.T) {
	f := func(seed int64, size uint8) bool {
		n := int(size%32) + 1
		r := rand.New(rand.NewSource(seed))
		v, w := randomVec(r, n), randomVec(r, n)
		sum := v.Clone()
		if err := sum.AxpyInPlace(1, w); err != nil {
			return false
		}
		return sum.Norm2() <= v.Norm2()+w.Norm2()+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropertyCauchySchwarz(t *testing.T) {
	f := func(seed int64, size uint8) bool {
		n := int(size%32) + 1
		r := rand.New(rand.NewSource(seed))
		v, w := randomVec(r, n), randomVec(r, n)
		d, err := v.Dot(w)
		if err != nil {
			return false
		}
		return math.Abs(d) <= v.Norm2()*w.Norm2()*(1+1e-12)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropertyNormOrdering(t *testing.T) {
	// ‖v‖∞ ≤ ‖v‖₂ ≤ ‖v‖₁ for any vector.
	f := func(seed int64, size uint8) bool {
		n := int(size%32) + 1
		r := rand.New(rand.NewSource(seed))
		v := randomVec(r, n)
		var one float64
		for _, x := range v {
			one += math.Abs(x)
		}
		inf, two := v.NormInf(), v.Norm2()
		return inf <= two*(1+1e-12) && two <= one*(1+1e-12)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
