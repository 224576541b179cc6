package quant

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewValidation(t *testing.T) {
	tests := []struct {
		name     string
		bits     int
		min, max float64
		wantErr  error
	}{
		{"zero bits", 0, 0, 1, ErrInvalidBits},
		{"too many bits", 25, 0, 1, ErrInvalidBits},
		{"empty range", 8, 1, 1, ErrInvalidRange},
		{"inverted range", 8, 2, 1, ErrInvalidRange},
		{"nan min", 8, math.NaN(), 1, ErrInvalidRange},
		{"inf max", 8, 0, math.Inf(1), ErrInvalidRange},
		{"ok", 8, -1, 1, nil},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			_, err := New(tc.bits, tc.min, tc.max)
			if !errors.Is(err, tc.wantErr) {
				t.Errorf("New(%d, %v, %v) err = %v, want %v", tc.bits, tc.min, tc.max, err, tc.wantErr)
			}
		})
	}
}

func TestLevelsAndStep(t *testing.T) {
	q, err := New(8, 0, 255)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if q.Levels() != 256 {
		t.Errorf("Levels = %d, want 256", q.Levels())
	}
	if q.step != 1 {
		t.Errorf("step = %v, want 1", q.step)
	}
	if min, max := q.min, q.max; min != 0 || max != 255 {
		t.Errorf("Range = [%v, %v], want [0, 255]", min, max)
	}
}

func TestQuantizeSaturation(t *testing.T) {
	q, err := New(4, -1, 1)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if got := q.Quantize(5); got != 1 {
		t.Errorf("Quantize(5) = %v, want 1", got)
	}
	if got := q.Quantize(-5); got != -1 {
		t.Errorf("Quantize(-5) = %v, want -1", got)
	}
	if got := q.Quantize(math.NaN()); got != -1 {
		t.Errorf("Quantize(NaN) = %v, want -1", got)
	}
}

func TestQuantizeExactGridPoints(t *testing.T) {
	q, err := New(2, 0, 3) // levels at 0, 1, 2, 3
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	for k := 0; k < 4; k++ {
		x := float64(k)
		if got := q.Quantize(x); got != x {
			t.Errorf("Quantize(%v) = %v, want exact", x, got)
		}
		if got := q.Index(x); got != k {
			t.Errorf("Index(%v) = %d, want %d", x, got, k)
		}
	}
}

func TestIndexValueSaturate(t *testing.T) {
	q, err := New(2, 0, 3)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if q.Index(-10) != 0 || q.Index(10) != 3 {
		t.Error("Index does not saturate")
	}
}

func TestQuantizeVectorInPlace(t *testing.T) {
	q, err := New(1, 0, 1) // only levels 0 and 1
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	v := []float64{0.1, 0.9, 0.49, 0.51}
	got := q.QuantizeVector(v)
	want := []float64{0, 1, 0, 1}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("QuantizeVector[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	if &got[0] != &v[0] {
		t.Error("QuantizeVector did not operate in place")
	}
}

func TestSymmetricAroundZero(t *testing.T) {
	q, err := SymmetricAroundZero(8, 2)
	if err != nil {
		t.Fatalf("SymmetricAroundZero: %v", err)
	}
	if min, max := q.min, q.max; min != -2 || max != 2 {
		t.Errorf("Range = [%v, %v], want [-2, 2]", min, max)
	}
	if _, err := SymmetricAroundZero(8, 0); !errors.Is(err, ErrInvalidRange) {
		t.Errorf("zero amp: got %v, want ErrInvalidRange", err)
	}
	if _, err := SymmetricAroundZero(8, math.NaN()); !errors.Is(err, ErrInvalidRange) {
		t.Errorf("NaN amp: got %v, want ErrInvalidRange", err)
	}
}

func TestPropertyQuantizeErrorBounded(t *testing.T) {
	q, err := New(8, -1, 1)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		x := r.Float64()*2 - 1
		return math.Abs(q.Quantize(x)-x) <= q.step/2+1e-15
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropertyQuantizeIdempotent(t *testing.T) {
	q, err := New(6, -3, 7)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	f := func(x float64) bool {
		if math.IsNaN(x) {
			x = 0
		}
		once := q.Quantize(x)
		return q.Quantize(once) == once
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropertyQuantizeMonotone(t *testing.T) {
	q, err := New(5, 0, 10)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := r.Float64() * 12
		b := r.Float64() * 12
		if a > b {
			a, b = b, a
		}
		return q.Quantize(a) <= q.Quantize(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropertyIndexValueRoundTrip(t *testing.T) {
	q, err := New(8, -4, 4)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	f := func(k uint8) bool {
		return q.Index(q.min+float64(k)*q.step) == int(k)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
