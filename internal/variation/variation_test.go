package variation

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func TestNewModelValidation(t *testing.T) {
	tests := []struct {
		name      string
		dist      Distribution
		magnitude float64
		wantErr   bool
	}{
		{"negative", Uniform, -0.1, true},
		{"one", Uniform, 1.0, true},
		{"nan", Uniform, math.NaN(), true},
		{"unknown dist", Distribution(99), 0.1, true},
		{"zero magnitude ok", Uniform, 0, false},
		{"uniform ok", Uniform, 0.2, false},
		{"gaussian ok", Gaussian, 0.2, false},
		{"lognormal ok", Lognormal, 0.2, false},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			_, err := NewModel(tc.dist, tc.magnitude, 1)
			if (err != nil) != tc.wantErr {
				t.Errorf("NewModel err = %v, wantErr = %v", err, tc.wantErr)
			}
		})
	}
	if _, err := NewModel(Uniform, -1, 0); !errors.Is(err, ErrInvalidMagnitude) {
		t.Errorf("want ErrInvalidMagnitude, got %v", err)
	}
}

func TestZeroMagnitudeIsIdentity(t *testing.T) {
	m, err := NewPaperModel(0, 42)
	if err != nil {
		t.Fatalf("NewPaperModel: %v", err)
	}
	for i := 0; i < 100; i++ {
		if f := m.Factor(); f != 1 {
			t.Fatalf("Factor with zero magnitude = %v, want 1", f)
		}
	}
	if got := m.Apply(3.5); got != 3.5 {
		t.Errorf("Apply(3.5) = %v, want 3.5", got)
	}
}

func TestFactorBounds(t *testing.T) {
	for _, dist := range []Distribution{Uniform, Gaussian, Lognormal} {
		t.Run(dist.String(), func(t *testing.T) {
			const mag = 0.2
			m, err := NewModel(dist, mag, 7)
			if err != nil {
				t.Fatalf("NewModel: %v", err)
			}
			for i := 0; i < 10_000; i++ {
				f := m.Factor()
				if f < 1-mag-1e-12 || f > 1+mag+1e-12 {
					t.Fatalf("Factor = %v outside [%v, %v]", f, 1-mag, 1+mag)
				}
			}
		})
	}
}

func TestUniformFactorCoversRange(t *testing.T) {
	// With enough draws the uniform model should produce factors in both
	// the lower and upper halves of its range.
	const mag = 0.1
	m, err := NewPaperModel(mag, 3)
	if err != nil {
		t.Fatalf("NewPaperModel: %v", err)
	}
	var below, above int
	for i := 0; i < 10_000; i++ {
		if f := m.Factor(); f < 1-mag/2 {
			below++
		} else if f > 1+mag/2 {
			above++
		}
	}
	if below < 1000 || above < 1000 {
		t.Errorf("uniform draws poorly spread: below=%d above=%d of 10000", below, above)
	}
}

func TestUniformMeanNearOne(t *testing.T) {
	m, err := NewPaperModel(0.2, 11)
	if err != nil {
		t.Fatalf("NewPaperModel: %v", err)
	}
	var sum float64
	const n = 50_000
	for i := 0; i < n; i++ {
		sum += m.Factor()
	}
	mean := sum / n
	if math.Abs(mean-1) > 0.005 {
		t.Errorf("uniform mean = %v, want ≈1", mean)
	}
}

func TestReproducibleWithSameSeed(t *testing.T) {
	a, err := NewPaperModel(0.15, 99)
	if err != nil {
		t.Fatalf("NewPaperModel: %v", err)
	}
	b, err := NewPaperModel(0.15, 99)
	if err != nil {
		t.Fatalf("NewPaperModel: %v", err)
	}
	for i := 0; i < 100; i++ {
		if fa, fb := a.Factor(), b.Factor(); fa != fb {
			t.Fatalf("draw %d differs: %v vs %v", i, fa, fb)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a, err := NewPaperModel(0.15, 1)
	if err != nil {
		t.Fatalf("NewPaperModel: %v", err)
	}
	b, err := NewPaperModel(0.15, 2)
	if err != nil {
		t.Fatalf("NewPaperModel: %v", err)
	}
	same := true
	for i := 0; i < 20; i++ {
		if a.Factor() != b.Factor() {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical sequences")
	}
}

func TestDistributionString(t *testing.T) {
	if Uniform.String() != "uniform" || Gaussian.String() != "gaussian" || Lognormal.String() != "lognormal" {
		t.Error("Distribution.String wrong for known values")
	}
	if Distribution(42).String() != "Distribution(42)" {
		t.Errorf("unknown distribution String = %q", Distribution(42).String())
	}
}

func TestPropertyApplyPreservesSign(t *testing.T) {
	m, err := NewPaperModel(0.2, 13)
	if err != nil {
		t.Fatalf("NewPaperModel: %v", err)
	}
	f := func(x float64) bool {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return true
		}
		y := m.Apply(x)
		switch {
		case x > 0:
			return y > 0
		case x < 0:
			return y < 0
		default:
			return y == 0
		}
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestFillMatchesFactor pins that Fill makes exactly Factor's draws: the
// same values in order, and the same stream position afterwards, for every
// distribution and for a zero magnitude, which draws nothing.
func TestFillMatchesFactor(t *testing.T) {
	for _, dist := range []Distribution{Uniform, Gaussian, Lognormal} {
		for _, mag := range []float64{0, 0.1} {
			got, err := NewModel(dist, mag, 42)
			if err != nil {
				t.Fatalf("NewModel: %v", err)
			}
			want, _ := NewModel(dist, mag, 42)
			dst := make([]float64, 37)
			got.Fill(dst)
			for k, v := range dst {
				if w := want.Factor(); math.Float64bits(v) != math.Float64bits(w) {
					t.Fatalf("%v %v: Fill[%d] = %v, Factor %v", dist, mag, k, v, w)
				}
			}
			if g, w := got.Factor(), want.Factor(); math.Float64bits(g) != math.Float64bits(w) {
				t.Errorf("%v %v: next draw after Fill %v, after Factor %v", dist, mag, g, w)
			}
		}
	}
}
