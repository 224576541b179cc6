package cone

import (
	"math"
	"math/rand"
	"testing"
)

// randInterior draws a strictly interior cone vector with axis margin in
// [0.2, 1.2).
func randInterior(r *rand.Rand, d int) []float64 {
	s := make([]float64, d)
	for i := 1; i < d; i++ {
		s[i] = r.Float64()*4 - 2
	}
	s[0] = tailNorm(s) + 0.2 + r.Float64()
	return s
}

func approxEq(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*(1+math.Abs(a)+math.Abs(b))
}

func TestDetDistInterior(t *testing.T) {
	s := []float64{5, 3, 4} // det = 25 − 25 = 0, on the boundary
	if d := Det(s); math.Abs(d) > 1e-12 {
		t.Errorf("boundary det = %v, want 0", d)
	}
	if Dist(s) < 0 {
		t.Error("boundary point reported interior")
	}
	in := []float64{5.1, 3, 4}
	if Dist(in) >= 0 {
		t.Error("interior point not recognized")
	}
	out := []float64{4.9, 3, 4}
	if Dist(out) <= 0 {
		t.Error("exterior point has non-positive distance")
	}
}

// TestScalingIdentities verifies the defining NT relations on random interior
// pairs: vᵀJv = 1, λ = W·y = W⁻¹·w, P·w + Q·y = 2·λ∘λ (the identity that
// preserves the Eq. 15 crossbar mapping), and P⁻¹·(P·u) = u.
func TestScalingIdentities(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for _, d := range []int{2, 3, 5, 8} {
		sc := NewScaling(d)
		for trial := 0; trial < 50; trial++ {
			w := randInterior(r, d)
			y := randInterior(r, d)
			if !sc.Update(w, y) {
				t.Fatalf("d=%d trial %d: Update failed on interior pair", d, trial)
			}

			vjv := sc.v[0] * sc.v[0]
			for i := 1; i < d; i++ {
				vjv -= sc.v[i] * sc.v[i]
			}
			if !approxEq(vjv, 1, 1e-9) {
				t.Fatalf("d=%d: vᵀJv = %v, want 1", d, vjv)
			}

			// λ must equal W⁻¹·w as well as W·y (W·y is how Update builds it).
			winvW := make([]float64, d)
			if !sc.SolveP(winvW, mulMat(sc.P, w, d)) {
				t.Fatalf("d=%d: SolveP failed", d)
			}
			// P⁻¹(P·w) = w is the round-trip; W⁻¹·w = λ is checked via P·w = Arw(λ)·λ = λ∘λ.
			for i := 0; i < d; i++ {
				if !approxEq(winvW[i], w[i], 1e-8) {
					t.Fatalf("d=%d: P⁻¹P w mismatch at %d: %v vs %v", d, i, winvW[i], w[i])
				}
			}

			lsq := make([]float64, d)
			sc.LambdaSq(lsq)
			pw := mulMat(sc.P, w, d)
			qy := mulMat(sc.Q, y, d)
			for i := 0; i < d; i++ {
				if !approxEq(pw[i]+qy[i], 2*lsq[i], 1e-8) {
					t.Fatalf("d=%d: (P·w + Q·y)[%d] = %v, want 2λ∘λ = %v",
						d, i, pw[i]+qy[i], 2*lsq[i])
				}
				// P·w = Arw(λ)·W⁻¹·w = Arw(λ)·λ = λ∘λ, separately.
				if !approxEq(pw[i], lsq[i], 1e-8) {
					t.Fatalf("d=%d: (P·w)[%d] = %v, want (λ∘λ)[%d] = %v", d, i, pw[i], i, lsq[i])
				}
			}

			// Wsq agrees with P⁻¹·Q (the reduced-KKT block identity).
			u := randInterior(r, d)
			qu := mulMat(sc.Q, u, d)
			pinvqu := make([]float64, d)
			if !sc.SolveP(pinvqu, qu) {
				t.Fatalf("d=%d: SolveP failed on Q·u", d)
			}
			w2u := mulMat(sc.Wsq, u, d)
			for i := 0; i < d; i++ {
				if !approxEq(w2u[i], pinvqu[i], 1e-7) {
					t.Fatalf("d=%d: W²u[%d] = %v, want P⁻¹Qu = %v", d, i, w2u[i], pinvqu[i])
				}
			}
		}
	}
}

// TestScalingOrthantDegenerate pins the d→1 limit analytically for d = 2
// with zero tail components: the blocks must degenerate to the LP diagonals
// P = diag-like y, Q = diag-like w on the axis.
func TestScalingOrthantDegenerate(t *testing.T) {
	sc := NewScaling(2)
	w := []float64{3, 0}
	y := []float64{5, 0}
	if !sc.Update(w, y) {
		t.Fatal("Update failed")
	}
	// With zero tails the axis row behaves like the scalar case: P₀₀ = y₀,
	// Q₀₀ = w₀ and the complementarity product is λ₀² = w₀y₀.
	if !approxEq(sc.P[0], y[0], 1e-12) || !approxEq(sc.Q[0], w[0], 1e-12) {
		t.Errorf("axis blocks P₀₀ = %v, Q₀₀ = %v, want %v, %v", sc.P[0], sc.Q[0], y[0], w[0])
	}
	if !approxEq(sc.Lambda[0]*sc.Lambda[0], w[0]*y[0], 1e-12) {
		t.Errorf("λ₀² = %v, want w₀y₀ = %v", sc.Lambda[0]*sc.Lambda[0], w[0]*y[0])
	}
}

func TestScalingRejectsBoundary(t *testing.T) {
	sc := NewScaling(3)
	if sc.Update([]float64{5, 3, 4}, []float64{2, 0, 0}) {
		t.Error("Update accepted a boundary w")
	}
	if sc.Update([]float64{2, 0, 0}, []float64{1, 1, 0}) {
		t.Error("Update accepted a boundary y")
	}
}

func TestStepToBoundary(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for _, d := range []int{2, 3, 6} {
		for trial := 0; trial < 200; trial++ {
			s := randInterior(r, d)
			ds := make([]float64, d)
			for i := range ds {
				ds[i] = r.Float64()*4 - 2
			}
			tmax := StepToBoundary(s, ds)
			if math.IsInf(tmax, 1) {
				// Ray stays interior: spot-check far along it.
				far := make([]float64, d)
				for i := range far {
					far[i] = s[i] + 1e6*ds[i]
				}
				if Dist(far) > 1e-6*(1+tailNorm(far)) {
					t.Fatalf("d=%d: claimed no exit but point left the cone", d)
				}
				continue
			}
			if tmax <= 0 {
				t.Fatalf("d=%d: non-positive exit step %v from interior start", d, tmax)
			}
			at := make([]float64, d)
			for i := range at {
				at[i] = s[i] + tmax*ds[i]
			}
			if !approxEq(Det(at), 0, 1e-7) {
				t.Fatalf("d=%d: det at exit = %v, want ≈ 0", d, Det(at))
			}
			// Slightly before the exit the point must still be in the cone.
			for i := range at {
				at[i] = s[i] + 0.999*tmax*ds[i]
			}
			if Dist(at) > 1e-9*(1+tailNorm(at)) {
				t.Fatalf("d=%d: point just inside the exit step is outside the cone", d)
			}
		}
	}
}

func TestClampAndInit(t *testing.T) {
	blocks := []Block{{Start: 1, Dim: 3}}
	v := []float64{9, -1, 3, 4} // block (−1, 3, 4): far outside
	ClampInterior(v, blocks, 1e-12)
	if Dist(v[1:4]) >= 0 {
		t.Errorf("clamped block %v not interior", v[1:4])
	}
	if v[0] != 9 {
		t.Errorf("clamp touched a component outside the block: %v", v[0])
	}

	InitInterior(v, blocks)
	if v[1] != 1 || v[2] != 0 || v[3] != 0 {
		t.Errorf("InitInterior gave %v, want Jordan identity", v[1:4])
	}
}

func TestMaxStepRatio(t *testing.T) {
	blocks := []Block{{Start: 0, Dim: 2}}
	v := []float64{2, 0}
	dv := []float64{-1, 0} // exits the cone (axis hits 0, i.e. boundary) at t = 2
	ratio := MaxStepRatio(v, dv, blocks)
	if !approxEq(ratio, 0.5, 1e-12) {
		t.Errorf("MaxStepRatio = %v, want 0.5", ratio)
	}
	if r := MaxStepRatio(v, []float64{1, 0}, blocks); r != 0 {
		t.Errorf("receding direction gave ratio %v, want 0", r)
	}
}

// mulMat applies a row-major d×d matrix to u.
func mulMat(m, u []float64, d int) []float64 {
	out := make([]float64, d)
	for i := 0; i < d; i++ {
		var s float64
		for j := 0; j < d; j++ {
			s += m[i*d+j] * u[j]
		}
		out[i] = s
	}
	return out
}

// TestHotpathAllocations pins the //memlp:hotpath contract: the per-iteration
// scaling kernels must not allocate.
func TestHotpathAllocations(t *testing.T) {
	d := 6
	sc := NewScaling(d)
	r := rand.New(rand.NewSource(3))
	w := randInterior(r, d)
	y := randInterior(r, d)
	ds := make([]float64, d)
	for i := range ds {
		ds[i] = r.Float64() - 0.5
	}
	dst := make([]float64, d)
	blocks := []Block{{Start: 0, Dim: d}}

	cases := []struct {
		name string
		fn   func()
	}{
		{"Update", func() { sc.Update(w, y) }},
		{"LambdaSq", func() { sc.LambdaSq(dst) }},
		{"SolveP", func() { sc.SolveP(dst, w) }},
		{"StepToBoundary", func() { _ = StepToBoundary(w, ds) }},
		{"MaxStepRatio", func() { _ = MaxStepRatio(w, ds, blocks) }},
		{"ClampInterior", func() { ClampInterior(w, blocks, 1e-12) }},
	}
	for _, tc := range cases {
		if allocs := testing.AllocsPerRun(200, tc.fn); allocs != 0 {
			t.Errorf("%s allocates %v times per call, want 0", tc.name, allocs)
		}
	}
}
