package memristor

import (
	"errors"
	"fmt"
	"math"
	"testing"
)

// The Yakopcic model below is the device physics behind the paper's
// timing/energy estimates ([23]). The simulator never drives it: it is the
// reference that the calibrated DefaultTiming constants are checked against.

// YakopcicParams describes the generalized memristor model of Yakopcic et
// al. — the device model behind the paper's timing/energy estimates ([23]).
// Unlike a linear ion-drift device, its current is a sinh function of the
// voltage (electron tunnelling) and its state motion is exponential in the
// over-threshold voltage, which captures the strongly voltage-dependent
// write speed of real devices.
//
//	I(V)    = a1·x·sinh(b·V)          V ≥ 0
//	          a2·x·sinh(b·V)          V < 0
//	dx/dt   = η·g(V)·f(x)
//	g(V)    = Ap·(e^V − e^Vp)         V >  Vp
//	          −An·(e^−V − e^Vn)       V < −Vn
//	          0                       otherwise
//	f(x)    = e^(−αp·(x−xp))·w(x,xp)  for motion toward 1 above xp
//	          e^( αn·(x+xn−1))·w(1−x,xn) toward 0 below 1−xn
//	          1                       otherwise
//
// with the windowing w(x, p) = (p − x)/(1 − p) + 1 clipping motion near the
// state boundaries.
type YakopcicParams struct {
	A1, A2 float64 // current amplitudes (A)
	B      float64 // sinh steepness (1/V)
	Vp, Vn float64 // positive/negative switching thresholds (V)
	Ap, An float64 // state-motion amplitudes (1/s)
	Xp, Xn float64 // window onset points in (0, 1)
	AlphaP float64 // motion decay above Xp
	AlphaN float64 // motion decay below 1−Xn
	Eta    float64 // polarity (+1 or −1)
}

// DefaultYakopcicParams returns the parameter set Yakopcic et al. fit to the
// HP TiO₂ device family (rounded), which is what the paper's latency/energy
// estimation builds on.
func DefaultYakopcicParams() YakopcicParams {
	return YakopcicParams{
		A1: 0.17, A2: 0.17,
		B:  0.05,
		Vp: 0.16, Vn: 0.15,
		Ap: 4000, An: 4000,
		Xp: 0.3, Xn: 0.5,
		AlphaP: 1, AlphaN: 5,
		Eta: 1,
	}
}

// errInvalidParams is returned when Yakopcic parameters are not physical.
var errInvalidParams = errors.New("memristor: invalid device parameters")

// Validate rejects non-physical parameters.
func (p YakopcicParams) Validate() error {
	switch {
	case !(p.A1 > 0) || !(p.A2 > 0):
		return fmt.Errorf("%w: current amplitudes %v, %v", errInvalidParams, p.A1, p.A2)
	case !(p.B > 0):
		return fmt.Errorf("%w: b = %v", errInvalidParams, p.B)
	case !(p.Vp > 0) || !(p.Vn > 0):
		return fmt.Errorf("%w: thresholds %v, %v", errInvalidParams, p.Vp, p.Vn)
	case !(p.Ap > 0) || !(p.An > 0):
		return fmt.Errorf("%w: motion amplitudes %v, %v", errInvalidParams, p.Ap, p.An)
	case p.Xp <= 0 || p.Xp >= 1 || p.Xn <= 0 || p.Xn >= 1:
		return fmt.Errorf("%w: window points %v, %v", errInvalidParams, p.Xp, p.Xn)
	case p.Eta != 1 && p.Eta != -1:
		return fmt.Errorf("%w: eta = %v (must be ±1)", errInvalidParams, p.Eta)
	}
	return nil
}

// YakopcicDevice is one generalized memristor with state x ∈ [0, 1].
type YakopcicDevice struct {
	params YakopcicParams
	x      float64
}

// NewYakopcicDevice returns a device at the given initial state.
func NewYakopcicDevice(params YakopcicParams, x0 float64) (*YakopcicDevice, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	if x0 < 0 || x0 > 1 || math.IsNaN(x0) {
		return nil, fmt.Errorf("%w: x0 = %v", errInvalidParams, x0)
	}
	return &YakopcicDevice{params: params, x: x0}, nil
}

// State returns the internal state x ∈ [0, 1].
func (d *YakopcicDevice) State() float64 { return d.x }

// Current returns I(V) at the present state.
func (d *YakopcicDevice) Current(v float64) float64 {
	if v >= 0 {
		return d.params.A1 * d.x * math.Sinh(d.params.B*v)
	}
	return d.params.A2 * d.x * math.Sinh(d.params.B*v)
}

// Conductance returns the small-signal conductance dI/dV at V → 0:
// a·x·b (the sinh slope at the origin).
func (d *YakopcicDevice) Conductance() float64 {
	return d.params.A1 * d.x * d.params.B
}

// gOf returns the voltage-gated state-motion rate g(V).
func (p YakopcicParams) gOf(v float64) float64 {
	switch {
	case v > p.Vp:
		return p.Ap * (math.Exp(v) - math.Exp(p.Vp))
	case v < -p.Vn:
		return -p.An * (math.Exp(-v) - math.Exp(p.Vn))
	default:
		return 0
	}
}

// fOf returns the state-dependent motion window f(x) for the given motion
// direction (sign of dx).
func (p YakopcicParams) fOf(x float64, towardOne bool) float64 {
	if towardOne {
		if x < p.Xp {
			return 1
		}
		w := (p.Xp-x)/(1-p.Xp) + 1
		if w < 0 {
			w = 0
		}
		return math.Exp(-p.AlphaP*(x-p.Xp)) * w
	}
	if x > 1-p.Xn {
		return 1
	}
	w := x / (1 - p.Xn)
	if w < 0 {
		w = 0
	}
	return math.Exp(p.AlphaN*(x+p.Xn-1)) * w
}

// Step integrates the state under a constant applied voltage for dt seconds
// (forward Euler with internal sub-stepping for stability) and returns the
// new state. Sub-threshold voltages leave the state untouched.
func (d *YakopcicDevice) Step(v, dt float64) float64 {
	g := d.params.gOf(v)
	if g == 0 || dt <= 0 {
		return d.x
	}
	const subSteps = 64
	h := dt / subSteps
	for i := 0; i < subSteps; i++ {
		rate := d.params.Eta * g * d.params.fOf(d.x, d.params.Eta*g > 0)
		d.x += rate * h
		if d.x < 0 {
			d.x = 0
		}
		if d.x > 1 {
			d.x = 1
		}
	}
	return d.x
}

// WriteLatency estimates the pulse time needed to move the state from x0 to
// x1 under a constant write voltage v, by integrating the motion ODE.
// Returns +Inf if the voltage cannot produce the required motion direction.
func (p YakopcicParams) WriteLatency(x0, x1, v float64) float64 {
	g := p.gOf(v)
	if g == 0 {
		return math.Inf(1)
	}
	dir := p.Eta * g
	if (x1 > x0 && dir <= 0) || (x1 < x0 && dir >= 0) {
		return math.Inf(1)
	}
	d := &YakopcicDevice{params: p, x: x0}
	const h = 1e-7 // 100 ns resolution
	var t float64
	for i := 0; i < 10_000_000; i++ {
		if (x1 > x0 && d.x >= x1) || (x1 < x0 && d.x <= x1) {
			return t
		}
		d.Step(v, h)
		t += h
	}
	return math.Inf(1)
}

func newYak(t *testing.T, x0 float64) *YakopcicDevice {
	t.Helper()
	d, err := NewYakopcicDevice(DefaultYakopcicParams(), x0)
	if err != nil {
		t.Fatalf("NewYakopcicDevice: %v", err)
	}
	return d
}

func TestYakopcicDefaultsValid(t *testing.T) {
	if err := DefaultYakopcicParams().Validate(); err != nil {
		t.Errorf("defaults invalid: %v", err)
	}
}

func TestYakopcicValidation(t *testing.T) {
	base := DefaultYakopcicParams()
	tests := []struct {
		name   string
		mutate func(*YakopcicParams)
	}{
		{"zero a1", func(p *YakopcicParams) { p.A1 = 0 }},
		{"zero b", func(p *YakopcicParams) { p.B = 0 }},
		{"zero vp", func(p *YakopcicParams) { p.Vp = 0 }},
		{"zero ap", func(p *YakopcicParams) { p.Ap = 0 }},
		{"bad xp", func(p *YakopcicParams) { p.Xp = 1.5 }},
		{"bad eta", func(p *YakopcicParams) { p.Eta = 0.5 }},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			p := base
			tc.mutate(&p)
			if err := p.Validate(); !errors.Is(err, errInvalidParams) {
				t.Errorf("Validate = %v, want errInvalidParams", err)
			}
		})
	}
	if _, err := NewYakopcicDevice(base, 1.5); !errors.Is(err, errInvalidParams) {
		t.Errorf("bad x0: %v", err)
	}
}

func TestYakopcicCurrentNonlinear(t *testing.T) {
	d := newYak(t, 0.5)
	i1 := d.Current(0.5)
	i2 := d.Current(1.0)
	if i1 <= 0 || i2 <= 0 {
		t.Fatalf("positive voltages gave currents %v, %v", i1, i2)
	}
	// sinh superlinearity: doubling V more than doubles I.
	if i2 <= 2*i1 {
		t.Errorf("I(1.0)=%v not superlinear vs I(0.5)=%v", i2, i1)
	}
	// Odd symmetry with equal amplitudes.
	if math.Abs(d.Current(-0.5)+i1) > 1e-15 {
		t.Errorf("I(-0.5) = %v, want %v", d.Current(-0.5), -i1)
	}
}

func TestYakopcicCurrentScalesWithState(t *testing.T) {
	lo := newYak(t, 0.1)
	hi := newYak(t, 0.9)
	if hi.Current(0.3) <= lo.Current(0.3) {
		t.Error("higher state should conduct more")
	}
	if lo.Conductance() >= hi.Conductance() {
		t.Error("conductance should grow with state")
	}
}

func TestYakopcicSubThresholdNoMotion(t *testing.T) {
	p := DefaultYakopcicParams()
	d := newYak(t, 0.4)
	d.Step(p.Vp*0.9, 1e-3)
	d.Step(-p.Vn*0.9, 1e-3)
	if d.State() != 0.4 {
		t.Errorf("sub-threshold voltage moved state to %v", d.State())
	}
}

func TestYakopcicStateMotionDirections(t *testing.T) {
	d := newYak(t, 0.4)
	d.Step(0.5, 1e-4)
	if d.State() <= 0.4 {
		t.Errorf("positive over-threshold voltage did not raise state: %v", d.State())
	}
	up := d.State()
	d.Step(-0.5, 1e-4)
	if d.State() >= up {
		t.Errorf("negative over-threshold voltage did not lower state: %v", d.State())
	}
}

func TestYakopcicStateBounded(t *testing.T) {
	d := newYak(t, 0.5)
	d.Step(1.5, 1) // a huge pulse
	if d.State() < 0 || d.State() > 1 {
		t.Fatalf("state escaped [0,1]: %v", d.State())
	}
	d.Step(-1.5, 1)
	if d.State() < 0 || d.State() > 1 {
		t.Fatalf("state escaped [0,1]: %v", d.State())
	}
}

func TestYakopcicMotionFasterAtHigherVoltage(t *testing.T) {
	a := newYak(t, 0.1)
	b := newYak(t, 0.1)
	a.Step(0.3, 1e-4)
	b.Step(0.6, 1e-4)
	if b.State() <= a.State() {
		t.Errorf("higher voltage moved less: %v vs %v", b.State(), a.State())
	}
}

func TestYakopcicWriteLatency(t *testing.T) {
	p := DefaultYakopcicParams()
	lat := p.WriteLatency(0.1, 0.2, 1.0)
	if math.IsInf(lat, 0) || lat <= 0 {
		t.Fatalf("write latency = %v", lat)
	}
	// Larger state moves take longer.
	lat2 := p.WriteLatency(0.1, 0.25, 1.0)
	if lat2 <= lat {
		t.Errorf("larger move faster: %v vs %v", lat2, lat)
	}
	// Higher voltage is faster.
	lat3 := p.WriteLatency(0.1, 0.2, 1.5)
	if lat3 >= lat {
		t.Errorf("higher voltage slower: %v vs %v", lat3, lat)
	}
	// Wrong direction is impossible.
	if !math.IsInf(p.WriteLatency(0.2, 0.1, 1.0), 1) {
		t.Error("downward move under positive voltage should be impossible")
	}
	// Sub-threshold writes never finish.
	if !math.IsInf(p.WriteLatency(0.1, 0.2, 0.1), 1) {
		t.Error("sub-threshold write should be impossible")
	}
}

func TestYakopcicWriteLatencyConsistentWithTimingConstants(t *testing.T) {
	// The calibrated WriteLatencyPerCell (≈235 ns) should be within a
	// couple orders of magnitude of a representative Yakopcic write at
	// programming voltage — a coarse cross-check tying the cost model to
	// the device physics.
	p := DefaultYakopcicParams()
	lat := p.WriteLatency(0.3, 0.4, 1.8)
	if math.IsInf(lat, 0) {
		t.Fatal("representative write impossible")
	}
	ratio := lat / DefaultTiming().WriteLatencyPerCell.Seconds()
	if ratio < 1e-3 || ratio > 1e3 {
		t.Errorf("device write %.3g s vs calibrated %.3g s: ratio %g beyond sanity band",
			lat, DefaultTiming().WriteLatencyPerCell.Seconds(), ratio)
	}
}
