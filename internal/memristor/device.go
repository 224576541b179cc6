// Package memristor holds the device technology behind a crossbar: the
// HP TiO₂-class resistance range and switching voltages (DeviceParams), the
// deterministic stuck-at fault model, and the per-operation timing/energy
// constants used by the performance estimator.
//
// A memristor is a resistor whose resistance ("memristance") is set by the
// charge that has flowed through it, bounded between RON (fully doped) and
// ROFF (undoped). Voltages below the switching threshold Vth read the device
// without disturbing its state; programming pulses above Vth move it.
package memristor

import (
	"errors"
	"fmt"
)

// ErrInvalidParams is returned when device parameters are not physical.
var ErrInvalidParams = errors.New("memristor: invalid device parameters")

// DeviceParams describes one memristor device technology.
type DeviceParams struct {
	// RON is the low-resistance (fully doped) state, in ohms.
	RON float64
	// ROFF is the high-resistance (undoped) state, in ohms.
	ROFF float64
	// Vth is the switching threshold voltage, in volts: |V| ≤ Vth never
	// changes the state.
	Vth float64
	// Vdd is the programming voltage, in volts; must satisfy Vdd > Vth so a
	// full-selected cell switches while half-selected cells (Vdd/2) do not.
	Vdd float64
	// MobilityD2 is µv·RON/D², the state-motion coefficient of the linear
	// drift model, in 1/(A·s) (per coulomb).
	MobilityD2 float64
	// WritePulseWidth is the duration of one programming pulse, in seconds.
	WritePulseWidth float64
}

// DefaultParams returns TiO₂-class device parameters consistent with the HP
// device literature ([3][13]) and the Yakopcic-model timing used by the
// paper's estimates [23].
func DefaultParams() DeviceParams {
	return DeviceParams{
		RON:             1_000,      // Ω
		ROFF:            10_000_000, // Ω (10⁴ on/off ratio, TiO₂ class)
		Vth:             1.0,        // V
		Vdd:             1.8,        // V (≤ 2·Vth so half-selected cells never disturb)
		MobilityD2:      5e10,       // (µv·RON/D²) per coulomb — 10nm film class
		WritePulseWidth: 10e-9,      // 10 ns pulses
	}
}

// Validate checks physical consistency of the parameters.
func (p DeviceParams) Validate() error {
	switch {
	case !(p.RON > 0):
		return fmt.Errorf("%w: RON = %v", ErrInvalidParams, p.RON)
	case !(p.ROFF > p.RON):
		return fmt.Errorf("%w: ROFF = %v must exceed RON = %v", ErrInvalidParams, p.ROFF, p.RON)
	case !(p.Vth > 0):
		return fmt.Errorf("%w: Vth = %v", ErrInvalidParams, p.Vth)
	case !(p.Vdd > p.Vth):
		return fmt.Errorf("%w: Vdd = %v must exceed Vth = %v", ErrInvalidParams, p.Vdd, p.Vth)
	case p.Vdd/2 > p.Vth:
		return fmt.Errorf("%w: half-select voltage %v exceeds Vth %v (write disturb)", ErrInvalidParams, p.Vdd/2, p.Vth)
	case !(p.MobilityD2 > 0):
		return fmt.Errorf("%w: MobilityD2 = %v", ErrInvalidParams, p.MobilityD2)
	case !(p.WritePulseWidth > 0):
		return fmt.Errorf("%w: WritePulseWidth = %v", ErrInvalidParams, p.WritePulseWidth)
	}
	return nil
}

// GMin returns the minimum programmable conductance 1/ROFF.
func (p DeviceParams) GMin() float64 { return 1 / p.ROFF }

// GMax returns the maximum programmable conductance 1/RON.
func (p DeviceParams) GMax() float64 { return 1 / p.RON }
