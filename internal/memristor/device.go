// Package memristor holds the device technology behind a crossbar: the
// HP TiO₂-class resistance range (DeviceParams), the deterministic stuck-at
// fault model, and the per-operation timing/energy constants used by the
// performance estimator.
//
// A memristor is a resistor whose resistance ("memristance") is set by the
// charge that has flowed through it, bounded between RON (fully doped) and
// ROFF (undoped). The crossbar maps matrix entries onto the conductance
// range [1/ROFF, 1/RON] those bounds give.
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
}

// DefaultParams returns TiO₂-class device parameters consistent with the HP
// device literature ([3][13]).
func DefaultParams() DeviceParams {
	return DeviceParams{
		RON:  1_000,      // Ω
		ROFF: 10_000_000, // Ω (10⁴ on/off ratio, TiO₂ class)
	}
}

// Validate checks physical consistency of the parameters.
func (p DeviceParams) Validate() error {
	switch {
	case !(p.RON > 0):
		return fmt.Errorf("%w: RON = %v", ErrInvalidParams, p.RON)
	case !(p.ROFF > p.RON):
		return fmt.Errorf("%w: ROFF = %v must exceed RON = %v", ErrInvalidParams, p.ROFF, p.RON)
	}
	return nil
}

// GMin returns the minimum programmable conductance 1/ROFF.
func (p DeviceParams) GMin() float64 { return 1 / p.ROFF }

// GMax returns the maximum programmable conductance 1/RON.
func (p DeviceParams) GMax() float64 { return 1 / p.RON }
