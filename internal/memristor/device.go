// Package memristor holds the device technology behind a crossbar: the
// HP TiO₂-class conductance range (GMin, GMax), the deterministic stuck-at
// fault model, and the per-operation timing/energy constants used by the
// performance estimator.
//
// A memristor is a resistor whose resistance ("memristance") is set by the
// charge that has flowed through it, bounded between RON (fully doped) and
// ROFF (undoped). The crossbar maps matrix entries onto the conductance
// range [1/ROFF, 1/RON] those bounds give.
package memristor

// The conductance range of TiO₂-class devices consistent with the HP device
// literature ([3][13]): RON = 1 kΩ and ROFF = 10 MΩ, a 10⁴ on/off ratio.
// Both are typed, so each is one correctly rounded division, as 1/ROFF and
// 1/RON are at run time.
const (
	// GMin is the minimum programmable conductance 1/ROFF, in siemens.
	GMin float64 = 1 / 10_000_000.0
	// GMax is the maximum programmable conductance 1/RON, in siemens.
	GMax float64 = 1 / 1_000.0
)
