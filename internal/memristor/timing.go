package memristor

import "time"

// Timing collects the per-operation latency and energy constants of the
// memristor technology, in the spirit of the Yakopcic-model-based estimates
// the paper uses ([23]). The constants below are calibrated to the TiO₂
// multilevel-write device class; DESIGN.md documents the calibration.
type Timing struct {
	// WriteLatencyPerCell is the average time to program one crossbar cell
	// to a multilevel conductance target (several pulses plus verify).
	WriteLatencyPerCell time.Duration
	// WriteEnergyPerCell is the average energy for the same operation.
	WriteEnergyPerCell float64 // joules
	// AnalogSettleLatency is the time for a crossbar mat-vec or linear
	// solve to settle to steady state — the O(1) analog operation.
	AnalogSettleLatency time.Duration
	// AnalogOpEnergy is the energy of one analog crossbar operation
	// (driver + array + sense).
	AnalogOpEnergy float64 // joules
	// AmplifierLatency is the latency of one summing-amplifier vector
	// update (s ← s + θΔs, subtraction in Eq. 15a).
	AmplifierLatency time.Duration
	// AmplifierEnergyPerElement is the summing-amplifier energy per vector
	// element updated.
	AmplifierEnergyPerElement float64 // joules
	// StaticPowerWatts is the peripheral power draw (ADC banks, drivers,
	// CMOS controller) while a solve is in flight. The paper's no-variation
	// headline point (0.9 J over 78 ms at m = 1024) implies ≈11.5 W.
	StaticPowerWatts float64
	// DigitalMACLatency is the controller's time per fp64 multiply-add of
	// the digital residual (a sparse row walk, serial beside the array).
	DigitalMACLatency time.Duration
	// DigitalMACEnergy is the controller's energy per fp64 multiply-add,
	// operand fetch from a small cache included.
	DigitalMACEnergy float64 // joules
}

// DefaultTiming returns the calibrated constants used by the paper-scale
// estimates (see DESIGN.md "Calibrated device constants").
func DefaultTiming() Timing {
	return Timing{
		WriteLatencyPerCell:       235 * time.Nanosecond,
		WriteEnergyPerCell:        12e-9, // 12 nJ
		AnalogSettleLatency:       120 * time.Nanosecond,
		AnalogOpEnergy:            60e-9, // 60 nJ per op
		AmplifierLatency:          60 * time.Nanosecond,
		AmplifierEnergyPerElement: 0.8e-9,
		StaticPowerWatts:          11.5,
		// One fp64 MAC per ns is slower than one core of the paper's
		// i7-6700 baseline. 20 pJ follows Horowitz (ISSCC 2014, 45 nm):
		// 0.9 pJ add and 3.7 pJ multiply at fp32, about 4× that multiply at
		// fp64's 53-bit mantissa, plus 10 pJ for a 64-bit read from an 8 KB
		// cache (DESIGN.md D20).
		DigitalMACLatency: time.Nanosecond,
		DigitalMACEnergy:  20e-12,
	}
}
