package memristor

import "testing"

// TestDefaultParamsValid checks the default device range is physical:
// RON = 1/GMax is positive and ROFF = 1/GMin exceeds it, i.e. 0 < GMin < GMax.
func TestDefaultParamsValid(t *testing.T) {
	if !(GMin > 0 && GMin < GMax) {
		t.Errorf("range [%v, %v] not physical", GMin, GMax)
	}
}

// TestGMinGMax pins the conductance range to 1/ROFF and 1/RON of the
// TiO₂-class device, RON = 1 kΩ and ROFF = 10 MΩ.
func TestGMinGMax(t *testing.T) {
	ron, roff := 1_000.0, 10_000_000.0
	if GMin != 1/roff {
		t.Errorf("GMin = %v, want %v", GMin, 1/roff)
	}
	if GMax != 1/ron {
		t.Errorf("GMax = %v, want %v", GMax, 1/ron)
	}
	if GMin >= GMax {
		t.Error("GMin ≥ GMax")
	}
}

func TestDefaultTimingPositive(t *testing.T) {
	tm := DefaultTiming()
	if tm.WriteLatencyPerCell <= 0 || tm.AnalogSettleLatency <= 0 || tm.AmplifierLatency <= 0 {
		t.Error("non-positive latency constant")
	}
	if tm.WriteEnergyPerCell <= 0 || tm.AnalogOpEnergy <= 0 || tm.AmplifierEnergyPerElement <= 0 {
		t.Error("non-positive energy constant")
	}
}
