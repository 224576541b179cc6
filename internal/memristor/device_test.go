package memristor

import (
	"errors"
	"testing"
)

func TestDefaultParamsValid(t *testing.T) {
	if err := DefaultParams().Validate(); err != nil {
		t.Errorf("DefaultParams invalid: %v", err)
	}
}

func TestValidateRejectsBadParams(t *testing.T) {
	base := DefaultParams()
	tests := []struct {
		name   string
		mutate func(*DeviceParams)
	}{
		{"zero RON", func(p *DeviceParams) { p.RON = 0 }},
		{"negative RON", func(p *DeviceParams) { p.RON = -1 }},
		{"ROFF below RON", func(p *DeviceParams) { p.ROFF = p.RON / 2 }},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			p := base
			tc.mutate(&p)
			if err := p.Validate(); !errors.Is(err, ErrInvalidParams) {
				t.Errorf("Validate = %v, want ErrInvalidParams", err)
			}
		})
	}
}

func TestGMinGMax(t *testing.T) {
	p := DefaultParams()
	if p.GMin() != 1/p.ROFF {
		t.Errorf("GMin = %v, want %v", p.GMin(), 1/p.ROFF)
	}
	if p.GMax() != 1/p.RON {
		t.Errorf("GMax = %v, want %v", p.GMax(), 1/p.RON)
	}
	if p.GMin() >= p.GMax() {
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
