package memristor

import (
	"errors"
	"math"
	"testing"
)

func TestFaultModelValidate(t *testing.T) {
	bad := []FaultModel{
		{StuckOnDensity: -0.1},
		{StuckOnDensity: 1},
		{StuckOffDensity: -0.01},
		{StuckOffDensity: math.NaN()},
		{StuckOnDensity: 0.6, StuckOffDensity: 0.5},
		{WriteNoise: -0.2},
		{WriteNoise: 1},
		{DriftPerCycle: -0.1},
		{DriftPerCycle: 1.5},
	}
	for i, fm := range bad {
		if err := fm.Validate(); !errors.Is(err, ErrBadFaultModel) {
			t.Errorf("case %d (%+v): err = %v, want ErrBadFaultModel", i, fm, err)
		}
	}
	good := []FaultModel{
		{},
		{StuckOnDensity: 0.01, StuckOffDensity: 0.01, Seed: 3},
		{WriteNoise: 0.05, DriftPerCycle: 0.001},
	}
	for i, fm := range good {
		if err := fm.Validate(); err != nil {
			t.Errorf("case %d (%+v): unexpected error %v", i, fm, err)
		}
	}
}

// TestFaultAtDeterministic pins the stateless-placement contract: equal
// (Seed, i, j) always classifies equally, across calls and across values.
func TestFaultAtDeterministic(t *testing.T) {
	a := FaultModel{StuckOnDensity: 0.05, StuckOffDensity: 0.05, Seed: 42}
	b := FaultModel{StuckOnDensity: 0.05, StuckOffDensity: 0.05, Seed: 42}
	other := FaultModel{StuckOnDensity: 0.05, StuckOffDensity: 0.05, Seed: 43}
	diff := 0
	for i := 0; i < 50; i++ {
		for j := 0; j < 50; j++ {
			if a.FaultAt(i, j) != b.FaultAt(i, j) {
				t.Fatalf("placement not deterministic at (%d, %d)", i, j)
			}
			if a.FaultAt(i, j) != other.FaultAt(i, j) {
				diff++
			}
		}
	}
	if diff == 0 {
		t.Error("different seeds produced identical defect maps")
	}
}

// TestFaultDensityStatistics checks the realized defect fractions on a large
// region track the configured densities.
func TestFaultDensityStatistics(t *testing.T) {
	fm := FaultModel{StuckOnDensity: 0.03, StuckOffDensity: 0.07, Seed: 7}
	const dim = 300
	on, off := fm.CountFaults(dim, dim)
	cells := float64(dim * dim)
	if got := float64(on) / cells; math.Abs(got-0.03) > 0.005 {
		t.Errorf("stuck-on fraction %v, want ≈0.03", got)
	}
	if got := float64(off) / cells; math.Abs(got-0.07) > 0.005 {
		t.Errorf("stuck-off fraction %v, want ≈0.07", got)
	}

	// CountFaults must agree with per-cell classification.
	var on2, off2 int
	for i := 0; i < 20; i++ {
		for j := 0; j < 20; j++ {
			switch fm.FaultAt(i, j) {
			case FaultStuckOn:
				on2++
			case FaultStuckOff:
				off2++
			}
		}
	}
	cOn, cOff := fm.CountFaults(20, 20)
	if cOn != on2 || cOff != off2 {
		t.Errorf("CountFaults = (%d, %d), per-cell tally = (%d, %d)", cOn, cOff, on2, off2)
	}
}

func TestZeroDensityNeverFaults(t *testing.T) {
	fm := FaultModel{Seed: 9}
	for i := 0; i < 30; i++ {
		for j := 0; j < 30; j++ {
			if fm.FaultAt(i, j) != FaultNone {
				t.Fatalf("zero-density model reported a fault at (%d, %d)", i, j)
			}
		}
	}
}

func TestWriteFactor(t *testing.T) {
	if f := (FaultModel{Seed: 1}).WriteFactor(3, 4, 1); f != 1 {
		t.Errorf("zero-noise factor = %v, want exactly 1", f)
	}
	fm := FaultModel{WriteNoise: 0.1, Seed: 5}
	varies := false
	for n := 1; n <= 20; n++ {
		f := fm.WriteFactor(2, 3, n)
		if math.Abs(f-1) > 0.1 {
			t.Errorf("attempt %d: factor %v exceeds ±WriteNoise", n, f)
		}
		if f != fm.WriteFactor(2, 3, n) {
			t.Errorf("attempt %d: factor not deterministic", n)
		}
		if f != fm.WriteFactor(2, 3, n+1) {
			varies = true
		}
	}
	if !varies {
		t.Error("write factor constant across attempts — retries would never converge differently")
	}
}

func TestFaultKindString(t *testing.T) {
	cases := map[FaultKind]string{
		FaultNone:     "none",
		FaultStuckOff: "stuck-off",
		FaultStuckOn:  "stuck-on",
	}
	for k, want := range cases {
		if k.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(k), k.String(), want)
		}
	}
	if FaultKind(9).String() == "" {
		t.Error("unknown kind String empty")
	}
}
