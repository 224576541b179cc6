package crossbar

import (
	"math"
	"math/rand"
	"testing"

	"github.com/memlp/memlp/internal/linalg"
	"github.com/memlp/memlp/internal/memristor"
	"github.com/memlp/memlp/internal/variation"
)

// TestFaultCensusMatchesModel checks the post-program census against the
// model's own tally over the mapped region.
func TestFaultCensusMatchesModel(t *testing.T) {
	fm := &memristor.FaultModel{StuckOnDensity: 0.04, StuckOffDensity: 0.04, Seed: 12}
	cfg := idealConfig(16)
	cfg.Faults = fm
	x := mustNew(t, cfg)

	if c := x.FaultCensus(); c != (FaultCensus{}) {
		t.Errorf("pre-program census = %+v, want zero", c)
	}
	a := randomNonNegMatrix(rand.New(rand.NewSource(1)), 16)
	if err := x.Program(a); err != nil {
		t.Fatalf("Program: %v", err)
	}
	on, off := fm.CountFaults(16, 16)
	if c := x.FaultCensus(); c.StuckOn != on || c.StuckOff != off {
		t.Errorf("census = %+v, want on=%d off=%d", c, on, off)
	}
}

// TestStuckCellsPerturbMatVec checks defects actually bite: a heavily
// stuck-off array must lose most of its mat-vec signal.
func TestStuckCellsPerturbMatVec(t *testing.T) {
	cfg := idealConfig(8)
	cfg.Faults = &memristor.FaultModel{StuckOffDensity: 0.9, Seed: 4}
	x := mustNew(t, cfg)
	a := randomNonNegMatrix(rand.New(rand.NewSource(2)), 8)
	if err := x.Program(a); err != nil {
		t.Fatalf("Program: %v", err)
	}
	v := linalg.NewVector(8)
	for i := range v {
		v[i] = 1
	}
	got, err := x.MatVec(v)
	if err != nil {
		t.Fatalf("MatVec: %v", err)
	}
	want, err := a.MatVec(v)
	if err != nil {
		t.Fatal(err)
	}
	if got.NormInf() > 0.5*want.NormInf() {
		t.Errorf("90%% stuck-off array kept %v of %v signal — faults not applied",
			got.NormInf(), want.NormInf())
	}
}

// TestWriteVerifyImprovesAccuracy pins the closed-loop programming model:
// with the same variation seed, verified writes land closer to target than
// open-loop writes, and the retry pulses are counted.
func TestWriteVerifyImprovesAccuracy(t *testing.T) {
	matVecErr := func(retries int) (float64, Counters) {
		vm, err := variation.NewPaperModel(0.20, 99)
		if err != nil {
			t.Fatal(err)
		}
		cfg := idealConfig(12)
		cfg.Variation = vm
		cfg.MaxWriteRetries = retries
		x := mustNew(t, cfg)
		a := randomNonNegMatrix(rand.New(rand.NewSource(3)), 12)
		if err := x.Program(a); err != nil {
			t.Fatalf("Program: %v", err)
		}
		v := linalg.NewVector(12)
		for i := range v {
			v[i] = 1
		}
		got, err := x.MatVec(v)
		if err != nil {
			t.Fatalf("MatVec: %v", err)
		}
		want, err := a.MatVec(v)
		if err != nil {
			t.Fatal(err)
		}
		var worst float64
		for i := range want {
			if d := math.Abs(got[i] - want[i]); d > worst {
				worst = d
			}
		}
		return worst / want.NormInf(), x.Counters()
	}

	openErr, openCnt := matVecErr(0)
	verErr, verCnt := matVecErr(4)
	if openCnt.WriteRetries != 0 {
		t.Errorf("open-loop counted %d retries", openCnt.WriteRetries)
	}
	if verCnt.WriteRetries == 0 {
		t.Error("write-verify at 20% variation consumed no retries")
	}
	if verCnt.CellWrites <= openCnt.CellWrites {
		t.Errorf("verified CellWrites %d not above open-loop %d", verCnt.CellWrites, openCnt.CellWrites)
	}
	if verErr >= openErr {
		t.Errorf("verify error %v not below open-loop %v", verErr, openErr)
	}
}

// TestStuckCellBurnsRetryBudget checks the honest energy accounting: the
// controller cannot know a device is dead, so write-verify spends its full
// budget on it.
func TestStuckCellBurnsRetryBudget(t *testing.T) {
	// All cells stuck off: every nonzero target burns 1 + MaxWriteRetries
	// pulses.
	cfg := idealConfig(4)
	cfg.Faults = &memristor.FaultModel{StuckOffDensity: 0.999, Seed: 1}
	cfg.MaxWriteRetries = 3
	x := mustNew(t, cfg)
	a := mustMatrix(t, [][]float64{
		{5, 1, 1, 1},
		{1, 5, 1, 1},
		{1, 1, 5, 1},
		{1, 1, 1, 5},
	})
	if err := x.Program(a); err != nil {
		t.Fatalf("Program: %v", err)
	}
	c := x.Counters()
	census := x.FaultCensus()
	if census.StuckOff == 0 {
		t.Fatal("expected stuck cells at density 0.999")
	}
	wantWrites := int64(census.StuckOff) * int64(1+cfg.MaxWriteRetries)
	if c.CellWrites < wantWrites {
		t.Errorf("CellWrites = %d, want ≥ %d (full budget burned per stuck cell)", c.CellWrites, wantWrites)
	}
	if c.WriteRetries < int64(census.StuckOff)*int64(cfg.MaxWriteRetries) {
		t.Errorf("WriteRetries = %d, want ≥ %d", c.WriteRetries, int64(census.StuckOff)*3)
	}
}

// TestDriftDecaysBetweenRefreshes checks retention drift: analog reads decay
// with solve-cycle age, and reprogramming restores them.
func TestDriftDecaysBetweenRefreshes(t *testing.T) {
	cfg := idealConfig(6)
	cfg.Faults = &memristor.FaultModel{DriftPerCycle: 0.05, Seed: 1}
	x := mustNew(t, cfg)
	a := randomNonNegMatrix(rand.New(rand.NewSource(7)), 6)
	if err := x.Program(a); err != nil {
		t.Fatalf("Program: %v", err)
	}
	v := linalg.NewVector(6)
	for i := range v {
		v[i] = 1
	}
	freshRead, err := x.MatVec(v)
	if err != nil {
		t.Fatalf("MatVec: %v", err)
	}
	// MatVec returns crossbar-owned scratch — snapshot before the next call.
	fresh := append(linalg.Vector(nil), freshRead...)
	// Age the array: each analog solve is one retention cycle.
	b := linalg.NewVector(6)
	for i := range b {
		b[i] = 1
	}
	for k := 0; k < 10; k++ {
		if _, err := x.Solve(b); err != nil {
			t.Fatalf("Solve %d: %v", k, err)
		}
	}
	agedRead, err := x.MatVec(v)
	if err != nil {
		t.Fatalf("aged MatVec: %v", err)
	}
	aged := append(linalg.Vector(nil), agedRead...)
	if aged.NormInf() >= fresh.NormInf()*0.99 {
		t.Errorf("10 cycles at 5%%/cycle drift left signal at %v of %v", aged.NormInf(), fresh.NormInf())
	}
	// A rewrite refreshes the cells.
	if err := x.Program(a); err != nil {
		t.Fatalf("refresh Program: %v", err)
	}
	refreshed, err := x.MatVec(v)
	if err != nil {
		t.Fatalf("refreshed MatVec: %v", err)
	}
	if math.Abs(refreshed.NormInf()-fresh.NormInf()) > 1e-6*fresh.NormInf() {
		t.Errorf("refresh did not restore signal: %v vs %v", refreshed.NormInf(), fresh.NormInf())
	}
}

// TestFaultConfigValidation covers the new Config fields.
func TestFaultConfigValidation(t *testing.T) {
	cfg := idealConfig(8)
	cfg.Faults = &memristor.FaultModel{StuckOnDensity: -1}
	if _, err := New(cfg); err == nil {
		t.Error("invalid fault model accepted")
	}
	cfg = idealConfig(8)
	cfg.MaxWriteRetries = -1
	if _, err := New(cfg); err == nil {
		t.Error("negative write retries accepted")
	}
	cfg = idealConfig(8)
	cfg.MaxWriteRetries = 2
	cfg.WriteVerifyTol = 1.5
	if _, err := New(cfg); err == nil {
		t.Error("out-of-range verify tolerance accepted")
	}
}
