package memlp

import (
	"bytes"
	"errors"
	"math"
	"strings"
	"testing"
)

func tiny(t *testing.T) *Problem {
	t.Helper()
	p, err := NewProblem("tiny",
		[]float64{3, 2},
		[][]float64{{1, 1}, {1, 3}},
		[]float64{4, 6})
	if err != nil {
		t.Fatalf("NewProblem: %v", err)
	}
	return p
}

func TestNewProblemValidation(t *testing.T) {
	if _, err := NewProblem("bad", []float64{1}, [][]float64{{1, 2}}, []float64{1}); !errors.Is(err, ErrInvalid) {
		t.Errorf("shape mismatch: %v, want ErrInvalid", err)
	}
	if _, err := NewProblem("ragged", []float64{1, 2}, [][]float64{{1, 2}, {3}}, []float64{1, 2}); !errors.Is(err, ErrInvalid) {
		t.Errorf("ragged: %v, want ErrInvalid", err)
	}
}

func TestProblemAccessors(t *testing.T) {
	p := tiny(t)
	if p.Name() != "tiny" || p.NumVariables() != 2 || p.NumConstraints() != 2 {
		t.Errorf("accessors wrong: %q %d %d", p.Name(), p.NumVariables(), p.NumConstraints())
	}
	obj, err := p.Objective([]float64{4, 0})
	if err != nil || obj != 12 {
		t.Errorf("Objective = %v, %v", obj, err)
	}
	ok, err := p.IsFeasible([]float64{4, 0}, 1e-9)
	if err != nil || !ok {
		t.Errorf("IsFeasible = %v, %v", ok, err)
	}
	d := p.Dual()
	if d.NumVariables() != 2 || d.NumConstraints() != 2 {
		t.Error("dual dims wrong")
	}
}

func TestTextRoundTrip(t *testing.T) {
	p := tiny(t)
	var buf bytes.Buffer
	if err := p.WriteText(&buf); err != nil {
		t.Fatalf("WriteText: %v", err)
	}
	q, err := ReadProblem(&buf)
	if err != nil {
		t.Fatalf("ReadProblem: %v", err)
	}
	if q.Name() != "tiny" || q.NumVariables() != 2 {
		t.Error("round trip corrupted problem")
	}
	if _, err := ReadProblem(strings.NewReader("garbage")); !errors.Is(err, ErrInvalid) {
		t.Errorf("garbage: %v", err)
	}
}

func TestGenerate(t *testing.T) {
	p, err := GenerateFeasible(12, 0, 1)
	if err != nil {
		t.Fatalf("GenerateFeasible: %v", err)
	}
	if p.NumConstraints() != 12 || p.NumVariables() != 4 {
		t.Errorf("dims = (%d, %d)", p.NumConstraints(), p.NumVariables())
	}
	q, err := GenerateInfeasible(9, 3, 2)
	if err != nil {
		t.Fatalf("GenerateInfeasible: %v", err)
	}
	if q.NumVariables() != 3 {
		t.Errorf("n = %d", q.NumVariables())
	}
	if _, err := GenerateFeasible(1, 0, 0); !errors.Is(err, ErrInvalid) {
		t.Errorf("m=1: %v", err)
	}
}

func TestAllEnginesAgreeOnTiny(t *testing.T) {
	p := tiny(t)
	for _, engine := range []Engine{EnginePDIP, EnginePDIPReduced, EngineSimplex, EngineCrossbar, EngineCrossbarLargeScale} {
		t.Run(engine.String(), func(t *testing.T) {
			sol, err := Solve(p, engine)
			if err != nil {
				t.Fatalf("Solve: %v", err)
			}
			if sol.Status != StatusOptimal {
				t.Fatalf("status = %v", sol.Status)
			}
			tol := 0.05
			if engine == EngineCrossbar || engine == EngineCrossbarLargeScale {
				tol = 0.4 // analog accuracy floor
			}
			if math.Abs(sol.Objective-12) > tol {
				t.Errorf("objective = %v, want 12", sol.Objective)
			}
			if sol.WallTime <= 0 {
				t.Error("wall time not measured")
			}
		})
	}
}

func TestCrossbarSolutionHasHardwareEstimate(t *testing.T) {
	p, err := GenerateFeasible(9, 0, 3)
	if err != nil {
		t.Fatalf("GenerateFeasible: %v", err)
	}
	sol, err := Solve(p, EngineCrossbar, WithVariation(0.05), WithSeed(7))
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if sol.Hardware == nil {
		t.Fatal("no hardware estimate")
	}
	if sol.Hardware.Latency <= 0 || sol.Hardware.EnergyJoules <= 0 {
		t.Errorf("estimate not populated: %+v", sol.Hardware)
	}
	if sol.Hardware.CellWrites == 0 || sol.Hardware.AnalogOps == 0 || sol.Hardware.DigitalMACs == 0 {
		t.Errorf("counters not populated: %+v", sol.Hardware)
	}
}

func TestSoftwareSolutionHasNoHardwareEstimate(t *testing.T) {
	sol, err := Solve(tiny(t), EnginePDIP)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if sol.Hardware != nil {
		t.Error("software solve reported a hardware estimate")
	}
}

func TestInfeasibleDetectedAcrossEngines(t *testing.T) {
	p, err := GenerateInfeasible(9, 0, 5)
	if err != nil {
		t.Fatalf("GenerateInfeasible: %v", err)
	}
	for _, engine := range []Engine{EnginePDIP, EngineSimplex} {
		sol, err := Solve(p, engine)
		if err != nil {
			t.Fatalf("%v: %v", engine, err)
		}
		if sol.Status != StatusInfeasible {
			t.Errorf("%v: status = %v, want infeasible", engine, sol.Status)
		}
	}
}

func TestSolveWithNoC(t *testing.T) {
	p, err := GenerateFeasible(9, 0, 2)
	if err != nil {
		t.Fatalf("GenerateFeasible: %v", err)
	}
	sol, err := Solve(p, EngineCrossbar, WithNoC("mesh", 16))
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if sol.Status != StatusOptimal {
		t.Fatalf("status = %v", sol.Status)
	}
	if math.IsNaN(sol.Objective) {
		t.Error("objective NaN")
	}
	if sol.Hardware == nil || sol.Hardware.Latency <= 0 {
		t.Error("NoC hardware estimate missing")
	}
}

func TestOptionValidation(t *testing.T) {
	p := tiny(t)
	bad := []Option{
		WithVariation(-0.1),
		WithVariation(1.0),
		WithCycleNoise(2),
		WithIOBits(0),
		WithWriteBits(99),
		WithAlpha(0.5),
		WithMaxIterations(0),
		WithConstantStep(1),
		WithNoC("ring", 16),
		WithNoC("mesh", 0),
	}
	for i, opt := range bad {
		if _, err := Solve(p, EnginePDIP, opt); !errors.Is(err, ErrInvalid) {
			t.Errorf("option %d: %v, want ErrInvalid", i, err)
		}
	}
}

func TestUnknownEngine(t *testing.T) {
	if _, err := Solve(tiny(t), Engine(42)); !errors.Is(err, ErrUnknownEngine) {
		t.Errorf("got %v, want ErrUnknownEngine", err)
	}
	if Engine(42).String() == "" {
		t.Error("unknown engine String empty")
	}
}

func TestNilProblem(t *testing.T) {
	if _, err := Solve(nil, EnginePDIP); !errors.Is(err, ErrInvalid) {
		t.Errorf("nil problem: %v", err)
	}
}

func TestEngineStrings(t *testing.T) {
	want := map[Engine]string{
		EngineCrossbar:           "crossbar",
		EngineCrossbarLargeScale: "crossbar-large-scale",
		EnginePDIP:               "pdip",
		EnginePDIPReduced:        "pdip-reduced",
		EngineSimplex:            "simplex",
	}
	for e, s := range want {
		if e.String() != s {
			t.Errorf("%d.String() = %q, want %q", int(e), e.String(), s)
		}
	}
}

func TestStatusStrings(t *testing.T) {
	if StatusOptimal.String() != "optimal" || StatusInfeasible.String() != "infeasible" {
		t.Error("status strings wrong")
	}
}

func TestReproducibleWithSeed(t *testing.T) {
	p, err := GenerateFeasible(9, 0, 11)
	if err != nil {
		t.Fatalf("GenerateFeasible: %v", err)
	}
	a, err := Solve(p, EngineCrossbar, WithVariation(0.1), WithSeed(5))
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	b, err := Solve(p, EngineCrossbar, WithVariation(0.1), WithSeed(5))
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if a.Objective != b.Objective {
		t.Errorf("same seed, different objectives: %v vs %v", a.Objective, b.Objective)
	}
}

func TestSolveBatchPublicAPI(t *testing.T) {
	a := [][]float64{{1, 1}, {1, 3}}
	c := []float64{3, 2}
	var problems []*Problem
	for i := 0; i < 3; i++ {
		p, err := NewProblem("b", c, a, []float64{4 + float64(i), 6})
		if err != nil {
			t.Fatalf("NewProblem: %v", err)
		}
		problems = append(problems, p)
	}
	sols, err := SolveBatch(problems, WithSeed(2))
	if err != nil {
		t.Fatalf("SolveBatch: %v", err)
	}
	if len(sols) != 3 {
		t.Fatalf("len = %d", len(sols))
	}
	for i, sol := range sols {
		if sol.Status != StatusOptimal {
			t.Errorf("instance %d: status %v", i, sol.Status)
		}
		want := 3 * (4 + float64(i)) // optimum at x = b1, y = 0
		if math.Abs(sol.Objective-want) > 0.5 {
			t.Errorf("instance %d: objective %v, want ≈%v", i, sol.Objective, want)
		}
		if sol.Hardware == nil || sol.Hardware.CellWrites == 0 {
			t.Errorf("instance %d: hardware counters missing", i)
		}
	}
	// Later instances must be cheaper than the first (no reprogramming).
	if sols[1].Hardware.CellWrites >= sols[0].Hardware.CellWrites {
		t.Errorf("no amortization: %d vs %d writes",
			sols[1].Hardware.CellWrites, sols[0].Hardware.CellWrites)
	}
	if _, err := SolveBatch(nil); !errors.Is(err, ErrInvalid) {
		t.Errorf("empty batch: %v", err)
	}
	if _, err := SolveBatch([]*Problem{nil}); !errors.Is(err, ErrInvalid) {
		t.Errorf("nil problem: %v", err)
	}
}
