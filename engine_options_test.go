package memlp

import (
	"context"
	"errors"
	"go/ast"
	"go/parser"
	"go/token"
	"io"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// engineNames lists every public engine in declaration order under its wire
// name (the String/ParseEngine vocabulary, carried by lpsolve, memlpd and
// the golden traces).
var engineNames = []string{
	"crossbar", "crossbar-large-scale", "pdip", "pdip-reduced", "simplex", "conic", "pdhg",
}

// optionCase is one public option with a valid argument and the engines
// that accept it.
type optionCase struct {
	name    string
	opt     Option
	accepts string // space-separated engine names
}

func publicOptionCases() []optionCase {
	const (
		hardware = "crossbar crossbar-large-scale conic pdhg"
		all      = "crossbar crossbar-large-scale pdip pdip-reduced simplex conic pdhg"
	)
	warm := &Solution{X: []float64{1, 1}, DualY: []float64{1, 1}}
	return []optionCase{
		{"WithVariation", WithVariation(0.05), hardware},
		{"WithCycleNoise", WithCycleNoise(0.5), hardware},
		{"WithSeed", WithSeed(3), hardware},
		{"WithIOBits", WithIOBits(8), hardware},
		{"WithWriteBits", WithWriteBits(8), hardware},
		{"WithDeltaWriteBits", WithDeltaWriteBits(0), hardware},
		{"WithGlobalIORange", WithGlobalIORange(), hardware},
		{"WithAlpha", WithAlpha(1.1), "crossbar crossbar-large-scale conic"},
		{"WithMaxIterations", WithMaxIterations(50), "crossbar crossbar-large-scale pdip pdip-reduced conic pdhg"},
		{"WithConstantStep", WithConstantStep(0.3), "crossbar-large-scale"},
		{"WithNoC", WithNoC("mesh", 16), hardware},
		{"WithWireResistance", WithWireResistance(1), hardware},
		{"WithLiteralFillers", WithLiteralFillers(), "crossbar-large-scale"},
		{"WithParallelism", WithParallelism(2), "crossbar"},
		{"WithTiles", WithTiles(2), "pdhg"},
		{"WithWarmStart", WithWarmStart(warm), "crossbar pdip pdip-reduced conic"},
		{"WithFaultModel", WithFaultModel(FaultModel{StuckOnDensity: 0.01}), hardware},
		{"WithWriteVerify", WithWriteVerify(3, 0.01), hardware},
		{"WithTrace", WithTrace(0), all},
		{"WithTraceJSONL", WithTraceJSONL(io.Discard), all},
	}
}

// TestEngineOptionMatrix pins the engine × option contract: for every engine
// and every public option (each with a valid argument), NewSolver either
// builds the handle or rejects the option with ErrIncompatibleOption and
// the exact error text below.
func TestEngineOptionMatrix(t *testing.T) {
	cases := publicOptionCases()
	for i, name := range engineNames {
		eng := Engine(i + 1)
		if eng.String() != name {
			t.Fatalf("Engine(%d).String() = %q, want %q", i+1, eng.String(), name)
		}
		for _, oc := range cases {
			_, err := NewSolver(eng, oc.opt)
			if strings.Contains(" "+oc.accepts+" ", " "+name+" ") {
				if err != nil {
					t.Errorf("%s on %s: %v, want accepted", oc.name, name, err)
				}
				continue
			}
			want := oc.name + " does not apply to engine " + name + ": lp: invalid problem: option incompatible with engine"
			if err == nil || err.Error() != want {
				t.Errorf("%s on %s: err = %v, want %q", oc.name, name, err, want)
			}
			if !errors.Is(err, ErrIncompatibleOption) || !errors.Is(err, ErrInvalid) {
				t.Errorf("%s on %s: %v does not match ErrIncompatibleOption and ErrInvalid", oc.name, name, err)
			}
		}
	}
	for _, bad := range []Engine{0, Engine(len(engineNames) + 1)} {
		_, err := NewSolver(bad)
		if !errors.Is(err, ErrUnknownEngine) {
			t.Errorf("NewSolver(%d): err = %v, want ErrUnknownEngine", int(bad), err)
		}
		if want := "Engine(" + strconv.Itoa(int(bad)) + ")"; bad.String() != want {
			t.Errorf("Engine(%d).String() = %q, want %q", int(bad), bad.String(), want)
		}
	}
}

// TestPublicOptionCount keeps the matrix above complete: every exported
// constructor returning an Option must have a row there, and the count is
// pinned at 20.
func TestPublicOptionCount(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	fset := token.NewFileSet()
	for _, path := range files {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Recv != nil || !fn.Name.IsExported() || fn.Type.Results == nil || len(fn.Type.Results.List) != 1 {
				continue
			}
			if id, ok := fn.Type.Results.List[0].Type.(*ast.Ident); ok && id.Name == "Option" {
				got = append(got, fn.Name.Name)
			}
		}
	}
	var want []string
	for _, oc := range publicOptionCases() {
		want = append(want, oc.name)
	}
	sort.Strings(got)
	sort.Strings(want)
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("public options = %v, want %v", got, want)
	}
	if len(got) != 20 {
		t.Errorf("%d public options, want 20", len(got))
	}
}

// TestEngineCapabilities pins what each engine supports beyond options —
// batching, warm starts, conic problems, and a hardware estimate — and that
// the Engine capability methods report the same.
func TestEngineCapabilities(t *testing.T) {
	ctx := context.Background()
	lpProb := tiny(t)
	socp := portfolioProblem(t)
	caps := map[string]struct{ batch, warm, conic, analog bool }{
		"crossbar":             {batch: true, warm: true, analog: true},
		"crossbar-large-scale": {analog: true},
		"pdip":                 {warm: true, conic: true},
		"pdip-reduced":         {warm: true, conic: true},
		"simplex":              {},
		"conic":                {warm: true, conic: true, analog: true},
		"pdhg":                 {analog: true},
	}
	for i, name := range engineNames {
		eng, want := Engine(i+1), caps[name]
		if eng.Analog() != want.analog || eng.SupportsBatch() != want.batch || eng.SupportsWarmStart() != want.warm {
			t.Errorf("%s: Analog/SupportsBatch/SupportsWarmStart = %v/%v/%v, want %v/%v/%v", name,
				eng.Analog(), eng.SupportsBatch(), eng.SupportsWarmStart(), want.analog, want.batch, want.warm)
		}
		s, err := NewSolver(eng)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		sol, err := s.Solve(ctx, lpProb)
		if err != nil {
			t.Fatalf("%s: solve: %v", name, err)
		}
		if got := sol.Hardware != nil; got != want.analog {
			t.Errorf("%s: hardware estimate present = %v, want %v", name, got, want.analog)
		}

		_, err = s.SolveBatch(ctx, []*Problem{lpProb})
		if want.batch && err != nil {
			t.Errorf("%s: SolveBatch: %v", name, err)
		}
		if wantErr := "lp: invalid problem: engine " + name + " does not support batching"; !want.batch && (err == nil || err.Error() != wantErr) {
			t.Errorf("%s: SolveBatch err = %v, want %q", name, err, wantErr)
		}

		err = s.SetWarmStart(nil)
		if want.warm && err != nil {
			t.Errorf("%s: SetWarmStart: %v", name, err)
		}
		if !want.warm && !errors.Is(err, ErrIncompatibleOption) {
			t.Errorf("%s: SetWarmStart err = %v, want ErrIncompatibleOption", name, err)
		}

		_, err = s.Solve(ctx, socp)
		if want.conic && err != nil {
			t.Errorf("%s: conic solve: %v", name, err)
		}
		if !want.conic && !errors.Is(err, ErrConicUnsupported) {
			t.Errorf("%s: conic solve err = %v, want ErrConicUnsupported", name, err)
		}
		if eng == EngineCrossbar && (err == nil || !strings.Contains(err.Error(), "(use the conic engine)")) {
			t.Errorf("crossbar: conic solve err = %v, want the conic-engine hint", err)
		}
	}
}
