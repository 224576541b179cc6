package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/memlp/memlp"
)

const tinyProblem = `name tiny
maximize 3 2
subject 1 1 <= 4
subject 1 3 <= 6
`

func TestRunSolvesFromStdin(t *testing.T) {
	var out, errBuf bytes.Buffer
	code := run([]string{"-engine", "simplex"}, strings.NewReader(tinyProblem), &out, &errBuf)
	if code != 0 {
		t.Fatalf("exit = %d, stderr = %s", code, errBuf.String())
	}
	s := out.String()
	if !strings.Contains(s, "status:     optimal") {
		t.Errorf("missing status in output:\n%s", s)
	}
	if !strings.Contains(s, "objective:  12") {
		t.Errorf("missing objective in output:\n%s", s)
	}
}

func TestRunCrossbarEngineReportsHardware(t *testing.T) {
	var out, errBuf bytes.Buffer
	code := run([]string{"-engine", "crossbar", "-variation", "0.1", "-v"},
		strings.NewReader(tinyProblem), &out, &errBuf)
	if code != 0 {
		t.Fatalf("exit = %d, stderr = %s", code, errBuf.String())
	}
	if !strings.Contains(out.String(), "hardware:") {
		t.Errorf("missing hardware estimate:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "x:") {
		t.Errorf("missing -v solution vector:\n%s", out.String())
	}
}

// socpProblem is the circle fixture: max x₀+x₁ with ‖x‖ ≤ 3, optimum 3√2.
const socpProblem = `name circle
maximize 1 1
subject 1 1 <= 5
subject 0 0 <= 3
subject 1 0 <= 0
subject 0 1 <= 0
cone nonneg 1
cone soc 3
`

func TestRunConicEngine(t *testing.T) {
	var out, errBuf bytes.Buffer
	code := run([]string{"-engine", "conic", "-v"}, strings.NewReader(socpProblem), &out, &errBuf)
	if code != 0 {
		t.Fatalf("exit = %d, stderr = %s", code, errBuf.String())
	}
	s := out.String()
	if !strings.Contains(s, "status:     optimal") {
		t.Errorf("missing optimal status:\n%s", s)
	}
	// ~3√2 ≈ 4.243, within the analog accuracy floor.
	if !strings.Contains(s, "objective:  4.2") {
		t.Errorf("objective not ~3√2:\n%s", s)
	}
	if !strings.Contains(s, "cone inf:") {
		t.Errorf("missing cone infeasibility line:\n%s", s)
	}
	if !strings.Contains(s, "hardware:") {
		t.Errorf("conic engine should report hardware estimate:\n%s", s)
	}
}

func TestRunConicRejectedByCrossbar(t *testing.T) {
	var out, errBuf bytes.Buffer
	code := run([]string{"-engine", "crossbar"}, strings.NewReader(socpProblem), &out, &errBuf)
	if code != 1 {
		t.Fatalf("exit = %d, want 1", code)
	}
	if !strings.Contains(errBuf.String(), "conic") {
		t.Errorf("stderr should point at the conic engine: %s", errBuf.String())
	}
}

func TestRunUnknownEngine(t *testing.T) {
	var out, errBuf bytes.Buffer
	code := run([]string{"-engine", "quantum"}, strings.NewReader(tinyProblem), &out, &errBuf)
	if code != 2 {
		t.Fatalf("exit = %d, want 2", code)
	}
	if !strings.Contains(errBuf.String(), "unknown engine") {
		t.Errorf("stderr = %s", errBuf.String())
	}
}

// TestRunRejectsBadVariation: a -variation that is not a finite value in
// [0, 1) is a usage error on every engine, never silently ignored.
func TestRunRejectsBadVariation(t *testing.T) {
	for _, tc := range []struct{ engine, variation string }{
		{"crossbar", "NaN"},
		{"crossbar", "+Inf"},
		{"crossbar", "-0.1"},
		{"simplex", "NaN"},
	} {
		var out, errBuf bytes.Buffer
		code := run([]string{"-engine", tc.engine, "-variation", tc.variation},
			strings.NewReader(tinyProblem), &out, &errBuf)
		if code != 2 {
			t.Errorf("%s -variation %s: exit = %d, want 2; stdout:\n%s", tc.engine, tc.variation, code, out.String())
		}
	}
}

func TestRunBadProblem(t *testing.T) {
	var out, errBuf bytes.Buffer
	code := run(nil, strings.NewReader("nonsense"), &out, &errBuf)
	if code != 1 {
		t.Fatalf("exit = %d, want 1", code)
	}
}

func TestRunMissingFile(t *testing.T) {
	var out, errBuf bytes.Buffer
	code := run([]string{"/nonexistent/problem.lp"}, strings.NewReader(""), &out, &errBuf)
	if code != 1 {
		t.Fatalf("exit = %d, want 1", code)
	}
}

// TestParseEngineRoundTrip pins the -engine vocabulary: every engine's
// String parses back to it, and an unknown name is rejected.
func TestParseEngineRoundTrip(t *testing.T) {
	names := []string{"crossbar", "crossbar-large-scale", "pdip", "pdip-reduced", "simplex", "conic", "pdhg"}
	for i, name := range names {
		eng, err := memlp.ParseEngine(name)
		if err != nil {
			t.Errorf("ParseEngine(%q): %v", name, err)
			continue
		}
		if eng != memlp.Engine(i+1) || eng.String() != name {
			t.Errorf("ParseEngine(%q) = %d (%q), want %d", name, int(eng), eng, i+1)
		}
	}
	if _, err := memlp.ParseEngine("nope"); !errors.Is(err, memlp.ErrUnknownEngine) {
		t.Errorf("ParseEngine(\"nope\") err = %v, want ErrUnknownEngine", err)
	}
}

// writeTempProblem drops a problem file for the batch tests; the instances
// share tinyProblem's constraint matrix with per-file right-hand sides.
func writeTempProblem(t *testing.T, name string, rhs1, rhs2 float64) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name+".lp")
	content := fmt.Sprintf("name %s\nmaximize 3 2\nsubject 1 1 <= %g\nsubject 1 3 <= %g\n", name, rhs1, rhs2)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunBatchMultipleFiles(t *testing.T) {
	f1 := writeTempProblem(t, "first", 4, 6)
	f2 := writeTempProblem(t, "second", 5, 6)
	f3 := writeTempProblem(t, "third", 6, 6)
	var out, errBuf bytes.Buffer
	code := run([]string{"-engine", "crossbar", "-parallel", "2", f1, f2, f3},
		strings.NewReader(""), &out, &errBuf)
	if code != 0 {
		t.Fatalf("exit = %d, stderr = %s", code, errBuf.String())
	}
	s := out.String()
	if !strings.Contains(s, "batch:      3 problems") {
		t.Errorf("missing batch header:\n%s", s)
	}
	for _, name := range []string{"first", "second", "third"} {
		if !strings.Contains(s, name) {
			t.Errorf("missing result line for %q:\n%s", name, s)
		}
	}
	if !strings.Contains(s, "pool:       2 replicas") {
		t.Errorf("missing pool roll-up:\n%s", s)
	}
	if !strings.Contains(s, "hardware:") {
		t.Errorf("missing hardware line:\n%s", s)
	}
}

func TestRunBatchRequiresCrossbar(t *testing.T) {
	f1 := writeTempProblem(t, "a", 4, 6)
	f2 := writeTempProblem(t, "b", 5, 6)
	var out, errBuf bytes.Buffer
	if code := run([]string{"-engine", "simplex", f1, f2}, strings.NewReader(""), &out, &errBuf); code != 2 {
		t.Fatalf("batch on simplex: exit = %d, want 2", code)
	}
	if code := run([]string{"-engine", "simplex", "-parallel", "2", f1}, strings.NewReader(""), &out, &errBuf); code != 2 {
		t.Fatalf("-parallel on simplex: exit = %d, want 2", code)
	}
}

func TestRunMPSFormat(t *testing.T) {
	const mps = `NAME T
ROWS
 N COST
 L R1
 L R2
COLUMNS
 X COST -3 R1 1
 X R2 1
 Y COST -2 R1 1
 Y R2 3
RHS
 R R1 4 R2 6
ENDATA
`
	var out, errBuf bytes.Buffer
	code := run([]string{"-engine", "simplex", "-format", "mps"}, strings.NewReader(mps), &out, &errBuf)
	if code != 0 {
		t.Fatalf("exit = %d, stderr = %s", code, errBuf.String())
	}
	if !strings.Contains(out.String(), "objective:  12") {
		t.Errorf("objective missing:\n%s", out.String())
	}
}
