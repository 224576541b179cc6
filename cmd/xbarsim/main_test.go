package main

import (
	"bytes"
	"strings"
	"testing"

	"github.com/memlp/memlp/internal/linalg"
)

func TestRunReportsErrorStats(t *testing.T) {
	var out, errBuf bytes.Buffer
	code := run([]string{"-size", "12", "-trials", "3", "-variation", "0.1"}, &out, &errBuf)
	if code != 0 {
		t.Fatalf("exit = %d, stderr = %s", code, errBuf.String())
	}
	s := out.String()
	if !strings.Contains(s, "mat-vec relative error") || !strings.Contains(s, "solve   relative error") {
		t.Errorf("missing stats:\n%s", s)
	}
	if !strings.Contains(s, "variation 10%") {
		t.Errorf("missing config echo:\n%s", s)
	}
}

func TestRunIdealIsAccurate(t *testing.T) {
	var out, errBuf bytes.Buffer
	code := run([]string{"-size", "10", "-trials", "2", "-iobits", "16", "-writebits", "16"}, &out, &errBuf)
	if code != 0 {
		t.Fatalf("exit = %d, stderr = %s", code, errBuf.String())
	}
}

func TestRunBadArgs(t *testing.T) {
	var out, errBuf bytes.Buffer
	if code := run([]string{"-size", "1"}, &out, &errBuf); code != 2 {
		t.Fatalf("size=1 exit = %d, want 2", code)
	}
	if code := run([]string{"-trials", "0"}, &out, &errBuf); code != 2 {
		t.Fatalf("trials=0 exit = %d, want 2", code)
	}
	if code := run([]string{"-iobits", "99"}, &out, &errBuf); code != 1 {
		t.Fatalf("iobits=99 exit = %d, want 1", code)
	}
	// Invalid device parameters fail the trials instead of silently
	// simulating an ideal array.
	for _, args := range [][]string{{"-variation", "NaN"}, {"-variation", "-0.5"}, {"-wire", "NaN"}, {"-wire", "+Inf"}} {
		if code := run(append([]string{"-size", "4", "-trials", "1"}, args...), &out, &errBuf); code != 1 {
			t.Errorf("%v exit = %d, want 1", args, code)
		}
	}
}

// TestRunParallelWidthIndependent pins the -parallel contract: per-trial
// seeding makes the reported statistics identical for every worker count.
func TestRunParallelWidthIndependent(t *testing.T) {
	outputs := make([]string, 0, 3)
	for _, par := range []string{"1", "3", "8"} {
		var out, errBuf bytes.Buffer
		code := run([]string{"-size", "10", "-trials", "6", "-variation", "0.1",
			"-faults", "0.02", "-seed", "5", "-parallel", par}, &out, &errBuf)
		if code != 0 {
			t.Fatalf("parallel=%s: exit = %d, stderr = %s", par, code, errBuf.String())
		}
		outputs = append(outputs, out.String())
	}
	for i, s := range outputs[1:] {
		if s != outputs[0] {
			t.Errorf("output differs between -parallel 1 and -parallel %d:\n%s\nvs\n%s",
				[]int{3, 8}[i], outputs[0], s)
		}
	}
}

func TestRunBadParallel(t *testing.T) {
	var out, errBuf bytes.Buffer
	if code := run([]string{"-parallel", "-2"}, &out, &errBuf); code != 2 {
		t.Fatalf("parallel=-2 exit = %d, want 2", code)
	}
}

func TestRelErr(t *testing.T) {
	got := linalg.VectorOf(1, 2, 3)
	want := linalg.VectorOf(1, 2, 4)
	if e := relErr(got, want); e != 1.0/5.0 {
		t.Errorf("relErr = %v, want 0.2", e)
	}
	if e := relErr(want, want); e != 0 {
		t.Errorf("identical relErr = %v, want 0", e)
	}
}
