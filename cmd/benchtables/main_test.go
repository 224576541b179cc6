package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestRunSingleTable(t *testing.T) {
	var out, errBuf bytes.Buffer
	code := run([]string{"-table", "fig5a", "-sizes", "6", "-vars", "0", "-trials", "1"}, &out, &errBuf)
	if code != 0 {
		t.Fatalf("exit = %d, stderr = %s", code, errBuf.String())
	}
	s := out.String()
	if !strings.Contains(s, "Fig. 5(a)") {
		t.Errorf("missing table title:\n%s", s)
	}
	if !strings.Contains(s, "mean rel err") {
		t.Errorf("missing header:\n%s", s)
	}
}

func TestRunMultipleTables(t *testing.T) {
	var out, errBuf bytes.Buffer
	code := run([]string{"-table", "iters,varcheck", "-sizes", "6", "-vars", "0,0.1", "-trials", "1"}, &out, &errBuf)
	if code != 0 {
		t.Fatalf("exit = %d, stderr = %s", code, errBuf.String())
	}
	s := out.String()
	if !strings.Contains(s, "Iteration counts") || !strings.Contains(s, "intrinsic sensitivity") {
		t.Errorf("missing tables:\n%s", s)
	}
}

func TestRunAblationTable(t *testing.T) {
	var out, errBuf bytes.Buffer
	code := run([]string{"-table", "ab4", "-trials", "1"}, &out, &errBuf)
	if code != 0 {
		t.Fatalf("exit = %d, stderr = %s", code, errBuf.String())
	}
	if !strings.Contains(out.String(), "uniform (paper)") {
		t.Errorf("missing ablation rows:\n%s", out.String())
	}
}

func TestRunBatchTable(t *testing.T) {
	var out, errBuf bytes.Buffer
	code := run([]string{"-table", "batch", "-sizes", "6", "-vars", "0.05", "-batch", "4", "-parallel", "2"}, &out, &errBuf)
	if code != 0 {
		t.Fatalf("exit = %d, stderr = %s", code, errBuf.String())
	}
	s := out.String()
	if !strings.Contains(s, "Batch throughput") {
		t.Errorf("missing table title:\n%s", s)
	}
	if !strings.Contains(s, "per solve") || !strings.Contains(s, "speedup") {
		t.Errorf("missing headers:\n%s", s)
	}
}

func TestRunBadBatchFlags(t *testing.T) {
	var out, errBuf bytes.Buffer
	if code := run([]string{"-parallel", "0"}, &out, &errBuf); code != 2 {
		t.Fatalf("-parallel 0 exit = %d, want 2", code)
	}
	if code := run([]string{"-batch", "0"}, &out, &errBuf); code != 2 {
		t.Fatalf("-batch 0 exit = %d, want 2", code)
	}
}

func TestPoolWidths(t *testing.T) {
	for _, tc := range []struct {
		max  int
		want []int
	}{{1, []int{1}}, {4, []int{1, 2, 4}}, {6, []int{1, 2, 4, 6}}} {
		got := poolWidths(tc.max)
		if len(got) != len(tc.want) {
			t.Fatalf("poolWidths(%d) = %v, want %v", tc.max, got, tc.want)
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Errorf("poolWidths(%d) = %v, want %v", tc.max, got, tc.want)
			}
		}
	}
}

func TestRunUnknownTable(t *testing.T) {
	var out, errBuf bytes.Buffer
	code := run([]string{"-table", "fig99"}, &out, &errBuf)
	if code != 1 {
		t.Fatalf("exit = %d, want 1", code)
	}
	if !strings.Contains(errBuf.String(), "unknown table") {
		t.Errorf("stderr = %s", errBuf.String())
	}
}

func TestRunBadFlags(t *testing.T) {
	var out, errBuf bytes.Buffer
	if code := run([]string{"-sizes", "x"}, &out, &errBuf); code != 2 {
		t.Fatalf("bad -sizes exit = %d, want 2", code)
	}
	if code := run([]string{"-vars", "y"}, &out, &errBuf); code != 2 {
		t.Fatalf("bad -vars exit = %d, want 2", code)
	}
}

func TestParseHelpers(t *testing.T) {
	ints, err := parseInts(" 4, 16 ,64")
	if err != nil || len(ints) != 3 || ints[2] != 64 {
		t.Errorf("parseInts = %v, %v", ints, err)
	}
	floats, err := parseFloats("0,0.05")
	if err != nil || len(floats) != 2 || floats[1] != 0.05 {
		t.Errorf("parseFloats = %v, %v", floats, err)
	}
	if out, err := parseInts(""); out != nil || err != nil {
		t.Errorf("empty parseInts = %v, %v", out, err)
	}
}
