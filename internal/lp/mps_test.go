package lp

import (
	"bytes"
	"errors"
	"math"
	"strings"
	"testing"

	"github.com/memlp/memlp/internal/linalg"
)

// afiroLike is a small hand-written MPS instance in the classic style:
//
//	minimize  −3x − 2y
//	s.t.  x + y ≤ 4,  x + 3y ≤ 6,  x, y ≥ 0
//
// whose canonical-form maximize optimum is 12 at (4, 0).
const afiroLike = `* tiny test program
NAME TINY
ROWS
 N COST
 L LIM1
 L LIM2
COLUMNS
 X COST -3 LIM1 1
 X LIM2 1
 Y COST -2 LIM1 1
 Y LIM2 3
RHS
 RHS LIM1 4 LIM2 6
BOUNDS
 PL BND X
 PL BND Y
ENDATA
`

func TestReadMPSBasic(t *testing.T) {
	p, err := ReadMPS(strings.NewReader(afiroLike))
	if err != nil {
		t.Fatalf("ReadMPS: %v", err)
	}
	if p.Name != "TINY" {
		t.Errorf("name = %q", p.Name)
	}
	if p.NumVariables() != 2 || p.NumConstraints() != 2 {
		t.Fatalf("dims = (%d, %d)", p.NumVariables(), p.NumConstraints())
	}
	// MPS minimized −3x−2y; canonical form maximizes 3x+2y.
	if p.C[0] != 3 || p.C[1] != 2 {
		t.Errorf("c = %v", p.C)
	}
	if p.B[0] != 4 || p.B[1] != 6 {
		t.Errorf("b = %v", p.B)
	}
	if p.A.At(1, 1) != 3 {
		t.Errorf("A = %v", p.A)
	}
}

func TestReadMPSGreaterAndEqualityRows(t *testing.T) {
	src := `NAME GE
ROWS
 N OBJ
 G LOW
 E FIX
COLUMNS
 X OBJ -1 LOW 1
 X FIX 2
RHS
 R LOW 1 FIX 4
ENDATA
`
	p, err := ReadMPS(strings.NewReader(src))
	if err != nil {
		t.Fatalf("ReadMPS: %v", err)
	}
	// G row → one negated row; E row → a ± pair: 3 constraints total.
	if p.NumConstraints() != 3 {
		t.Fatalf("m = %d, want 3", p.NumConstraints())
	}
	// G: x ≥ 1 became −x ≤ −1.
	if p.A.At(0, 0) != -1 || p.B[0] != -1 {
		t.Errorf("G row wrong: %v %v", p.A.RawRow(0), p.B[0])
	}
	// E: 2x = 4 became 2x ≤ 4 and −2x ≤ −4.
	if p.A.At(1, 0) != 2 || p.B[1] != 4 || p.A.At(2, 0) != -2 || p.B[2] != -4 {
		t.Errorf("E rows wrong")
	}
	// The unique feasible point is x = 2.
	ok, err := p.IsFeasible(linalg.VectorOf(2), 1e-9)
	if err != nil || !ok {
		t.Errorf("x=2 infeasible: %v %v", ok, err)
	}
	ok, err = p.IsFeasible(linalg.VectorOf(1.5), 1e-9)
	if err != nil || ok {
		t.Errorf("x=1.5 feasible: %v %v", ok, err)
	}
}

func TestReadMPSErrors(t *testing.T) {
	tests := []struct {
		name string
		src  string
	}{
		{"no objective", "ROWS\n L R1\nCOLUMNS\n X R1 1\nRHS\nENDATA\n"},
		{"no columns", "ROWS\n N OBJ\n L R1\nRHS\nENDATA\n"},
		{"no constraints", "ROWS\n N OBJ\nCOLUMNS\n X OBJ 1\nRHS\nENDATA\n"},
		{"unknown section", "FROBNICATE\n"},
		{"ranges unsupported", "RANGES\n"},
		{"objsense unsupported", "OBJSENSE\n MAX\n"},
		{"duplicate row", "ROWS\n N OBJ\n L R1\n L R1\n"},
		{"two N rows", "ROWS\n N OBJ\n N OBJ2\n"},
		{"unknown row in columns", "ROWS\n N OBJ\n L R1\nCOLUMNS\n X R9 1\n"},
		{"bad value", "ROWS\n N OBJ\n L R1\nCOLUMNS\n X R1 abc\n"},
		{"unknown row in rhs", "ROWS\n N OBJ\n L R1\nCOLUMNS\n X R1 1\nRHS\n R R9 1\n"},
		{"integer marker", "ROWS\n N OBJ\n L R1\nCOLUMNS\n M1 'MARKER' 'INTORG'\n"},
		{"nonzero lower bound", "ROWS\n N OBJ\n L R1\nCOLUMNS\n X R1 1\nBOUNDS\n LO B X 2\nENDATA\n"},
		{"upper bound", "ROWS\n N OBJ\n L R1\nCOLUMNS\n X R1 1\nBOUNDS\n UP B X 2\nENDATA\n"},
		{"data before section", " X R1 1\n"},
		{"bad rows entry", "ROWS\n L\n"},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := ReadMPS(strings.NewReader(tc.src)); !errors.Is(err, ErrInvalid) {
				t.Errorf("ReadMPS = %v, want ErrInvalid", err)
			}
		})
	}
}

func TestMPSRoundTrip(t *testing.T) {
	orig, err := GenerateFeasible(GenConfig{Constraints: 9, Seed: 12})
	if err != nil {
		t.Fatalf("GenerateFeasible: %v", err)
	}
	var buf bytes.Buffer
	if err := orig.WriteMPS(&buf); err != nil {
		t.Fatalf("WriteMPS: %v", err)
	}
	back, err := ReadMPS(&buf)
	if err != nil {
		t.Fatalf("ReadMPS: %v", err)
	}
	if back.NumVariables() != orig.NumVariables() || back.NumConstraints() != orig.NumConstraints() {
		t.Fatalf("dims changed: (%d,%d) vs (%d,%d)",
			back.NumConstraints(), back.NumVariables(), orig.NumConstraints(), orig.NumVariables())
	}
	if !back.A.Equal(orig.A, 1e-12) {
		t.Error("A corrupted through MPS round trip")
	}
	for i := range orig.C {
		if math.Abs(back.C[i]-orig.C[i]) > 1e-12 {
			t.Errorf("c[%d] = %v, want %v", i, back.C[i], orig.C[i])
		}
	}
	for i := range orig.B {
		if math.Abs(back.B[i]-orig.B[i]) > 1e-12 {
			t.Errorf("b[%d] = %v, want %v", i, back.B[i], orig.B[i])
		}
	}
}

func TestSanitizeMPSName(t *testing.T) {
	if got := sanitizeMPSName("my problem #1"); got != "my_problem__1" {
		t.Errorf("sanitize = %q", got)
	}
	if got := sanitizeMPSName(""); got != "MEMLP" {
		t.Errorf("empty sanitize = %q", got)
	}
}
