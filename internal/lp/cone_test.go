package lp

import (
	"bytes"
	"errors"
	"testing"

	"github.com/memlp/memlp/internal/linalg"
)

func socpFixture(t *testing.T) *Problem {
	t.Helper()
	a, err := linalg.MatrixFromRows([][]float64{
		{1, 1},
		{0, 0},
		{1, 0},
		{0, 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewConic("fixture", linalg.Vector{1, 2}, a, linalg.Vector{4, 3, 0, 0},
		[]Cone{{Type: ConeNonNeg, Dim: 1}, {Type: ConeSOC, Dim: 3}})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestConicValidation(t *testing.T) {
	a, _ := linalg.MatrixFromRows([][]float64{{1, 1}, {1, 3}})
	c := linalg.Vector{3, 2}
	b := linalg.Vector{4, 6}

	cases := []struct {
		name  string
		cones []Cone
		ok    bool
	}{
		{"nil (pure LP)", nil, true},
		{"explicit all-orthant", []Cone{{Type: ConeNonNeg, Dim: 2}}, true},
		{"full soc", []Cone{{Type: ConeSOC, Dim: 2}}, true},
		{"short partition", []Cone{{Type: ConeNonNeg, Dim: 1}}, false},
		{"long partition", []Cone{{Type: ConeNonNeg, Dim: 3}}, false},
		{"soc dim 1", []Cone{{Type: ConeNonNeg, Dim: 1}, {Type: ConeSOC, Dim: 1}}, false},
		{"unknown type", []Cone{{Type: ConeType(9), Dim: 2}}, false},
	}
	for _, tc := range cases {
		_, err := NewConic("t", c, a, b, tc.cones)
		if tc.ok && err != nil {
			t.Errorf("%s: unexpected error %v", tc.name, err)
		}
		if !tc.ok {
			if err == nil {
				t.Errorf("%s: validation passed, want error", tc.name)
			} else if !errors.Is(err, ErrInvalid) {
				t.Errorf("%s: error %v does not wrap ErrInvalid", tc.name, err)
			}
		}
	}
}

func TestIsConicAndBlocks(t *testing.T) {
	p := socpFixture(t)
	if !p.IsConic() {
		t.Error("fixture not reported conic")
	}
	blocks := p.SOCBlocks()
	if len(blocks) != 1 || blocks[0].Start != 1 || blocks[0].Dim != 3 {
		t.Errorf("SOCBlocks = %+v, want [{1 3}]", blocks)
	}

	lp, _ := GenerateFeasible(GenConfig{Constraints: 4, Seed: 1})
	if lp.IsConic() || lp.SOCBlocks() != nil {
		t.Error("pure LP reported conic")
	}
	// An explicit all-orthant list is the same degenerate case.
	lp.Cones = []Cone{{Type: ConeNonNeg, Dim: 4}}
	if lp.IsConic() {
		t.Error("all-orthant cones reported conic")
	}
}

func TestConicIsFeasible(t *testing.T) {
	p := socpFixture(t)
	// x = (1, 1): orthant row 1+1 ≤ 4 ok; slack of the soc block is
	// (3, −1, −1) with ‖tail‖ = √2 < 3: interior.
	ok, err := p.IsFeasible(linalg.Vector{1, 1}, 1e-9)
	if err != nil || !ok {
		t.Errorf("interior point rejected: ok=%v err=%v", ok, err)
	}
	// x = (3, 0): slack (3, −3, 0), ‖tail‖ = 3 = axis: boundary, accepted.
	ok, err = p.IsFeasible(linalg.Vector{3, 0}, 1e-9)
	if err != nil || !ok {
		t.Errorf("boundary point rejected: ok=%v err=%v", ok, err)
	}
	// x = (4, 0): slack (3, −4, 0) leaves the cone.
	ok, err = p.IsFeasible(linalg.Vector{4, 0}, 1e-9)
	if err != nil || ok {
		t.Errorf("exterior point accepted: ok=%v err=%v", ok, err)
	}
}

func TestConicCloneAndDual(t *testing.T) {
	p := socpFixture(t)
	if p.Dual() != nil {
		t.Error("Dual of a conic problem should be nil")
	}
	lp, _ := GenerateFeasible(GenConfig{Constraints: 4, Seed: 1})
	if lp.Dual() == nil {
		t.Error("Dual of a pure LP should not be nil")
	}
}

func TestConicTextRoundTrip(t *testing.T) {
	p := socpFixture(t)
	var buf bytes.Buffer
	if err := p.WriteText(&buf); err != nil {
		t.Fatalf("WriteText: %v", err)
	}
	q, err := ReadText(&buf)
	if err != nil {
		t.Fatalf("ReadText: %v", err)
	}
	if !conesEqual(p.Cones, q.Cones) {
		t.Errorf("text round-trip cones %+v != %+v", q.Cones, p.Cones)
	}
	if q.Name != p.Name || len(q.C) != len(p.C) || len(q.B) != len(p.B) {
		t.Errorf("text round-trip lost data: %+v", q)
	}
}

func TestConicMPSRejected(t *testing.T) {
	p := socpFixture(t)
	var buf bytes.Buffer
	err := p.WriteMPS(&buf)
	if !errors.Is(err, ErrConicUnsupported) {
		t.Errorf("WriteMPS error = %v, want ErrConicUnsupported", err)
	}
	if !errors.Is(err, ErrInvalid) {
		t.Errorf("ErrConicUnsupported does not wrap ErrInvalid")
	}
}

func TestGenerateFeasibleSOCP(t *testing.T) {
	for _, cfg := range []SOCGenConfig{
		{GenConfig: GenConfig{Constraints: 8, Seed: 1}},
		{GenConfig: GenConfig{Constraints: 12, Seed: 7}, Blocks: 2, BlockDim: 4},
	} {
		p, err := GenerateFeasibleSOCP(cfg)
		if err != nil {
			t.Fatalf("generate %+v: %v", cfg, err)
		}
		if !p.IsConic() {
			t.Fatal("generated problem is not conic")
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("generated problem invalid: %v", err)
		}
		// Determinism: same seed, same instance.
		q, err := GenerateFeasibleSOCP(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var b1, b2 bytes.Buffer
		if err := p.WriteText(&b1); err != nil {
			t.Fatal(err)
		}
		if err := q.WriteText(&b2); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
			t.Error("same seed produced different SOCP instances")
		}
	}

	if _, err := GenerateFeasibleSOCP(SOCGenConfig{
		GenConfig: GenConfig{Constraints: 3, Seed: 1}, Blocks: 1, BlockDim: 3,
	}); !errors.Is(err, ErrInvalid) {
		t.Errorf("all-soc layout accepted, want ErrInvalid (no orthant row): %v", err)
	}
}

// conesEqual reports whether two cone lists describe the same partition,
// treating nil and empty as equal.
func conesEqual(a, b []Cone) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
