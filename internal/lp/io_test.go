package lp

import (
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"
)

func TestTextRoundTrip(t *testing.T) {
	p := tinyLP(t)
	var buf bytes.Buffer
	if err := p.WriteText(&buf); err != nil {
		t.Fatalf("WriteText: %v", err)
	}
	q, err := ReadText(&buf)
	if err != nil {
		t.Fatalf("ReadText: %v", err)
	}
	if q.Name != p.Name {
		t.Errorf("name = %q, want %q", q.Name, p.Name)
	}
	if !q.A.Equal(p.A, 0) {
		t.Error("A corrupted through text")
	}
}

func TestReadTextComments(t *testing.T) {
	src := `
# a comment
name demo problem

maximize 1 -2.5
subject 1 0 <= 3
subject 0 1 <= 2
`
	p, err := ReadText(strings.NewReader(src))
	if err != nil {
		t.Fatalf("ReadText: %v", err)
	}
	if p.Name != "demo problem" {
		t.Errorf("name = %q", p.Name)
	}
	if p.NumVariables() != 2 || p.NumConstraints() != 2 {
		t.Errorf("dims = (%d, %d)", p.NumVariables(), p.NumConstraints())
	}
	if p.C[1] != -2.5 {
		t.Errorf("c[1] = %v, want -2.5", p.C[1])
	}
}

func TestReadTextErrors(t *testing.T) {
	tests := []struct {
		name string
		src  string
	}{
		{"missing maximize", "subject 1 <= 2\n"},
		{"no constraints", "maximize 1 2\n"},
		{"unknown directive", "minimize 1\n"},
		{"bad number", "maximize x y\nsubject 1 1 <= 2\n"},
		{"missing <=", "maximize 1\nsubject 1 2\n"},
		{"bad bound", "maximize 1\nsubject 1 <= z\n"},
		{"name empty", "name\nmaximize 1\nsubject 1 <= 1\n"},
		{"ragged rows", "maximize 1 2\nsubject 1 2 <= 3\nsubject 1 <= 3\n"},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := ReadText(strings.NewReader(tc.src)); !errors.Is(err, ErrInvalid) {
				t.Errorf("ReadText = %v, want ErrInvalid", err)
			}
		})
	}
}

func TestTextRoundTripGenerated(t *testing.T) {
	p, err := GenerateFeasible(GenConfig{Constraints: 9, Seed: 4})
	if err != nil {
		t.Fatalf("GenerateFeasible: %v", err)
	}
	var buf bytes.Buffer
	if err := p.WriteText(&buf); err != nil {
		t.Fatalf("WriteText: %v", err)
	}
	q, err := ReadText(&buf)
	if err != nil {
		t.Fatalf("ReadText: %v", err)
	}
	if !q.A.Equal(p.A, 1e-12) {
		t.Error("A corrupted through text round trip")
	}
}

// dietText is the diet LP in the text format; afiroLike is the same LP in
// MPS.
const dietText = "name diet\nmaximize 3 2\nsubject 1 1 <= 4\nsubject 1 3 <= 6\n"

var readers = []struct {
	name string
	src  string
	// comment turns a line's content into a comment of the format.
	comment string
	read    func(io.Reader) (*Problem, error)
}{
	{"text", dietText, "# ", ReadText},
	{"mps", afiroLike, "* ", ReadMPS},
}

// TestReadersAllocateByInput: parsing the diet LP allocates in proportion
// to its few dozen bytes, not to the longest line a reader accepts.
func TestReadersAllocateByInput(t *testing.T) {
	for _, r := range readers {
		if _, err := r.read(strings.NewReader(r.src)); err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		res := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				r.read(strings.NewReader(r.src))
			}
		})
		if got := res.AllocedBytesPerOp(); got >= 16<<10 {
			t.Errorf("%s: the diet LP allocates %d bytes per read, want < 16 KiB", r.name, got)
		}
	}
}

// TestReadersAcceptLongLines: a line far past bufio's default buffer still
// parses; the readers grow their buffer up to a 16 MiB line.
func TestReadersAcceptLongLines(t *testing.T) {
	long := strings.Repeat("x", 2<<20)
	for _, r := range readers {
		p, err := r.read(strings.NewReader(r.comment + long + "\n" + r.src))
		if err != nil {
			t.Fatalf("%s: a 2 MiB comment line: %v", r.name, err)
		}
		if p.NumVariables() != 2 || p.NumConstraints() != 2 || p.C[0] != 3 || p.B[1] != 6 {
			t.Errorf("%s: parsed c=%v b=%v", r.name, p.C, p.B)
		}
	}
}
