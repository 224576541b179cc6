package lp

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"github.com/memlp/memlp/internal/linalg"
)

func parseConeType(s string) (ConeType, error) {
	switch s {
	case "nonneg":
		return ConeNonNeg, nil
	case "soc":
		return ConeSOC, nil
	default:
		return 0, fmt.Errorf("unknown cone type %q", s)
	}
}

// WriteText writes the problem in the compact textual format accepted by
// ReadText:
//
//	# optional comments
//	name <name>
//	maximize 3 2
//	subject 1 1 <= 4
//	subject 1 3 <= 6
//	cone nonneg 1
//	cone soc 2
//
// Each "subject" line gives one row of A followed by "<=" and the bound.
// Optional "cone" lines partition the constraint rows, in order, into
// nonnegative-orthant rows and second-order cone blocks; without any the
// problem is a pure LP.
func (p *Problem) WriteText(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if p.Name != "" {
		fmt.Fprintf(bw, "name %s\n", p.Name)
	}
	fmt.Fprint(bw, "maximize")
	for _, v := range p.C {
		fmt.Fprintf(bw, " %g", v)
	}
	fmt.Fprintln(bw)
	for i := 0; i < p.A.Rows(); i++ {
		fmt.Fprint(bw, "subject")
		for _, v := range p.A.RawRow(i) {
			fmt.Fprintf(bw, " %g", v)
		}
		fmt.Fprintf(bw, " <= %g\n", p.B[i])
	}
	for _, c := range p.Cones {
		fmt.Fprintf(bw, "cone %s %d\n", c.Type, c.Dim)
	}
	return bw.Flush()
}

// maxLine caps one input line of ReadText and ReadMPS.
const maxLine = 1 << 24

// newLineScanner returns the line scanner both readers share. Its buffer
// starts at bufio's default size and doubles only while a line does not
// fit, up to maxLine, so a small request costs a few KiB rather than a
// fixed large buffer.
func newLineScanner(r io.Reader) *bufio.Scanner {
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, maxLine)
	return sc
}

// ReadText parses the textual format written by WriteText. A line may
// hold up to 16 MiB.
func ReadText(r io.Reader) (*Problem, error) {
	sc := newLineScanner(r)
	var (
		name  string
		c     linalg.Vector
		rows  [][]float64
		b     linalg.Vector
		cones []Cone
	)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		switch fields[0] {
		case "name":
			if len(fields) < 2 {
				return nil, fmt.Errorf("%w: line %d: name requires a value", ErrInvalid, lineNo)
			}
			name = strings.Join(fields[1:], " ")
		case "maximize":
			vec, err := parseFloats(fields[1:])
			if err != nil {
				return nil, fmt.Errorf("%w: line %d: %v", ErrInvalid, lineNo, err)
			}
			c = vec
		case "subject":
			idx := -1
			for i, f := range fields {
				if f == "<=" {
					idx = i
					break
				}
			}
			if idx < 0 || idx != len(fields)-2 {
				return nil, fmt.Errorf("%w: line %d: want 'subject a1 ... an <= b'", ErrInvalid, lineNo)
			}
			row, err := parseFloats(fields[1:idx])
			if err != nil {
				return nil, fmt.Errorf("%w: line %d: %v", ErrInvalid, lineNo, err)
			}
			bound, err := strconv.ParseFloat(fields[idx+1], 64)
			if err != nil {
				return nil, fmt.Errorf("%w: line %d: bad bound %q", ErrInvalid, lineNo, fields[idx+1])
			}
			rows = append(rows, row)
			b = append(b, bound)
		case "cone":
			if len(fields) != 3 {
				return nil, fmt.Errorf("%w: line %d: want 'cone <nonneg|soc> <dim>'", ErrInvalid, lineNo)
			}
			t, err := parseConeType(fields[1])
			if err != nil {
				return nil, fmt.Errorf("%w: line %d: %v", ErrInvalid, lineNo, err)
			}
			dim, err := strconv.Atoi(fields[2])
			if err != nil {
				return nil, fmt.Errorf("%w: line %d: bad cone dimension %q", ErrInvalid, lineNo, fields[2])
			}
			cones = append(cones, Cone{Type: t, Dim: dim})
		default:
			return nil, fmt.Errorf("%w: line %d: unknown directive %q", ErrInvalid, lineNo, fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("lp: read: %w", err)
	}
	if c == nil {
		return nil, fmt.Errorf("%w: missing maximize line", ErrInvalid)
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("%w: no constraints", ErrInvalid)
	}
	a, err := linalg.MatrixFromRows(rows)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrInvalid, err)
	}
	return NewConic(name, c, a, b, cones)
}

func parseFloats(fields []string) ([]float64, error) {
	out := make([]float64, 0, len(fields))
	for _, f := range fields {
		v, err := strconv.ParseFloat(f, 64)
		if err != nil {
			return nil, fmt.Errorf("bad number %q", f)
		}
		out = append(out, v)
	}
	return out, nil
}
