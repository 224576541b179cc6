package lp

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"github.com/memlp/memlp/internal/linalg"
)

// ReadMPS parses a linear program in (fixed or free form) MPS format — the
// industry-standard interchange format — and converts it to the canonical
// form `maximize cᵀx s.t. A·x ≤ b, x ≥ 0`.
//
// Supported sections: NAME, ROWS (N/L/G/E), COLUMNS, RHS, RANGES (rejected),
// BOUNDS (only the default x ≥ 0 bounds, i.e. LO 0 / PL, are accepted),
// ENDATA. MPS minimizes by default; the objective is negated into the
// canonical maximize form. G-rows are negated into ≤ rows; E-rows become a
// ≤/≥ pair.
//
// The subset is deliberately strict: anything outside it returns ErrInvalid
// with a line number rather than a silently wrong problem. A line may hold
// up to 16 MiB.
func ReadMPS(r io.Reader) (*Problem, error) {
	sc := newLineScanner(r)

	type rowInfo struct {
		kind  byte // N, L, G, E
		index int  // row index among constraints (unused for N)
	}

	var (
		name     string
		objRow   string
		rows     = map[string]*rowInfo{}
		rowOrder []string
		cols     = map[string]map[string]float64{} // col → row → coeff
		colOrder []string
		rhs      = map[string]float64{}
		section  string
		lineNo   int
	)

	for sc.Scan() {
		lineNo++
		raw := sc.Text()
		line := strings.TrimRight(raw, " \t\r")
		if line == "" || strings.HasPrefix(line, "*") {
			continue
		}
		if !strings.HasPrefix(raw, " ") && !strings.HasPrefix(raw, "\t") {
			// Section header.
			fields := strings.Fields(line)
			if len(fields) == 0 {
				// Whitespace-only line (e.g. a lone vertical tab).
				continue
			}
			section = strings.ToUpper(fields[0])
			switch section {
			case "NAME":
				if len(fields) > 1 {
					name = fields[1]
				}
			case "ROWS", "COLUMNS", "RHS", "BOUNDS", "ENDATA":
			case "RANGES":
				return nil, fmt.Errorf("%w: line %d: RANGES section not supported", ErrInvalid, lineNo)
			case "OBJSENSE":
				return nil, fmt.Errorf("%w: line %d: OBJSENSE section not supported (MPS minimizes by default)", ErrInvalid, lineNo)
			default:
				return nil, fmt.Errorf("%w: line %d: unknown section %q", ErrInvalid, lineNo, section)
			}
			if section == "ENDATA" {
				break
			}
			continue
		}

		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		switch section {
		case "ROWS":
			if len(fields) != 2 {
				return nil, fmt.Errorf("%w: line %d: ROWS entries are '<type> <name>'", ErrInvalid, lineNo)
			}
			kind := strings.ToUpper(fields[0])
			rname := fields[1]
			if _, dup := rows[rname]; dup {
				return nil, fmt.Errorf("%w: line %d: duplicate row %q", ErrInvalid, lineNo, rname)
			}
			switch kind {
			case "N":
				if objRow != "" {
					return nil, fmt.Errorf("%w: line %d: multiple N rows", ErrInvalid, lineNo)
				}
				objRow = rname
				rows[rname] = &rowInfo{kind: 'N'}
			case "L", "G", "E":
				rows[rname] = &rowInfo{kind: kind[0]}
				rowOrder = append(rowOrder, rname)
			default:
				return nil, fmt.Errorf("%w: line %d: unknown row type %q", ErrInvalid, lineNo, kind)
			}

		case "COLUMNS":
			if len(fields) >= 3 && strings.EqualFold(fields[2], "'MARKER'") {
				return nil, fmt.Errorf("%w: line %d: integer markers not supported (LP only)", ErrInvalid, lineNo)
			}
			if len(fields) != 3 && len(fields) != 5 {
				return nil, fmt.Errorf("%w: line %d: COLUMNS entries are '<col> <row> <val> [<row> <val>]'", ErrInvalid, lineNo)
			}
			cname := fields[0]
			if _, seen := cols[cname]; !seen {
				cols[cname] = map[string]float64{}
				colOrder = append(colOrder, cname)
			}
			for k := 1; k+1 < len(fields); k += 2 {
				rname := fields[k]
				if _, ok := rows[rname]; !ok {
					return nil, fmt.Errorf("%w: line %d: unknown row %q", ErrInvalid, lineNo, rname)
				}
				v, err := strconv.ParseFloat(fields[k+1], 64)
				if err != nil {
					return nil, fmt.Errorf("%w: line %d: bad value %q", ErrInvalid, lineNo, fields[k+1])
				}
				cols[cname][rname] += v
			}

		case "RHS":
			if len(fields) != 3 && len(fields) != 5 {
				return nil, fmt.Errorf("%w: line %d: RHS entries are '<set> <row> <val> [<row> <val>]'", ErrInvalid, lineNo)
			}
			for k := 1; k+1 < len(fields); k += 2 {
				rname := fields[k]
				if _, ok := rows[rname]; !ok {
					return nil, fmt.Errorf("%w: line %d: unknown row %q", ErrInvalid, lineNo, rname)
				}
				v, err := strconv.ParseFloat(fields[k+1], 64)
				if err != nil {
					return nil, fmt.Errorf("%w: line %d: bad value %q", ErrInvalid, lineNo, fields[k+1])
				}
				rhs[rname] = v
			}

		case "BOUNDS":
			if len(fields) < 3 {
				return nil, fmt.Errorf("%w: line %d: short BOUNDS entry", ErrInvalid, lineNo)
			}
			kind := strings.ToUpper(fields[0])
			switch kind {
			case "PL": // x ≥ 0, the default
			case "LO":
				if len(fields) != 4 {
					return nil, fmt.Errorf("%w: line %d: LO bound needs a value", ErrInvalid, lineNo)
				}
				if v, err := strconv.ParseFloat(fields[3], 64); err != nil || v != 0 {
					return nil, fmt.Errorf("%w: line %d: only the default lower bound 0 is supported", ErrInvalid, lineNo)
				}
			default:
				return nil, fmt.Errorf("%w: line %d: bound type %q not supported (canonical form needs x ≥ 0)", ErrInvalid, lineNo, kind)
			}

		case "":
			return nil, fmt.Errorf("%w: line %d: data before any section", ErrInvalid, lineNo)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("lp: read MPS: %w", err)
	}
	if objRow == "" {
		return nil, fmt.Errorf("%w: no objective (N) row", ErrInvalid)
	}
	if len(colOrder) == 0 {
		return nil, fmt.Errorf("%w: no columns", ErrInvalid)
	}
	if len(rowOrder) == 0 {
		return nil, fmt.Errorf("%w: no constraint rows", ErrInvalid)
	}

	// Count output constraints (E rows expand to two).
	var outRows int
	for _, rname := range rowOrder {
		if rows[rname].kind == 'E' {
			outRows += 2
		} else {
			outRows++
		}
	}

	n := len(colOrder)
	a := linalg.NewMatrix(outRows, n)
	b := linalg.NewVector(outRows)
	c := linalg.NewVector(n)

	colIdx := map[string]int{}
	for j, cn := range colOrder {
		colIdx[cn] = j
	}

	ri := 0
	for _, rname := range rowOrder {
		info := rows[rname]
		bound := rhs[rname]
		// sign = +1 encodes "row ≤ bound"; G rows are negated.
		emit := func(sign float64) {
			for cn, coeffs := range cols {
				if v, ok := coeffs[rname]; ok && v != 0 {
					a.Set(ri, colIdx[cn], sign*v)
				}
			}
			b[ri] = sign * bound
			ri++
		}
		switch info.kind {
		case 'L':
			emit(1)
		case 'G':
			emit(-1)
		case 'E':
			emit(1)
			emit(-1)
		}
	}

	// MPS minimizes; canonical form maximizes.
	for cn, coeffs := range cols {
		if v, ok := coeffs[objRow]; ok {
			c[colIdx[cn]] = -v
		}
	}

	if name == "" {
		name = "mps"
	}
	return New(name, c, a, b)
}

// WriteMPS serializes the problem in MPS format (as a minimization of −cᵀx,
// with all constraints as L rows). ReadMPS(WriteMPS(p)) round-trips the
// canonical form exactly up to row/column naming. MPS has no cone sections;
// conic problems are rejected with ErrConicUnsupported — use WriteText or
// JSON for those.
func (p *Problem) WriteMPS(w io.Writer) error {
	if p.IsConic() {
		return ErrConicUnsupported
	}
	bw := bufio.NewWriter(w)
	name := p.Name
	if name == "" {
		name = "MEMLP"
	}
	fmt.Fprintf(bw, "NAME %s\n", sanitizeMPSName(name))
	fmt.Fprintln(bw, "ROWS")
	fmt.Fprintln(bw, " N COST")
	for i := 0; i < p.NumConstraints(); i++ {
		fmt.Fprintf(bw, " L R%d\n", i)
	}
	fmt.Fprintln(bw, "COLUMNS")
	for j := 0; j < p.NumVariables(); j++ {
		if p.C[j] != 0 {
			fmt.Fprintf(bw, " X%d COST %.17g\n", j, -p.C[j])
		}
		for i := 0; i < p.NumConstraints(); i++ {
			if v := p.A.At(i, j); v != 0 {
				fmt.Fprintf(bw, " X%d R%d %.17g\n", j, i, v)
			}
		}
	}
	fmt.Fprintln(bw, "RHS")
	for i := 0; i < p.NumConstraints(); i++ {
		if p.B[i] != 0 {
			fmt.Fprintf(bw, " RHS R%d %.17g\n", i, p.B[i])
		}
	}
	fmt.Fprintln(bw, "ENDATA")
	return bw.Flush()
}

func sanitizeMPSName(s string) string {
	out := strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_', r == '-', r == '.':
			return r
		default:
			return '_'
		}
	}, s)
	if out == "" {
		out = "MEMLP"
	}
	return out
}
