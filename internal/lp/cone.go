package lp

import (
	"fmt"

	"github.com/memlp/memlp/internal/cone"
	"github.com/memlp/memlp/internal/linalg"
)

// ErrConicUnsupported is returned by engines and serializers that only handle
// the all-orthant (pure LP) case when handed a problem with second-order cone
// blocks. It wraps ErrInvalid so errors.Is(err, ErrInvalid) keeps matching.
var ErrConicUnsupported = fmt.Errorf("%w: second-order cone blocks not supported", ErrInvalid)

// ConeType identifies one kind of cone block over consecutive constraint rows.
type ConeType int

const (
	// ConeNonNeg is the nonnegative orthant: each covered row i contributes
	// the scalar condition (b − A·x)_i ≥ 0 — the classic LP inequality.
	ConeNonNeg ConeType = iota + 1
	// ConeSOC is a second-order (Lorentz) cone over Dim ≥ 2 consecutive
	// rows s = b − A·x: s₀ ≥ ‖(s₁, …, s_{Dim−1})‖₂, axis row first.
	ConeSOC
)

// String returns the textual directive keyword for the cone type.
func (t ConeType) String() string {
	switch t {
	case ConeNonNeg:
		return "nonneg"
	case ConeSOC:
		return "soc"
	default:
		return fmt.Sprintf("ConeType(%d)", int(t))
	}
}

// Cone describes one block of Dim consecutive constraint rows belonging to a
// single cone. A problem's Cones list is ordered and partitions rows 0..m−1.
type Cone struct {
	Type ConeType
	Dim  int
}

// NewConic constructs a validated conic problem: maximize cᵀx subject to
// b − A·x ∈ K and x ≥ 0, where K is the ordered product of the given cones
// over the constraint rows. A nil or all-orthant cone list yields the
// degenerate LP case New produces.
func NewConic(name string, c linalg.Vector, a *linalg.Matrix, b linalg.Vector, cones []Cone) (*Problem, error) {
	p := &Problem{Name: name, C: c, A: a, B: b, Cones: cones}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

// IsConic reports whether the problem has at least one second-order cone
// block. An explicit all-orthant cone list is NOT conic: it is the same
// degenerate LP shape as a nil list and takes the identical solve path.
func (p *Problem) IsConic() bool {
	for _, c := range p.Cones {
		if c.Type == ConeSOC {
			return true
		}
	}
	return false
}

// SOCBlocks returns the second-order cone blocks as (start, dim) row spans in
// ascending order, nil for a pure LP. The result aliases no problem state.
func (p *Problem) SOCBlocks() []cone.Block {
	var blocks []cone.Block
	start := 0
	for _, c := range p.Cones {
		if c.Type == ConeSOC {
			blocks = append(blocks, cone.Block{Start: start, Dim: c.Dim})
		}
		start += c.Dim
	}
	return blocks
}

// validateCones checks the cone list against m constraint rows: known types,
// positive dimensions (≥ 2 for SOC), and an exact partition of the rows.
func validateCones(cones []Cone, m int) error {
	total := 0
	for i, c := range cones {
		switch c.Type {
		case ConeNonNeg:
			if c.Dim < 1 {
				return fmt.Errorf("%w: cone %d: nonneg dimension %d < 1", ErrInvalid, i, c.Dim)
			}
		case ConeSOC:
			if c.Dim < 2 {
				return fmt.Errorf("%w: cone %d: soc dimension %d < 2", ErrInvalid, i, c.Dim)
			}
		default:
			return fmt.Errorf("%w: cone %d: unknown type %d", ErrInvalid, i, int(c.Type))
		}
		total += c.Dim
	}
	if total != m {
		return fmt.Errorf("%w: cone dimensions sum to %d, want %d constraint rows", ErrInvalid, total, m)
	}
	return nil
}
