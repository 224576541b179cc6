// Package lp defines linear programs in the paper's canonical form,
//
//	maximize cᵀx subject to A·x ≤ b, x ≥ 0    (A ∈ R^{m×n})
//
// together with the symmetric dual, feasibility predicates, random instance
// generators matching the paper's evaluation setup (§4.2), and JSON/text
// serialization for the command-line tools.
package lp

import (
	"errors"
	"fmt"
	"math"

	"github.com/memlp/memlp/internal/cone"
	"github.com/memlp/memlp/internal/linalg"
)

// Errors returned by problem construction and validation.
var (
	ErrInvalid = errors.New("lp: invalid problem")
)

// Problem is an optimization problem in conic canonical form: maximize cᵀx
// subject to b − A·x ∈ K and x ≥ 0, where K is an ordered product of
// nonnegative-orthant rows and second-order cone blocks described by Cones.
// A nil (or all-orthant) cone list is the degenerate LP case b − A·x ≥ 0,
// i.e. the classic A·x ≤ b — every pre-conic call site keeps working.
type Problem struct {
	// Name optionally labels the instance.
	Name string
	// C is the objective vector (length n).
	C linalg.Vector
	// A is the m×n constraint matrix.
	A *linalg.Matrix
	// B is the right-hand side (length m).
	B linalg.Vector
	// Cones partitions the m constraint rows into cone blocks, in row
	// order. Nil means all rows are orthant rows (a pure LP).
	Cones []Cone
}

// New constructs a validated problem. The inputs are used directly (not
// copied); callers must not mutate them afterwards.
func New(name string, c linalg.Vector, a *linalg.Matrix, b linalg.Vector) (*Problem, error) {
	p := &Problem{Name: name, C: c, A: a, B: b}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

// Validate checks shape consistency and finiteness.
func (p *Problem) Validate() error {
	if p.A == nil {
		return fmt.Errorf("%w: nil constraint matrix", ErrInvalid)
	}
	m, n := p.A.Rows(), p.A.Cols()
	if m == 0 || n == 0 {
		return fmt.Errorf("%w: empty constraint matrix %dx%d", ErrInvalid, m, n)
	}
	if len(p.C) != n {
		return fmt.Errorf("%w: objective has %d elements for %d variables", ErrInvalid, len(p.C), n)
	}
	if len(p.B) != m {
		return fmt.Errorf("%w: rhs has %d elements for %d constraints", ErrInvalid, len(p.B), m)
	}
	if !p.C.AllFinite() || !p.B.AllFinite() || !p.A.AllFinite() {
		return fmt.Errorf("%w: non-finite data", ErrInvalid)
	}
	if p.Cones != nil {
		if err := validateCones(p.Cones, m); err != nil {
			return err
		}
	}
	return nil
}

// NumVariables returns n.
func (p *Problem) NumVariables() int { return p.A.Cols() }

// NumConstraints returns m.
func (p *Problem) NumConstraints() int { return p.A.Rows() }

// Objective returns cᵀx.
func (p *Problem) Objective(x linalg.Vector) (float64, error) {
	return p.C.Dot(x)
}

// IsFeasible reports whether x satisfies b − A·x ∈ K within tolerance (the
// paper's relaxed α-check from §3.2, with α = 1+tol) and x ≥ −tol. For
// orthant rows the check is the classic A·x ≤ b + tol·(1+|b|); for
// second-order cone blocks the slack s = b − A·x must satisfy
// ‖s̄‖ − s₀ ≤ tol·(1+‖s̄‖).
func (p *Problem) IsFeasible(x linalg.Vector, tol float64) (bool, error) {
	if len(x) != p.NumVariables() {
		return false, fmt.Errorf("%w: point has %d elements for %d variables", ErrInvalid, len(x), p.NumVariables())
	}
	for _, xi := range x {
		if xi < -tol {
			return false, nil
		}
	}
	blocks := p.SOCBlocks()
	socRows := make(map[int]bool)
	var ax linalg.Vector
	if len(blocks) > 0 {
		var err error
		if ax, err = p.A.MatVec(x); err != nil {
			return false, err
		}
	}
	for _, blk := range blocks {
		slack := make([]float64, blk.Dim)
		var tailSq float64
		for i := 0; i < blk.Dim; i++ {
			row := blk.Start + i
			socRows[row] = true
			slack[i] = p.B[row] - ax[row]
			if i > 0 {
				tailSq += slack[i] * slack[i]
			}
		}
		if d := cone.Dist(slack); d > tol*(1+math.Sqrt(tailSq)) {
			return false, nil
		}
	}
	// Orthant rows need only their own dot product, the same sum MatVec
	// forms, so a pure LP is checked without allocating.
	for i := 0; i < p.A.Rows(); i++ {
		if socRows[i] {
			continue
		}
		v, err := linalg.Vector(p.A.RawRow(i)).Dot(x)
		if err != nil {
			return false, err
		}
		bound := p.B[i]
		slackTol := tol * (1 + absf(bound))
		if v > bound+slackTol {
			return false, nil
		}
	}
	return true, nil
}

// Slack returns b − A·x, the constraint slack at x.
func (p *Problem) Slack(x linalg.Vector) (linalg.Vector, error) {
	ax, err := p.A.MatVec(x)
	if err != nil {
		return nil, err
	}
	return p.B.Sub(ax)
}

// Dual returns the symmetric dual expressed back in canonical (maximize)
// form. The dual of
//
//	max cᵀx s.t. A·x ≤ b, x ≥ 0
//
// is  min bᵀy s.t. Aᵀ·y ≥ c, y ≥ 0, which in canonical form reads
//
//	max (−b)ᵀy s.t. (−Aᵀ)·y ≤ −c, y ≥ 0.
//
// The optimal objective of the returned problem is the negation of the dual
// optimum, which by strong duality equals −(primal optimum).
//
// Dual is defined for the LP case only: the conic dual constrains y to the
// cone K rather than the orthant, which this row-cone canonical form cannot
// express. It returns nil for conic problems.
func (p *Problem) Dual() *Problem {
	if p.IsConic() {
		return nil
	}
	return &Problem{
		Name: p.Name + "-dual",
		C:    p.B.Scale(-1),
		A:    p.A.Transpose().Scale(-1),
		B:    p.C.Scale(-1),
	}
}

// Clone returns a deep copy.
func (p *Problem) Clone() *Problem {
	return &Problem{Name: p.Name, C: p.C.Clone(), A: p.A.Clone(), B: p.B.Clone(), Cones: cloneCones(p.Cones)}
}

func absf(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
