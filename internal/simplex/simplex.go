// Package simplex implements the two-phase primal simplex method — the
// classic software baseline the paper's §2.1 contrasts with interior-point
// methods. It solves the canonical problem
//
//	maximize cᵀx subject to A·x ≤ b, x ≥ 0
//
// with a dense tableau, Bland's anti-cycling rule, phase-1 artificial
// variables for negative right-hand sides, and explicit unbounded/infeasible
// detection.
package simplex

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"github.com/memlp/memlp/internal/engine"
	"github.com/memlp/memlp/internal/linalg"
	"github.com/memlp/memlp/internal/lp"
	"github.com/memlp/memlp/internal/trace"
)

// ErrPivotLimit is returned when the pivot budget is exhausted (cycling or a
// pathological instance).
var ErrPivotLimit = errors.New("simplex: pivot limit exceeded")

// Solver is a two-phase tableau simplex solver.
type Solver struct {
	maxPivots int
	tol       float64

	// mu serializes solves only when tracing is enabled (the ring is the
	// solver's one piece of mutable state; untraced solvers stay
	// lock-free, preserving the historical fully-concurrent behavior).
	mu   sync.Mutex
	ring *trace.Ring
}

// Option configures the solver.
type Option func(*Solver)

// WithMaxPivots bounds the total pivot count (default 50000).
func WithMaxPivots(n int) Option {
	return func(s *Solver) { s.maxPivots = n }
}

// WithTrace enables per-pivot trace recording into a bounded ring of the
// given capacity (<= 0 means trace.DefaultCapacity); the trajectory is
// returned as engine.Result.Trace. Pivot records carry the running tableau
// objective-row value (phase-local) in Objective.
func WithTrace(capacity int) Option {
	return func(s *Solver) { s.ring = trace.NewRing(capacity) }
}

// New returns a simplex solver.
func New(opts ...Option) (*Solver, error) {
	s := &Solver{maxPivots: 50_000, tol: 1e-9}
	for _, o := range opts {
		o(s)
	}
	if s.maxPivots < 1 {
		return nil, fmt.Errorf("%w: max pivots %d", lp.ErrInvalid, s.maxPivots)
	}
	return s, nil
}

// tableau is a dense simplex tableau. Row 0..m-1 are constraints; the last
// row is the (negated) objective. basis[i] is the variable basic in row i.
type tableau struct {
	rows, cols int // constraint rows, total columns (vars + rhs)
	a          [][]float64
	basis      []int
	tol        float64
}

func (t *tableau) rhs(i int) float64 { return t.a[i][t.cols-1] }

// pivot performs a standard pivot on (row, col).
func (t *tableau) pivot(row, col int) {
	pr := t.a[row]
	pv := pr[col]
	for j := range pr {
		pr[j] /= pv
	}
	for i := range t.a {
		if i == row {
			continue
		}
		f := t.a[i][col]
		if f == 0 {
			continue
		}
		ri := t.a[i]
		for j := range ri {
			ri[j] -= f * pr[j]
		}
	}
	t.basis[row] = col
}

// enteringBland returns the lowest-index column with a positive reduced cost
// in the objective row (we keep the objective row as z-row coefficients to
// MINIMIZE, so "improving" means negative; see build), or -1 at optimality.
func (t *tableau) entering(limit int) int {
	obj := t.a[t.rows]
	for j := 0; j < limit; j++ {
		if obj[j] < -t.tol {
			return j
		}
	}
	return -1
}

// leaving performs the minimum-ratio test with Bland tie-breaking; returns
// -1 if the column is unbounded.
func (t *tableau) leaving(col int) int {
	best := -1
	bestRatio := math.Inf(1)
	for i := 0; i < t.rows; i++ {
		a := t.a[i][col]
		if a > t.tol {
			ratio := t.rhs(i) / a
			if ratio < bestRatio-t.tol ||
				(math.Abs(ratio-bestRatio) <= t.tol && (best == -1 || t.basis[i] < t.basis[best])) {
				best = i
				bestRatio = ratio
			}
		}
	}
	return best
}

// Solve runs two-phase simplex on p.
func (s *Solver) Solve(p *lp.Problem) (*engine.Result, error) {
	return s.SolveContext(context.Background(), p)
}

// SolveContext runs two-phase simplex on p, honoring cancellation and
// deadlines: the context is checked once per pivot, and an interrupted solve
// returns lp.StatusCanceled alongside the wrapped context error.
func (s *Solver) SolveContext(ctx context.Context, p *lp.Problem) (*engine.Result, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	start := engine.WallClock()
	// Simplex pivots over a polyhedral tableau; second-order cones have no
	// vertex structure to pivot on.
	if p.IsConic() {
		return nil, fmt.Errorf("simplex: %w", lp.ErrConicUnsupported)
	}
	if s.ring != nil {
		s.mu.Lock()
		defer s.mu.Unlock()
		s.ring.Reset()
	}
	n, m := p.NumVariables(), p.NumConstraints()

	// Columns: x(n) | slacks(m) | artificials(≤m) | rhs.
	// Rows with negative b are negated first so all right-hand sides are
	// non-negative; those rows get artificial variables.
	needArt := make([]bool, m)
	numArt := 0
	for i := 0; i < m; i++ {
		if p.B[i] < 0 {
			needArt[i] = true
			numArt++
		}
	}
	cols := n + m + numArt + 1
	t := &tableau{rows: m, cols: cols, tol: s.tol, basis: make([]int, m)}
	t.a = make([][]float64, m+1)
	for i := range t.a {
		t.a[i] = make([]float64, cols)
	}
	artCol := n + m
	for i := 0; i < m; i++ {
		sign := 1.0
		if needArt[i] {
			sign = -1
		}
		for j := 0; j < n; j++ {
			t.a[i][j] = sign * p.A.At(i, j)
		}
		t.a[i][n+i] = sign // slack
		t.a[i][cols-1] = sign * p.B[i]
		if needArt[i] {
			t.a[i][artCol] = 1
			t.basis[i] = artCol
			artCol++
		} else {
			t.basis[i] = n + i
		}
	}

	pivots := 0

	// Phase 1: minimize the sum of artificials. Objective row = Σ(-art
	// rows) expressed over non-basic columns.
	if numArt > 0 {
		obj := t.a[m]
		for i := 0; i < m; i++ {
			if !needArt[i] {
				continue
			}
			for j := 0; j < cols; j++ {
				obj[j] -= t.a[i][j]
			}
		}
		// Zero out the artificial columns themselves in the z-row (they are
		// basic with coefficient 1 in the phase-1 objective).
		for j := n + m; j < cols-1; j++ {
			obj[j] = 0
		}
		if err := s.iterate(ctx, t, cols-1, &pivots); err != nil {
			if errors.Is(err, errUnbounded) {
				// Phase 1 is bounded below by 0; unbounded here means a bug.
				return nil, fmt.Errorf("simplex: phase 1 unbounded: internal error")
			}
			if canceled(err) {
				return s.finishResult(start, &engine.Result{Status: lp.StatusCanceled, Pivots: pivots}), err
			}
			return nil, err
		}
		if -t.a[m][cols-1] > 1e-7 {
			return s.finishResult(start, &engine.Result{Status: lp.StatusInfeasible, Pivots: pivots}), nil
		}
		// Drive any artificial still in the basis out (degenerate case).
		for i := 0; i < m; i++ {
			if t.basis[i] >= n+m {
				for j := 0; j < n+m; j++ {
					if math.Abs(t.a[i][j]) > s.tol {
						t.pivot(i, j)
						pivots++
						break
					}
				}
			}
		}
	}

	// Phase 2: maximize cᵀx ⇔ minimize −cᵀx. Build the z-row from the
	// original objective, then express it over the current basis.
	obj := t.a[m]
	for j := range obj {
		obj[j] = 0
	}
	for j := 0; j < n; j++ {
		obj[j] = -p.C[j]
	}
	for i := 0; i < m; i++ {
		bi := t.basis[i]
		f := obj[bi]
		if f == 0 {
			continue
		}
		ri := t.a[i]
		for j := range obj {
			obj[j] -= f * ri[j]
		}
	}
	// Forbid re-entering artificial columns.
	limit := n + m
	if err := s.iterate(ctx, t, limit, &pivots); err != nil {
		if errors.Is(err, errUnbounded) {
			return s.finishResult(start, &engine.Result{Status: lp.StatusUnbounded, Pivots: pivots}), nil
		}
		if canceled(err) {
			return s.finishResult(start, &engine.Result{Status: lp.StatusCanceled, Pivots: pivots}), err
		}
		return nil, err
	}

	x := linalg.NewVector(n)
	for i := 0; i < m; i++ {
		if t.basis[i] < n {
			x[t.basis[i]] = t.rhs(i)
		}
	}
	obj2, err := p.Objective(x)
	if err != nil {
		return nil, err
	}
	return s.finishResult(start, &engine.Result{Status: lp.StatusOptimal, X: x, Objective: obj2, Pivots: pivots}), nil
}

// finishResult stamps the solve's wall time, emits the terminal done record
// and attaches the trajectory snapshot (the last two only when tracing).
// Callers hold s.mu when tracing.
func (s *Solver) finishResult(start time.Time, res *engine.Result) *engine.Result {
	res.WallTime = engine.WallSince(start)
	if s.ring == nil {
		return res
	}
	s.ring.Emit(trace.Record{
		Event:     trace.EventDone,
		Status:    res.Status.String(),
		Attempt:   1,
		Iteration: res.Pivots,
		Objective: res.Objective,
	})
	res.Trace = s.ring.Snapshot()
	return res
}

var errUnbounded = errors.New("simplex: unbounded direction")

// canceled reports whether err stems from context cancellation or expiry.
func canceled(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// iterate pivots until optimality within the given column limit, checking the
// context once per pivot.
func (s *Solver) iterate(ctx context.Context, t *tableau, limit int, pivots *int) error {
	for {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("simplex: solve canceled after %d pivots: %w", *pivots, err)
		}
		if *pivots >= s.maxPivots {
			return fmt.Errorf("%w: %d", ErrPivotLimit, s.maxPivots)
		}
		col := t.entering(limit)
		if col < 0 {
			return nil
		}
		row := t.leaving(col)
		if row < 0 {
			return errUnbounded
		}
		t.pivot(row, col)
		*pivots++
		if s.ring != nil {
			s.ring.Emit(trace.Record{
				Event:     trace.EventPivot,
				Attempt:   1,
				Iteration: *pivots,
				Objective: t.a[t.rows][t.cols-1],
			})
		}
	}
}
