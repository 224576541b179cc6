package core

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"github.com/memlp/memlp/internal/crossbar"
	"github.com/memlp/memlp/internal/engine"
	"github.com/memlp/memlp/internal/linalg"
	"github.com/memlp/memlp/internal/lp"
	"github.com/memlp/memlp/internal/trace"
)

// LargeScaleSolver is Algorithm 2: the memristor crossbar-based linear
// program solver for large-scale operations (§3.4). Instead of one
// (3n+3m+q)-dimensional system per iteration it uses two much smaller ones:
//
//	M1·[Δx; Δy; Δp] = r1    (Eq. 16c/16d — see below)
//	M2·[Δz; Δw]     = r2    where M2 = diag(X, Y) (Eq. 16b)
//
// # Interpreting Eq. 16c
//
// The paper writes M1 = [A RU; RL Aᵀ] where RU/RL hold "very small" values
// that make the block matrix non-singular. Read literally (RU = εI with tiny
// ε), the system is wildly unstable for m ≠ n: the component of the primal
// residual outside range(A) is dumped into Δy amplified by 1/ε (we keep that
// literal mode available as an ablation — Options.LiteralFillers). The
// structure the paper draws, however, is exactly the reduced Newton (KKT)
// system obtained by eliminating Δw and Δz from Eq. 9:
//
//	⎡ A      −Y⁻¹W ⎤ ⎡Δx⎤ = ⎡ ρ − Y⁻¹(µ1 − YWe) ⎤
//	⎣ X⁻¹Z    Aᵀ   ⎦ ⎣Δy⎦   ⎣ σ + X⁻¹(µ1 − XZe) ⎦
//
// whose off-diagonal blocks are diagonal matrices of small values (z/x and
// w/y shrink along the central path) — precisely "RU and RL with very small
// values". X⁻¹Z is non-negative and maps directly; −Y⁻¹W maps through the
// paper's own Δp mirror-variable trick (Eq. 13) using Δp = −Δy. This reading
// is stable, keeps O(N) per-iteration coefficient updates (one diagonal cell
// per row, via single-cell in-place writes), and converges to the true
// optimum; it is the default.
//
// A constant step length θ is used (§3.4) together with the re-solve-on-
// failure "double checking" scheme (§4.3): fresh writes draw fresh variation,
// so reprogramming and solving again usually recovers.
type LargeScaleSolver struct {
	opts Options

	// Persistent per-handle state: the two fabrics (slots[0] holds M1,
	// slots[1] M2) and the M1/M2 mirrors survive across solves so
	// same-shaped problems pay no rebuild cost. (Each solve still
	// re-Programs the arrays, which redraws variation — the double-checking
	// scheme's fresh-write semantics are preserved.) A LargeScaleSolver is
	// safe for concurrent use; solves serialize on mu.
	mu    sync.Mutex
	sys   *lsSystem
	m2    *linalg.Matrix
	slots [2]fabricSlot
	// tr records the iteration trace under mu; nil when tracing is off.
	tr *traceState
}

// NewLargeScaleSolver returns an Algorithm 2 solver.
func NewLargeScaleSolver(opts Options) (*LargeScaleSolver, error) {
	opts = opts.withDefaults()
	if err := opts.validate(); err != nil {
		return nil, err
	}
	return &LargeScaleSolver{opts: opts, tr: newTraceState(opts)}, nil
}

// Solve runs Algorithm 2 on p, re-solving once when an attempt fails to
// converge.
func (s *LargeScaleSolver) Solve(p *lp.Problem) (*engine.Result, error) {
	return s.SolveContext(context.Background(), p)
}

// SolveContext runs Algorithm 2 on p, honoring cancellation and deadlines:
// the context is checked once per iteration and between re-solve attempts.
// An interrupted solve returns its partial iterate with lp.StatusCanceled
// alongside the wrapped context error.
func (s *LargeScaleSolver) SolveContext(ctx context.Context, p *lp.Problem) (*engine.Result, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	// Algorithm 2's two-phase M1/M2 split carries the scalar w/y couplings in
	// its reduced matrices; the dense NT blocks do not fit that layout.
	if p.IsConic() {
		return nil, fmt.Errorf("core: large-scale solver: %w", lp.ErrConicUnsupported)
	}
	start := engine.WallClock()
	s.mu.Lock()
	defer s.mu.Unlock()
	return runRecoveryLadder(ctx, p, s.opts, start, ladderFuncs{
		attempt: func(ctx context.Context) (*engine.Result, error, error) {
			return s.solveOnce(ctx, p)
		},
		slots:    []*fabricSlot{&s.slots[0], &s.slots[1]},
		resolves: maxResolves,
		// Double-checking (§4.3): without a recovery policy a failed attempt
		// retries on freshly built fabrics, so a fault in the array itself
		// cannot persist across attempts. Successful solves keep reusing
		// the cached fabrics.
		fresh: !s.opts.Recovery,
		tr:    s.tr,
	})
}

// lsSystem holds the first system M1. Columns are [Δx(n) | Δy(m) | Δp(q)]
// and rows [primal(m) | dual(n) | Δp consistency(q)], the sign split with
// its Δp block right after Δy: every column of A with a negative entry gets
// an x-mirror Δp, and every row of A gets a y-mirror Δp (the y-mirrors
// carry both the |negative| Aᵀ entries and the −Y⁻¹W diagonal).
type lsSystem struct {
	signSplit
	eps     float64
	literal bool
	matrix  *linalg.Matrix
}

// newLSSystemInto builds M1 at the initial interior point (x, y, w, z). A
// non-nil prev is recycled: its matrix and index slices keep their capacity
// across problems of any shape. Pass nil to allocate fresh.
func newLSSystemInto(prev *lsSystem, p *lp.Problem, regularization float64, literal bool, x, y, w, z linalg.Vector) (*lsSystem, error) {
	n, m := p.NumVariables(), p.NumConstraints()
	l := prev
	if l == nil {
		l = &lsSystem{}
	}
	l.literal = literal
	// Every constraint gets a y-mirror: it carries |negative| Aᵀ entries
	// and, in the default (reduced-KKT) mode, the w/y diagonal.
	l.assign(p.A, n+m, func(int) bool { return true })
	l.matrix = l.matrix.Reshape(l.size, l.size)

	var sum float64
	for i := 0; i < m; i++ {
		for _, v := range p.A.RawRow(i) {
			if v < 0 {
				sum -= v
			} else {
				sum += v
			}
		}
	}
	l.eps = regularization * sum / float64(n*m)
	if l.eps == 0 {
		l.eps = regularization
	}

	// A′·Δx + A″·Δp and Aᵀ′·Δy + Aᵀ″·Δp with the Δp consistency rows, then
	// the off-diagonal coupling blocks.
	l.write(l.matrix, p.A)
	l.setCoupling(l.matrix, x, y, w, z)

	if !l.matrix.AllNonNegative() {
		return nil, fmt.Errorf("core: internal error: M1 has negative entries")
	}
	return l, nil
}

// setCoupling writes the RU/RL slots of M1 into dst. In the default mode
// these are the reduced-KKT diagonals: w_i/y_i on the y-mirror column of
// primal row i (realizing −Y⁻¹W·Δy), and z_j/x_j on the x column of dual
// row j (realizing X⁻¹Z·Δx). In literal mode they are the paper's fixed εI
// fillers.
func (l *lsSystem) setCoupling(dst *linalg.Matrix, x, y, w, z linalg.Vector) {
	if l.literal {
		if l.m >= l.n {
			for i := 0; i < l.m; i++ {
				dst.Set(l.rowA(i), l.colY(i), l.eps)
			}
		}
		if l.n >= l.m {
			for j := 0; j < l.n; j++ {
				dst.Set(l.rowAT(j), l.colX(j), l.eps)
			}
		}
		return
	}
	for i := 0; i < l.m; i++ {
		dst.Set(l.rowA(i), l.colP(l.pOfY[i]), capAt(w[i]/y[i], couplingCap))
	}
	for j := 0; j < l.n; j++ {
		dst.Set(l.rowAT(j), l.colX(j), capAt(z[j]/x[j], couplingCap))
	}
}

// couplingCap bounds the reduced-KKT diagonal coefficients: the crossbar's
// finite conductance range cannot represent unbounded w/y or z/x ratios, and
// a capped diagonal only over-damps the corresponding direction.
const couplingCap = 1e4

// couplingUpdates pushes the per-iteration coupling coefficients to the
// fabric: one single-cell in-place write per row — O(N) writes total.
func (l *lsSystem) couplingUpdates(fab Fabric, x, y, w, z linalg.Vector) error {
	if l.literal {
		return nil // fillers are static
	}
	for i := 0; i < l.m; i++ {
		v := capAt(w[i]/y[i], couplingCap)
		l.matrix.Set(l.rowA(i), l.colP(l.pOfY[i]), v)
		if err := fab.UpdateCellInPlace(l.rowA(i), l.colP(l.pOfY[i]), v); err != nil {
			return err
		}
	}
	for j := 0; j < l.n; j++ {
		v := capAt(z[j]/x[j], couplingCap)
		l.matrix.Set(l.rowAT(j), l.colX(j), v)
		if err := fab.UpdateCellInPlace(l.rowAT(j), l.colX(j), v); err != nil {
			return err
		}
	}
	return nil
}

func capAt(v, cap float64) float64 {
	if v > cap {
		return cap
	}
	return v
}

// solveOnce runs one Algorithm 2 attempt. It returns (result, ctxErr, err):
// ctxErr is non-nil when the attempt was interrupted by the context (the
// result then carries the partial iterate with lp.StatusCanceled); err is a
// hard failure with no usable result. Callers must hold s.mu.
func (s *LargeScaleSolver) solveOnce(ctx context.Context, p *lp.Problem) (*engine.Result, error, error) {
	n, m := p.NumVariables(), p.NumConstraints()
	tol := s.opts.Tol
	theta := s.opts.ConstantStep

	// Digital presolve: row equilibration (see equilibrate in solver.go).
	orig := p
	p, rowScales := equilibrate(p)

	// The second system's state s2 = [z, w] is one vector, updated as one
	// with the fabric's Δ, like s1 below. base2, its residual base, is
	// rebuilt in full every iteration.
	x := linalg.Ones(n)
	y := linalg.Ones(m)
	s2 := linalg.Ones(n + m)
	z := s2[0:n]
	w := s2[n : n+m]
	base2 := linalg.NewVector(n + m)

	sys1, err := newLSSystemInto(s.sys, p, s.opts.Regularization, s.opts.LiteralFillers, x, y, w, z)
	if err != nil {
		return nil, nil, err
	}
	s.sys = sys1
	// Each fabric is rebuilt only when its system outgrows it, as for
	// Algorithm 1.
	fab1, err := s.slots[0].ensure(s.opts.Fabric, sys1.size)
	if err != nil {
		return nil, nil, fmt.Errorf("core: building fabric 1: %w", err)
	}
	s.slots[0].begin()
	if err := fab1.Program(sys1.matrix); err != nil {
		return nil, nil, fmt.Errorf("core: programming M1: %w", err)
	}

	// M2 = diag(X, Y): columns [Δz | Δw].
	fab2, err := s.slots[1].ensure(s.opts.Fabric, n+m)
	if err != nil {
		return nil, nil, fmt.Errorf("core: building fabric 2: %w", err)
	}
	// Rebase the trace accumulators on the combined counters of BOTH
	// fabrics (fresh double-check fabrics restart at zero).
	s.slots[1].begin()
	s.tr.beginAttempt(s.slots[0].base.Add(s.slots[1].base))
	s.m2 = s.m2.Reshape(n+m, n+m)
	m2 := s.m2
	for i := 0; i < n; i++ {
		m2.Set(i, i, x[i])
	}
	for i := 0; i < m; i++ {
		m2.Set(n+i, n+i, y[i])
	}
	if err := fab2.Program(m2); err != nil {
		return nil, nil, fmt.Errorf("core: programming M2: %w", err)
	}

	// Persistent extended state for system 1 (mirrors evolve with the
	// fabric's Δp, same reasoning as Algorithm 1).
	s1 := sys1.stateVector(x, y)
	x = s1[0:n]
	y = s1[n : n+m]

	// M1's residual base: the primal and dual rows are rebuilt every
	// iteration, the Δp rows stay zero.
	base1 := linalg.NewVector(sys1.size)
	res := &engine.Result{Status: lp.StatusIterationLimit, MatrixSize: sys1.size}
	best := snapshot{score: infNaN()}
	stop := newStopRule(tol, 2*stallWindow)
	var ctxErr error

	for iter := 1; iter <= tol.MaxIterations; iter++ {
		if err := ctx.Err(); err != nil {
			res.Status = lp.StatusCanceled
			ctxErr = fmt.Errorf("core: solve canceled at iteration %d: %w", iter, err)
			break
		}
		res.Iterations = iter

		gap := lp.DualityGap(x, z, y, w)
		mu := tol.Delta * gap / float64(n+m)

		// --- first half-step: Δx, Δy from M1 (one fused residual + solve).
		// The digital base (O(N) to assemble) is subtracted in analog:
		//   primal rows: base = b − w − µ/y,  M1·s1 = A·x − (W/Y)·y = A·x − w
		//   dual rows:   base = c + z + µ/x,  M1·s1 = Aᵀ·y + (Z/X)·x = Aᵀ·y + z
		// (in literal-filler mode the product carries ε·y / ε·x instead of
		// the coupling terms; the same bases are used, as Eq. 17a says).
		for i := 0; i < m; i++ {
			base1[sys1.rowA(i)] = p.B[i] - w[i] - mu/y[i]
		}
		for j := 0; j < n; j++ {
			base1[sys1.rowAT(j)] = p.C[j] + z[j] + mu/x[j]
		}
		r1, err := fab1.MatVecResidual(base1, s1, nil)
		if err != nil {
			return nil, nil, fmt.Errorf("core: M1 residual: %w", err)
		}

		// Measured residuals for the stopping rule (O(N) digital fix-ups):
		// ρ = r1_A + µ/y − w and σ = r1_AT − µ/x + z.
		var pinf, dinf float64
		for i := 0; i < m; i++ {
			v := r1[sys1.rowA(i)] + mu/y[i] - w[i]
			if v < 0 {
				v = -v
			}
			if v > pinf {
				pinf = v
			}
		}
		for j := 0; j < n; j++ {
			v := r1[sys1.rowAT(j)] - mu/x[j] + z[j]
			if v < 0 {
				v = -v
			}
			if v > dinf {
				dinf = v
			}
		}
		res.PrimalInfeasibility = pinf
		res.DualInfeasibility = dinf
		res.DualityGap = gap

		changed := best.consider(pinf, dinf, gap, x, y, w, z)
		if status, done := stop.check(pinf, dinf, gap, x, y, &best, changed); done {
			res.Status = status
			break
		}

		ds1, err := fab1.Solve(r1)
		if err != nil {
			if errors.Is(err, crossbar.ErrSingular) {
				res.Status = lp.StatusNumericalFailure
				break
			}
			return nil, nil, fmt.Errorf("core: M1 analog solve: %w", err)
		}
		if !ds1.AllFinite() {
			res.Status = lp.StatusNumericalFailure
			break
		}
		dx := ds1[0:n]
		dy := ds1[n : n+m]
		// Constant step with a boundary safeguard: θ stays at the configured
		// constant unless that step would cross the positivity boundary
		// (Eq. 11 engaged only as a guard). A fully unguarded constant step
		// lets variables pin at the floor, where the w/y and z/x coupling
		// coefficients and the µ/y, µ/x bases diverge.
		theta1 := theta
		if guard := stepLength(0.95, [][2]linalg.Vector{{x, dx}, {y, dy}}); guard < theta1 {
			theta1 = guard
		}
		// Slew-rate limit: the summing amplifiers saturate, so one update
		// cannot move the state by more than a few times its own scale.
		// This bounds the damage of an ill-conditioned analog solve.
		if lim := slewLimit(s1, ds1); lim < theta1 {
			theta1 = lim
		}
		if s.tr.active() {
			s.tr.note(fab1.Counters().Add(fab2.Counters()))
			s.tr.emit(trace.Record{
				Event:               trace.EventIteration,
				Iteration:           iter,
				Mu:                  mu,
				DualityGap:          gap,
				PrimalInfeasibility: pinf,
				DualInfeasibility:   dinf,
				Theta:               theta1,
			})
		}
		if err := s1.AxpyInPlace(theta1, ds1); err != nil {
			return nil, nil, err
		}
		clampPositive(x, y)

		// --- second half-step: Δz, Δw from M2 = diag(X, Y) ---
		for i := 0; i < n; i++ {
			m2.Set(i, i, x[i])
		}
		for i := 0; i < m; i++ {
			m2.Set(n+i, n+i, y[i])
		}
		if err := reprogramDiag(fab2, m2); err != nil {
			return nil, nil, err
		}
		// r2 = [µ1 − XZe − Z∘Δx; µ1 − YWe − W∘Δy]: the cross terms restore
		// the Z·Δx / W·Δy couplings of Eq. 9c/9d; they are O(N) digital
		// element-wise products folded into the base, and the XZe/YWe
		// products are subtracted in analog.
		for i := 0; i < n; i++ {
			base2[i] = mu - z[i]*theta1*dx[i]
		}
		for i := 0; i < m; i++ {
			base2[n+i] = mu - w[i]*theta1*dy[i]
		}
		r2, err := fab2.MatVecResidual(base2, s2, nil)
		if err != nil {
			return nil, nil, fmt.Errorf("core: M2 residual: %w", err)
		}
		ds2, err := fab2.Solve(r2)
		if err != nil {
			if errors.Is(err, crossbar.ErrSingular) {
				res.Status = lp.StatusNumericalFailure
				break
			}
			return nil, nil, fmt.Errorf("core: M2 analog solve: %w", err)
		}
		if !ds2.AllFinite() {
			res.Status = lp.StatusNumericalFailure
			break
		}
		theta2 := theta
		if guard := stepLength(0.95, [][2]linalg.Vector{{z, ds2[0:n]}, {w, ds2[n : n+m]}}); guard < theta2 {
			theta2 = guard
		}
		if lim := slewLimit(s2, ds2); lim < theta2 {
			theta2 = lim
		}
		if err := s2.AxpyInPlace(theta2, ds2); err != nil {
			return nil, nil, err
		}
		clampPositive(z, w)

		// Refresh the coupling diagonals for the next iteration: one cell
		// per row, O(N) writes.
		if err := sys1.couplingUpdates(fab1, x, y, w, z); err != nil {
			return nil, nil, fmt.Errorf("core: updating M1 couplings: %w", err)
		}
	}
	s.tr.stopped(stop.reason(res.Status))
	s.slots[0].end(res)
	s.slots[1].end(res)
	if err := best.finish(res, orig, s.opts.Alpha, rowScales, x, y, w, z); err != nil {
		return nil, nil, err
	}
	return res, ctxErr, nil
}

// reprogramDiag refreshes the diagonal rows of M2 on the fabric from the
// mirror m2; each row holds exactly one cell, so this is the O(N)
// coefficient update.
func reprogramDiag(fab Fabric, m2 *linalg.Matrix) error {
	for i := 0; i < m2.Rows(); i++ {
		if err := fab.UpdateRow(i, m2.RawRow(i)); err != nil {
			return fmt.Errorf("core: updating M2 row: %w", err)
		}
	}
	return nil
}
