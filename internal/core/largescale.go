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

	// Persistent per-handle state: the two fabrics and the M1/M2 mirrors
	// survive across solves so same-shaped problems pay no rebuild cost.
	// (Each solve still re-Programs the arrays, which redraws variation —
	// the double-checking scheme's fresh-write semantics are preserved.)
	// A LargeScaleSolver is safe for concurrent use; solves serialize on mu.
	mu       sync.Mutex
	sys      *lsSystem
	m2       *linalg.Matrix
	fab1     Fabric
	fab1Size int
	fab2     Fabric
	fab2Size int
	diagRow  linalg.Vector
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

// Solve runs Algorithm 2 on p, retrying up to MaxResolves times when a solve
// fails to converge.
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
	s.tr.begin(0, 0)
	if s.opts.Recovery != nil {
		// The recovery ladder subsumes the double-check loop below as its
		// rung 1 (same MaxResolves budget) and adds remap + software rungs.
		res, err := runRecoveryLadder(ctx, p, s.opts, ladderFuncs{
			attempt: func(ctx context.Context) (*engine.Result, error, error) {
				return s.solveOnce(ctx, p)
			},
			census: s.censusBoth,
			remap:  s.remapFabrics,
			// No resetFresh: remap offsets must survive between attempts,
			// and solveOnce re-Programs (= fresh variation draws) anyway.
			event: s.tr.event,
		})
		if res != nil {
			res.WallTime = engine.WallSince(start)
			res.Trace = s.tr.finish(res)
		}
		return res, err
	}
	var last *engine.Result
	var counters crossbar.Counters
	for attempt := 0; attempt <= s.opts.MaxResolves; attempt++ {
		res, ctxErr, err := s.solveOnce(ctx, p)
		if err != nil {
			return nil, err
		}
		res.Resolves = attempt
		counters = counters.Add(res.Counters)
		res.Counters = counters
		res.WallTime = engine.WallSince(start)
		if ctxErr != nil {
			res.Trace = s.tr.finish(res)
			return res, ctxErr
		}
		switch res.Status {
		case lp.StatusOptimal, lp.StatusInfeasible, lp.StatusUnbounded:
			res.Trace = s.tr.finish(res)
			return res, nil
		}
		last = res
		if attempt < s.opts.MaxResolves {
			// The next loop turn is a double-check re-solve; mark it in the
			// trace with the status that forced it.
			s.tr.event(trace.EventResolve, res.Status.String())
		}
		// Double-checking (§4.3): a failed attempt retries on freshly built
		// fabrics, so a fault in the array itself cannot persist across
		// attempts. Successful solves keep reusing the cached fabrics.
		s.fab1, s.fab2 = nil, nil
		s.fab1Size, s.fab2Size = 0, 0
	}
	last.Trace = s.tr.finish(last)
	return last, nil
}

// Fabrics returns the fabrics Algorithm 2 keeps for its next solve: up to
// two, fewer before the first solve and after a failed double-check.
func (s *LargeScaleSolver) Fabrics() []Fabric {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []Fabric
	for _, fab := range []Fabric{s.fab1, s.fab2} {
		if fab != nil {
			out = append(out, fab)
		}
	}
	return out
}

// censusBoth tallies stuck cells across both of Algorithm 2's fabrics.
func (s *LargeScaleSolver) censusBoth() crossbar.FaultCensus {
	var c crossbar.FaultCensus
	for _, fab := range []Fabric{s.fab1, s.fab2} {
		if fr, ok := fab.(FaultReporter); ok {
			fc := fr.FaultCensus()
			c.StuckOn += fc.StuckOn
			c.StuckOff += fc.StuckOff
			c.Mapped += fc.Mapped
		}
	}
	return c
}

// remapFabrics asks both fabrics to dodge their stuck cells (rung 2).
func (s *LargeScaleSolver) remapFabrics() bool {
	moved := false
	for _, fab := range []Fabric{s.fab1, s.fab2} {
		if r, ok := fab.(Remapper); ok && r.RemapAvoidingFaults() {
			moved = true
		}
	}
	return moved
}

// lsSystem holds the first system M1. Columns are [Δx(n) | Δy(m) | Δp(q)]:
// every column of A with a negative entry gets an x-mirror Δp, and every
// row of A gets a y-mirror Δp (the y-mirrors carry both the |negative| Aᵀ
// entries and the −Y⁻¹W diagonal).
type lsSystem struct {
	n, m, q int
	size    int
	pOfX    []int // x-mirror index per variable, or -1
	pOfY    []int // y-mirror index per constraint (always assigned)
	eps     float64
	literal bool
	matrix  *linalg.Matrix
}

func (l *lsSystem) colX(j int) int  { return j }
func (l *lsSystem) colY(k int) int  { return l.n + k }
func (l *lsSystem) colP(k int) int  { return l.n + l.m + k }
func (l *lsSystem) rowA(i int) int  { return i }       // m rows: primal block
func (l *lsSystem) rowAT(i int) int { return l.m + i } // n rows: dual block
func (l *lsSystem) rowP(k int) int  { return l.m + l.n + k }

// newLSSystem builds M1 at the initial interior point (x, y, w, z).
func newLSSystem(p *lp.Problem, regularization float64, literal bool, x, y, w, z linalg.Vector) (*lsSystem, error) {
	return newLSSystemInto(nil, p, regularization, literal, x, y, w, z)
}

// newLSSystemInto is newLSSystem with storage reuse: when prev was built for
// a same-shaped problem its matrix and index slices are recycled. Pass nil
// to allocate fresh.
func newLSSystemInto(prev *lsSystem, p *lp.Problem, regularization float64, literal bool, x, y, w, z linalg.Vector) (*lsSystem, error) {
	n, m := p.NumVariables(), p.NumConstraints()
	l := prev
	if l == nil || l.n != n || l.m != m {
		l = &lsSystem{n: n, m: m, pOfX: make([]int, n), pOfY: make([]int, m)}
	}
	l.literal = literal

	q := 0
	for j := 0; j < n; j++ {
		l.pOfX[j] = -1
		for i := 0; i < m; i++ {
			if p.A.At(i, j) < 0 {
				l.pOfX[j] = q
				q++
				break
			}
		}
	}
	// Every constraint gets a y-mirror: it carries |negative| Aᵀ entries
	// and, in the default (reduced-KKT) mode, the w/y diagonal.
	for k := 0; k < m; k++ {
		l.pOfY[k] = q
		q++
	}
	l.q = q
	size := n + m + q
	if l.matrix == nil || l.size != size {
		l.size = size
		l.matrix = linalg.NewMatrix(size, size)
	} else {
		l.matrix.Zero()
	}

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

	mtx := l.matrix
	// Primal block rows: A′·Δx + A″·Δp(x-mirrors) [+ diagonal coupling].
	for i := 0; i < m; i++ {
		r := l.rowA(i)
		for j := 0; j < n; j++ {
			v := p.A.At(i, j)
			if v >= 0 {
				mtx.Set(r, l.colX(j), v)
			} else {
				mtx.Set(r, l.colP(l.pOfX[j]), -v)
			}
		}
	}
	// Dual block rows: Aᵀ′·Δy + Aᵀ″·Δp(y-mirrors) [+ diagonal coupling].
	for i := 0; i < n; i++ {
		r := l.rowAT(i)
		for k := 0; k < m; k++ {
			v := p.A.At(k, i)
			if v >= 0 {
				mtx.Set(r, l.colY(k), v)
			} else {
				mtx.Set(r, l.colP(l.pOfY[k]), -v)
			}
		}
	}
	// Consistency rows for Δp.
	for j := 0; j < n; j++ {
		if k := l.pOfX[j]; k >= 0 {
			mtx.Set(l.rowP(k), l.colX(j), 1)
			mtx.Set(l.rowP(k), l.colP(k), 1)
		}
	}
	for y0 := 0; y0 < m; y0++ {
		k := l.pOfY[y0]
		mtx.Set(l.rowP(k), l.colY(y0), 1)
		mtx.Set(l.rowP(k), l.colP(k), 1)
	}
	// Off-diagonal coupling blocks.
	l.setCoupling(mtx, x, y, w, z)

	if !mtx.AllNonNegative() {
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

// stateVector assembles s1 = [x, y, p] with all mirrors set consistently.
func (l *lsSystem) stateVector(x, y linalg.Vector) linalg.Vector {
	s := linalg.NewVector(l.size)
	copy(s[0:l.n], x)
	copy(s[l.n:l.n+l.m], y)
	for j := 0; j < l.n; j++ {
		if k := l.pOfX[j]; k >= 0 {
			s[l.colP(k)] = -x[j]
		}
	}
	for k0 := 0; k0 < l.m; k0++ {
		s[l.colP(l.pOfY[k0])] = -y[k0]
	}
	return s
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

	x := onesVector(n)
	y := onesVector(m)
	w := onesVector(m)
	z := onesVector(n)

	sys1, err := newLSSystemInto(s.sys, p, s.opts.Regularization, s.opts.LiteralFillers, x, y, w, z)
	if err != nil {
		return nil, nil, err
	}
	s.sys = sys1
	if s.fab1 == nil || s.fab1Size != sys1.size {
		fab, err := s.opts.Fabric(sys1.size)
		if err != nil {
			return nil, nil, fmt.Errorf("core: building fabric 1: %w", err)
		}
		s.fab1, s.fab1Size = fab, sys1.size
	}
	fab1 := s.fab1
	countersBase1 := fab1.Counters()
	if err := fab1.Program(sys1.matrix); err != nil {
		return nil, nil, fmt.Errorf("core: programming M1: %w", err)
	}

	// M2 = diag(X, Y): columns [Δz | Δw].
	if s.fab2 == nil || s.fab2Size != n+m {
		fab, err := s.opts.Fabric(n + m)
		if err != nil {
			return nil, nil, fmt.Errorf("core: building fabric 2: %w", err)
		}
		s.fab2, s.fab2Size = fab, n+m
	}
	fab2 := s.fab2
	countersBase2 := fab2.Counters()
	// Rebase the trace accumulators on the combined counters of BOTH
	// fabrics (fresh double-check fabrics restart at zero).
	s.tr.beginAttempt(countersBase1.Add(countersBase2))
	if s.m2 == nil || s.m2.Rows() != n+m {
		s.m2 = linalg.NewMatrix(n+m, n+m)
	} else {
		s.m2.Zero()
	}
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

	res := &engine.Result{Status: lp.StatusIterationLimit, MatrixSize: sys1.size}
	bestGap := infNaN()
	stall := 0
	prevNorm := 0.0
	best := snapshot{score: infNaN()}
	// The constant-θ split iteration converges more gradually than
	// Algorithm 1's damped Newton, so it gets twice the stall patience.
	stallWindow := 2 * s.opts.StallWindow
	var ctxErr error

	for iter := 1; iter <= tol.MaxIterations; iter++ {
		if err := ctx.Err(); err != nil {
			res.Status = lp.StatusCanceled
			ctxErr = fmt.Errorf("core: solve canceled at iteration %d: %w", iter, err)
			break
		}
		res.Iterations = iter

		gap := dualityGap(x, z, y, w)
		mu := tol.Delta * gap / float64(n+m)

		// --- first half-step: Δx, Δy from M1 (one fused residual + solve).
		// The digital base (O(N) to assemble) is subtracted in analog:
		//   primal rows: base = b − w − µ/y,  M1·s1 = A·x − (W/Y)·y = A·x − w
		//   dual rows:   base = c + z + µ/x,  M1·s1 = Aᵀ·y + (Z/X)·x = Aᵀ·y + z
		// (in literal-filler mode the product carries ε·y / ε·x instead of
		// the coupling terms; the same bases are used, as Eq. 17a says).
		base1 := linalg.NewVector(sys1.size)
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

		best.consider(pinf, dinf, gap, x, y, w, z)

		if pinf <= tol.PrimalFeasTol && dinf <= tol.DualFeasTol && gap <= tol.GapTol {
			res.Status = lp.StatusOptimal
			break
		}
		if x.NormInf() > tol.BlowupLimit {
			res.Status = lp.StatusUnbounded
			break
		}
		if y.NormInf() > tol.BlowupLimit {
			res.Status = lp.StatusInfeasible
			break
		}
		norm := x.NormInf()
		if yn := y.NormInf(); yn > norm {
			norm = yn
		}
		growing := norm > prevNorm*1.02
		prevNorm = norm
		if gap < bestGap*(1-1e-3) {
			bestGap = gap
			stall = 0
		} else if !growing {
			stall++
			if stall >= stallWindow {
				res.Status = lp.StatusOptimal
				break
			}
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
		if err := reprogramDiag(fab2, m2, n+m, &s.diagRow); err != nil {
			return nil, nil, err
		}
		s2 := linalg.Concat(z, w)
		// r2 = [µ1 − XZe − Z∘Δx; µ1 − YWe − W∘Δy]: the cross terms restore
		// the Z·Δx / W·Δy couplings of Eq. 9c/9d; they are O(N) digital
		// element-wise products folded into the base, and the XZe/YWe
		// products are subtracted in analog.
		base2 := linalg.NewVector(n + m)
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
		axpyAll(theta2, z, ds2[0:n], w, ds2[n:n+m])
		clampPositive(z, w)

		// Refresh the coupling diagonals for the next iteration: one cell
		// per row, O(N) writes.
		if err := sys1.couplingUpdates(fab1, x, y, w, z); err != nil {
			return nil, nil, fmt.Errorf("core: updating M1 couplings: %w", err)
		}
	}

	finalX, finalY, finalW, finalZ := x.Clone(), y.Clone(), w.Clone(), z.Clone()
	if res.Status == lp.StatusOptimal || res.Status == lp.StatusIterationLimit {
		if best.valid() {
			x, y, w, z = best.x, best.y, best.w, best.z
			res.PrimalInfeasibility = best.pinf
			res.DualInfeasibility = best.dinf
			res.DualityGap = best.gap
		}
	}
	res.X, res.Y, res.W, res.Z = x.Clone(), y.Clone(), w.Clone(), z.Clone()
	unscaleDual(res.Y, res.W, rowScales)
	obj, err := orig.Objective(res.X)
	if err != nil {
		return nil, nil, err
	}
	res.Objective = obj
	res.Counters = fab1.Counters().Sub(countersBase1).Add(fab2.Counters().Sub(countersBase2))

	// A budget-limited run that still passes the α-check is an acceptable
	// answer: the analog accuracy floor, not the budget, set its quality.
	if res.Status == lp.StatusOptimal || res.Status == lp.StatusIterationLimit {
		ok, err := orig.IsFeasible(res.X, s.opts.Alpha-1)
		if err != nil {
			return nil, nil, err
		}
		if !ok {
			res.Status = classifyRejected(finalX, finalY, finalW, finalZ)
		} else {
			res.Status = lp.StatusOptimal
		}
	}
	return res, ctxErr, nil
}

// reprogramDiag refreshes the diagonal rows of M2 on the fabric; each row
// holds exactly one cell, so this is the O(N) coefficient update. scratch is
// a caller-owned row buffer, reused (and kept all-zero between cells) to
// avoid allocating size vectors per iteration.
func reprogramDiag(fab Fabric, m2 *linalg.Matrix, size int, scratch *linalg.Vector) error {
	if cap(*scratch) < size {
		*scratch = linalg.NewVector(size)
	}
	row := (*scratch)[:size]
	for i := 0; i < size; i++ {
		row[i] = m2.At(i, i)
		err := fab.UpdateRow(i, row)
		row[i] = 0
		if err != nil {
			if errors.Is(err, crossbar.ErrTooLarge) {
				if err := fab.Program(m2); err != nil {
					return fmt.Errorf("core: reprogramming M2: %w", err)
				}
				return nil
			}
			return fmt.Errorf("core: updating M2 row: %w", err)
		}
	}
	return nil
}
