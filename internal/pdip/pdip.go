// Package pdip implements the software primal–dual interior-point method of
// §3.1 — the baseline the paper's crossbar solver is measured against.
//
// The primal/dual pair in slack form (Eq. 6):
//
//	max cᵀx  s.t. A·x + w = b,  x, w ≥ 0
//	min bᵀy  s.t. Aᵀ·y − z = c, y, z ≥ 0
//
// Each iteration solves the Newton system (Eq. 9) for the step directions
// (Δx, Δy, Δw, Δz), applies the damped step of Eq. 10/11, and recenters with
// the µ rule of Eq. 8 until primal infeasibility, dual infeasibility, and the
// duality gap all fall below their tolerances.
//
// Two Newton-system backends are provided:
//
//   - NewtonFull assembles the full 2(n+m) system of Eq. 12 and solves it by
//     dense LU — the O(N³)-per-iteration baseline of §3.5.
//   - NewtonReduced eliminates Δz and Δw to give an (n+m) reduced KKT system
//     — the cheaper software variant.
package pdip

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"

	"github.com/memlp/memlp/internal/cone"
	"github.com/memlp/memlp/internal/engine"
	"github.com/memlp/memlp/internal/linalg"
	"github.com/memlp/memlp/internal/lp"
	"github.com/memlp/memlp/internal/trace"
)

// NewtonBackend selects how the per-iteration Newton system is solved.
type NewtonBackend int

const (
	// NewtonFull solves the full 2(n+m) system of Eq. 12 with dense LU.
	NewtonFull NewtonBackend = iota + 1
	// NewtonReduced solves the (n+m) reduced KKT system.
	NewtonReduced
)

// String implements fmt.Stringer.
func (b NewtonBackend) String() string {
	switch b {
	case NewtonFull:
		return "full-lu"
	case NewtonReduced:
		return "reduced-kkt"
	default:
		return fmt.Sprintf("NewtonBackend(%d)", int(b))
	}
}

// Solver is the software PDIP baseline. A Solver is safe for concurrent use;
// solves serialize on an internal mutex so the Newton-system workspace (the
// assembled matrix, LU buffers, and direction vectors) can be reused across
// iterations and across solves of same-shaped problems.
type Solver struct {
	tol     lp.Tolerances
	backend NewtonBackend

	mu sync.Mutex
	ws workspace
	// warmX/warmY, when non-nil, seed subsequent solves from a prior
	// primal/dual point instead of the all-ones start (see SetWarmStart).
	warmX, warmY linalg.Vector
	// ring records the iteration trace under mu; nil when tracing is off.
	ring *trace.Ring
}

// warmStartFloor is the strict-interior safeguard for warm-started iterates:
// a converged previous solution sits on the boundary (y ≈ 0 on inactive rows,
// z ≈ 0 on basic variables), and an interior-point step from an exactly-
// boundary point stalls. Well above the iteration floor (1e-14), small enough
// to keep the seed close to the previous optimum.
const warmStartFloor = 1e-6

// SetWarmStart seeds subsequent solves from a previously computed primal/dual
// point (typically Result.X and Result.Y of an earlier solve of a nearby
// problem). The slacks are re-derived from the new problem data (w = b − A·x,
// z = Aᵀ·y − c) and the seed is clamped to the strict interior, orthant rows
// by warmStartFloor and second-order-cone rows via the cone interior clamp.
// The warm start persists across solves until replaced or cleared; passing
// nil for either vector clears it. Dimension mismatches against a subsequent
// problem fail that solve with lp.ErrInvalid; non-finite entries silently
// fall back to the cold start.
func (s *Solver) SetWarmStart(x0, y0 linalg.Vector) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if x0 == nil || y0 == nil {
		s.warmX, s.warmY = nil, nil
		return
	}
	s.warmX = append(s.warmX[:0], x0...)
	s.warmY = append(s.warmY[:0], y0...)
}

// applyWarmStart overwrites the all-ones starting iterate with the stored
// warm point when one is set and usable. Callers must hold s.mu with the
// workspace prepared for p.
func (s *Solver) applyWarmStart(p *lp.Problem, x, y, w, z linalg.Vector) error {
	if s.warmX == nil || s.warmY == nil {
		return nil
	}
	if len(s.warmX) != len(x) || len(s.warmY) != len(y) {
		return fmt.Errorf("%w: warm start dimensions %d vars / %d duals, problem has %d vars / %d constraints",
			lp.ErrInvalid, len(s.warmX), len(s.warmY), len(x), len(y))
	}
	if !allFinite(s.warmX) || !allFinite(s.warmY) {
		return nil
	}
	copy(x, s.warmX)
	copy(y, s.warmY)
	// Slacks at zero residual for the NEW problem data: w = b − A·x,
	// z = Aᵀ·y − c. Dimensions are pre-checked, so the Into errors cannot
	// fire.
	_ = p.A.MatVecInto(w, x)
	for i := range w {
		w[i] = p.B[i] - w[i]
	}
	_ = p.A.MatVecTransposeInto(z, y)
	for i := range z {
		z[i] -= p.C[i]
	}
	clampFloor(x, warmStartFloor)
	clampFloor(z, warmStartFloor)
	if blocks := s.ws.blocks; len(blocks) > 0 {
		clampFloorOrthant(y, s.ws.socRow, warmStartFloor)
		clampFloorOrthant(w, s.ws.socRow, warmStartFloor)
		cone.ClampInterior(y, blocks, warmStartFloor)
		cone.ClampInterior(w, blocks, warmStartFloor)
	} else {
		clampFloor(y, warmStartFloor)
		clampFloor(w, warmStartFloor)
	}
	return nil
}

// Option configures the solver.
type Option func(*Solver)

// WithTolerances overrides the stopping parameters.
func WithTolerances(t lp.Tolerances) Option {
	return func(s *Solver) { s.tol = t }
}

// WithBackend selects the Newton-system backend.
func WithBackend(b NewtonBackend) Option {
	return func(s *Solver) { s.backend = b }
}

// WithTrace enables per-iteration trace recording into a bounded ring of
// the given capacity (<= 0 means trace.DefaultCapacity); the trajectory is
// returned as engine.Result.Trace.
func WithTrace(capacity int) Option {
	return func(s *Solver) { s.ring = trace.NewRing(capacity) }
}

// New returns a software PDIP solver.
func New(opts ...Option) (*Solver, error) {
	s := &Solver{tol: lp.DefaultTolerances(), backend: NewtonFull}
	for _, o := range opts {
		o(s)
	}
	s.tol = s.tol.WithDefaults()
	if err := s.tol.Validate(); err != nil {
		return nil, err
	}
	if s.backend != NewtonFull && s.backend != NewtonReduced {
		return nil, fmt.Errorf("%w: unknown backend %d", lp.ErrInvalid, int(s.backend))
	}
	return s, nil
}

// Solve runs the PDIP iteration on p.
func (s *Solver) Solve(p *lp.Problem) (*engine.Result, error) {
	return s.SolveContext(context.Background(), p)
}

// SolveContext runs the PDIP iteration on p, honoring cancellation and
// deadlines: the context is checked once per iteration, and an interrupted
// solve returns its partial iterate with lp.StatusCanceled alongside the
// wrapped context error.
func (s *Solver) SolveContext(ctx context.Context, p *lp.Problem) (*engine.Result, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	start := engine.WallClock()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ring != nil {
		s.ring.Reset()
	}
	n, m := p.NumVariables(), p.NumConstraints()
	s.ws.prepare(p, s.backend)
	rho, sigma := s.ws.rho, s.ws.sigma

	// Arbitrary strictly positive start (§3.1: "initialized as arbitrary
	// vectors"); all-ones is the conventional choice. Cone blocks of w and
	// y start at the Jordan identity e = (1, 0, …, 0) instead — all-ones is
	// not interior to a second-order cone of dimension ≥ 2.
	x := onesVector(n)
	w := onesVector(m)
	y := onesVector(m)
	z := onesVector(n)
	blocks := s.ws.blocks
	conic := len(blocks) > 0
	nu := float64(n + m)
	if conic {
		socRows := 0
		for _, blk := range blocks {
			socRows += blk.Dim
		}
		// µ's degree: n orthant pairs on x∘z, one orthant pair per
		// orthant row, and rank 1 per second-order cone block.
		nu = float64(n + (m - socRows) + len(blocks))
		cone.InitInterior(w, blocks)
		cone.InitInterior(y, blocks)
	}
	if err := s.applyWarmStart(p, x, y, w, z); err != nil {
		return nil, err
	}

	res := &engine.Result{Status: lp.StatusIterationLimit}
	var ctxErr error
	for iter := 1; iter <= s.tol.MaxIterations; iter++ {
		if err := ctx.Err(); err != nil {
			res.Status = lp.StatusCanceled
			ctxErr = fmt.Errorf("pdip: solve canceled at iteration %d: %w", iter, err)
			break
		}
		res.Iterations = iter

		if err := primalResidualInto(rho, p, x, w); err != nil { // b − A·x − w
			return nil, err
		}
		if err := dualResidualInto(sigma, p, y, z); err != nil { // c − Aᵀ·y + z
			return nil, err
		}
		gap := dualityGap(x, z, y, w)

		res.PrimalInfeasibility = rho.NormInf()
		res.DualInfeasibility = sigma.NormInf()
		res.DualityGap = gap
		if conic {
			res.ConeInfeasibility = slackConeInfeasibility(&s.ws, rho, w)
		}

		if res.PrimalInfeasibility <= s.tol.PrimalFeasTol &&
			res.DualInfeasibility <= s.tol.DualFeasTol &&
			gap <= s.tol.GapTol {
			res.Status = lp.StatusOptimal
			break
		}
		if x.NormInf() > s.tol.BlowupLimit {
			res.Status = lp.StatusUnbounded
			break
		}
		if y.NormInf() > s.tol.BlowupLimit {
			res.Status = lp.StatusInfeasible
			break
		}

		mu := s.tol.Delta * gap / nu // Eq. 8

		if conic && !s.ws.updateScalings(w, y) {
			res.Status = lp.StatusNumericalFailure
			break
		}
		var dx, dy, dw, dz linalg.Vector
		var err error
		switch s.backend {
		case NewtonFull:
			dx, dy, dw, dz, err = s.ws.solveNewtonFull(x, y, w, z, rho, sigma, mu)
		case NewtonReduced:
			dx, dy, dw, dz, err = s.ws.solveNewtonReduced(x, y, w, z, rho, sigma, mu)
		}
		if err != nil {
			if errors.Is(err, linalg.ErrSingular) {
				res.Status = lp.StatusNumericalFailure
				break
			}
			return nil, err
		}

		var theta float64
		if conic {
			theta = stepLengthConic(s.tol.StepScale, &s.ws, x, dx, y, dy, w, dw, z, dz)
		} else {
			theta = stepLength(s.tol.StepScale, [][2]linalg.Vector{
				{x, dx}, {y, dy}, {w, dw}, {z, dz},
			})
		}
		if s.ring != nil {
			s.ring.Emit(trace.Record{
				Event:               trace.EventIteration,
				Attempt:             1,
				Iteration:           iter,
				Mu:                  mu,
				DualityGap:          gap,
				PrimalInfeasibility: res.PrimalInfeasibility,
				DualInfeasibility:   res.DualInfeasibility,
				ConeInfeasibility:   res.ConeInfeasibility,
				Theta:               theta,
			})
		}
		if err := x.AxpyInPlace(theta, dx); err != nil {
			return nil, err
		}
		if err := y.AxpyInPlace(theta, dy); err != nil {
			return nil, err
		}
		if err := w.AxpyInPlace(theta, dw); err != nil {
			return nil, err
		}
		if err := z.AxpyInPlace(theta, dz); err != nil {
			return nil, err
		}
		clampPositive(x)
		clampPositive(z)
		if conic {
			clampPositiveOrthant(y, s.ws.socRow)
			clampPositiveOrthant(w, s.ws.socRow)
			cone.ClampInterior(y, blocks, 1e-14)
			cone.ClampInterior(w, blocks, 1e-14)
		} else {
			clampPositive(y)
			clampPositive(w)
		}
	}

	res.X, res.Y, res.W, res.Z = x, y, w, z
	obj, err := p.Objective(x)
	if err != nil {
		return nil, err
	}
	res.Objective = obj
	if s.ring != nil {
		s.ring.Emit(trace.Record{
			Event:               trace.EventDone,
			Status:              res.Status.String(),
			Attempt:             1,
			Iteration:           res.Iterations,
			DualityGap:          res.DualityGap,
			PrimalInfeasibility: res.PrimalInfeasibility,
			DualInfeasibility:   res.DualInfeasibility,
			ConeInfeasibility:   res.ConeInfeasibility,
			Objective:           res.Objective,
		})
		res.Trace = s.ring.Snapshot()
	}
	res.WallTime = engine.WallSince(start)
	return res, ctxErr
}

// primalResidualInto computes b − A·x − w into dst (length m).
func primalResidualInto(dst linalg.Vector, p *lp.Problem, x, w linalg.Vector) error {
	if err := p.A.MatVecInto(dst, x); err != nil {
		return err
	}
	for i := range dst {
		dst[i] = p.B[i] - dst[i] - w[i]
	}
	return nil
}

// dualResidualInto computes c − Aᵀ·y + z into dst (length n).
func dualResidualInto(dst linalg.Vector, p *lp.Problem, y, z linalg.Vector) error {
	if err := p.A.MatVecTransposeInto(dst, y); err != nil {
		return err
	}
	for i := range dst {
		dst[i] = p.C[i] - dst[i] + z[i]
	}
	return nil
}

// dualityGap returns zᵀx + yᵀw.
func dualityGap(x, z, y, w linalg.Vector) float64 {
	zx, _ := z.Dot(x)
	yw, _ := y.Dot(w)
	return zx + yw
}

// stepLength implements Eq. 11: θ = r · min(1, 1/max(−Δv_i/v_i)) where the
// max runs over all components of all variable/direction pairs with Δv < 0.
func stepLength(r float64, pairs [][2]linalg.Vector) float64 {
	maxRatio := 0.0
	for _, pr := range pairs {
		v, dv := pr[0], pr[1]
		for i := range v {
			if dv[i] < 0 && v[i] > 0 {
				if ratio := -dv[i] / v[i]; ratio > maxRatio {
					maxRatio = ratio
				}
			}
		}
	}
	if maxRatio <= 1 {
		return r * 1 // full (damped) step keeps all variables positive
	}
	return r / maxRatio
}

// stepLengthConic extends the Eq. 11 ratio test to cone blocks: x and z use
// the componentwise ratio everywhere, y and w only on orthant rows, and each
// cone block contributes 1/θ_exit from the exact quadratic boundary step.
func stepLengthConic(r float64, ws *workspace, x, dx, y, dy, w, dw, z, dz linalg.Vector) float64 {
	maxRatio := 0.0
	scan := func(v, dv linalg.Vector, orthantOnly bool) {
		for i := range v {
			if orthantOnly && ws.socRow[i] >= 0 {
				continue
			}
			if dv[i] < 0 && v[i] > 0 {
				if ratio := -dv[i] / v[i]; ratio > maxRatio {
					maxRatio = ratio
				}
			}
		}
	}
	scan(x, dx, false)
	scan(z, dz, false)
	scan(y, dy, true)
	scan(w, dw, true)
	if ratio := cone.MaxStepRatio(y, dy, ws.blocks); ratio > maxRatio {
		maxRatio = ratio
	}
	if ratio := cone.MaxStepRatio(w, dw, ws.blocks); ratio > maxRatio {
		maxRatio = ratio
	}
	if maxRatio <= 1 {
		return r
	}
	return r / maxRatio
}

// slackConeInfeasibility measures the worst cone violation of the true slack
// b − A·x = ρ + w over the cone blocks, using the workspace scratch.
func slackConeInfeasibility(ws *workspace, rho, w linalg.Vector) float64 {
	var worst float64
	for _, blk := range ws.blocks {
		s := ws.conePinv[blk.Start : blk.Start+blk.Dim]
		for i := range s {
			s[i] = rho[blk.Start+i] + w[blk.Start+i]
		}
		if d := cone.Dist(s); d > worst {
			worst = d
		}
	}
	return worst
}

// clampPositive nudges non-positive entries to a tiny positive value; the
// damped step keeps variables positive in exact arithmetic, and this guards
// the X⁻¹, Y⁻¹ scalings against rounding.
func clampPositive(v linalg.Vector) {
	const floor = 1e-14
	for i, x := range v {
		if x < floor {
			v[i] = floor
		}
	}
}

// clampPositiveOrthant is clampPositive restricted to orthant rows; cone
// rows are restored by cone.ClampInterior instead (tail components of a
// second-order cone block are legitimately negative).
func clampPositiveOrthant(v linalg.Vector, socRow []int) {
	const floor = 1e-14
	for i, x := range v {
		if socRow[i] < 0 && x < floor {
			v[i] = floor
		}
	}
}

// clampFloor raises every entry of v below floor up to it (the warm-start
// analogue of clampPositive, with a caller-chosen floor).
func clampFloor(v linalg.Vector, floor float64) {
	for i, x := range v {
		if x < floor {
			v[i] = floor
		}
	}
}

// clampFloorOrthant is clampFloor restricted to orthant rows; cone rows are
// restored by cone.ClampInterior instead.
func clampFloorOrthant(v linalg.Vector, socRow []int, floor float64) {
	for i, x := range v {
		if socRow[i] < 0 && x < floor {
			v[i] = floor
		}
	}
}

func allFinite(v linalg.Vector) bool {
	for _, e := range v {
		if math.IsNaN(e) || math.IsInf(e, 0) {
			return false
		}
	}
	return true
}

func onesVector(n int) linalg.Vector {
	v := linalg.NewVector(n)
	v.Fill(1)
	return v
}
