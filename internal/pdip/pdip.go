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

// SetWarmStart seeds subsequent solves from a previously computed primal/dual
// point (typically Result.X and Result.Y of an earlier solve of a nearby
// problem). lp.Problem.SeedWarmStart re-derives the slacks from the new
// problem data (w = b − A·x, z = Aᵀ·y − c) and clamps the seed to the strict
// interior. The warm start persists across solves until replaced or
// cleared; passing nil for either vector clears it. Dimension mismatches
// against a subsequent problem fail that solve with lp.ErrInvalid;
// non-finite entries silently fall back to the cold start.
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
	x := linalg.Ones(n)
	w := linalg.Ones(m)
	y := linalg.Ones(m)
	z := linalg.Ones(n)
	blocks := s.ws.cones.Blocks
	conic := s.ws.cones.Conic()
	// µ's degree: n orthant pairs on x∘z, and the cone layout's count over
	// the constraint rows, one per orthant row and one per cone block.
	nu := float64(n + s.ws.cones.Degree())
	cone.InitInterior(w, blocks)
	cone.InitInterior(y, blocks)
	if _, err := p.SeedWarmStart(s.warmX, s.warmY, nil, x, y, w, z); err != nil {
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
		gap := lp.DualityGap(x, z, y, w)

		res.PrimalInfeasibility = rho.NormInf()
		res.DualInfeasibility = sigma.NormInf()
		res.DualityGap = gap
		if conic {
			res.ConeInfeasibility = s.ws.cones.SlackDist(rho, w)
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

		if conic && !s.ws.cones.Update(w, y) {
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
		clampInterior(x, y, w, z, blocks, iterFloor)
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
			if orthantOnly && ws.cones.InCone(i) {
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
	if ratio := cone.MaxStepRatio(y, dy, ws.cones.Blocks); ratio > maxRatio {
		maxRatio = ratio
	}
	if ratio := cone.MaxStepRatio(w, dw, ws.cones.Blocks); ratio > maxRatio {
		maxRatio = ratio
	}
	if maxRatio <= 1 {
		return r
	}
	return r / maxRatio
}

// iterFloor is the floor the iterates are clamped to after each step: the
// damped step keeps them positive in exact arithmetic, and the floor
// guards the X⁻¹, Y⁻¹ scalings against rounding.
const iterFloor = 1e-14

// clampInterior restores the strict interior of the iterate: x, z and the
// orthant rows of y and w are raised to floor, and the cone blocks of y and
// w get the cone interior clamp (their tails are legitimately signed).
func clampInterior(x, y, w, z linalg.Vector, blocks []cone.Block, floor float64) {
	cone.FloorOrthant(x, nil, floor)
	cone.FloorOrthant(z, nil, floor)
	cone.FloorOrthant(y, blocks, floor)
	cone.FloorOrthant(w, blocks, floor)
	cone.ClampInterior(y, blocks, floor)
	cone.ClampInterior(w, blocks, floor)
}
