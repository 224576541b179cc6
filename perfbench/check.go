package main

import (
	"context"
	"errors"
	"fmt"
	"math"

	"github.com/memlp/memlp"
	"github.com/memlp/memlp/internal/linalg"
	"github.com/memlp/memlp/internal/pdhg"
)

// errCheck marks a run whose answers failed a check; the run still prints
// its result (with correct=false) and exits 1.
var errCheck = errors.New("answer check failed")

// refAgreeTol is how closely the pdip-reduced objective must match the
// simplex reference, relative to max(1, |ref|): both are exact software
// solves (pdip-reduced stops at a 1e-6 duality gap), so a wider gap means
// the reference itself is wrong.
const refAgreeTol = 1e-5

// quality is the outcome of the answer checks over one run's operations.
type quality struct {
	// failed counts operations that returned an error or a non-200
	// response; optimal counts answers with StatusOptimal.
	failed, optimal int
	// relErrSum is Σ |obj − ref| / max(1, |ref|) over optimal answers,
	// summed in operation order.
	relErrSum float64
}

// references solves every problem with simplex and with pdip-reduced and
// returns the simplex objectives, failing if the two disagree or either is
// not optimal. It runs outside all timing.
func references(ctx context.Context, probs []*memlp.Problem) ([]float64, error) {
	sx, err := memlp.NewSolver(memlp.EngineSimplex)
	if err != nil {
		return nil, err
	}
	pd, err := memlp.NewSolver(memlp.EnginePDIPReduced)
	if err != nil {
		return nil, err
	}
	refs := make([]float64, len(probs))
	for i, p := range probs {
		rs, err := sx.Solve(ctx, p)
		if err != nil {
			return nil, fmt.Errorf("simplex reference for %s: %w", p.Name(), err)
		}
		rp, err := pd.Solve(ctx, p)
		if err != nil {
			return nil, fmt.Errorf("pdip-reduced reference for %s: %w", p.Name(), err)
		}
		if rs.Status != memlp.StatusOptimal || rp.Status != memlp.StatusOptimal {
			return nil, fmt.Errorf("%w: reference for %s: simplex %v, pdip-reduced %v", errCheck, p.Name(), rs.Status, rp.Status)
		}
		if d := math.Abs(rs.Objective - rp.Objective); d > refAgreeTol*math.Max(1, math.Abs(rs.Objective)) {
			return nil, fmt.Errorf("%w: reference for %s: simplex %v and pdip-reduced %v disagree", errCheck, p.Name(), rs.Objective, rp.Objective)
		}
		refs[i] = rs.Objective
	}
	return refs, nil
}

// feasible re-checks an optimal answer against the true coefficients at the
// tolerance its engine certified it with. The crossbar engines accept
// A·x ≤ b per row within α−1 (§3.2), which Problem.IsFeasible tests. PDHG
// certifies the relative primal residual max(A·x − b)⁺ / (1 + ‖b‖∞) at
// pdhg.DefaultTolerances().PrimalFeasTol, with x ≥ 0 by projection; a
// per-row α test would be stricter than that certificate on rows with a
// small b.
func (w workload) feasible(in input, x []float64) bool {
	if w.name != pdhgTiled {
		ok, err := in.pub.IsFeasible(x, w.alpha()-1)
		return err == nil && ok
	}
	p := in.inner
	ax, err := p.A.MatVec(linalg.Vector(x))
	if err != nil {
		return false
	}
	var viol float64
	for i, v := range ax {
		viol = math.Max(viol, v-p.B[i])
	}
	for _, v := range x {
		if v < 0 {
			return false
		}
	}
	return viol/(1+p.B.NormInf()) <= pdhg.DefaultTolerances().PrimalFeasTol
}

// checkAnswers checks every operation's answer against its problem: an
// optimal answer must be feasible at its engine's certified tolerance. Its
// objective is compared with the reference and the error reported in
// obj_rel_err rather than gated: the crossbar engines certify feasibility
// only, and IsFeasible's slack has an absolute part, so on a row with a
// small b an α-feasible point can sit well above the optimum. Non-optimal
// statuses are not check failures either; they lower ok_frac.
func checkAnswers(ctx context.Context, w workload, ins []input, ops []opRecord) (quality, error) {
	var q quality
	probs := make([]*memlp.Problem, len(ins))
	for i, in := range ins {
		probs[i] = in.pub
	}
	refs, err := references(ctx, probs)
	if err != nil {
		for _, op := range ops {
			if op.failed {
				q.failed++
			}
		}
		return q, err
	}
	var bad []string
	for i, op := range ops {
		switch {
		case op.failed:
			q.failed++
			continue
		case op.status != memlp.StatusOptimal:
			continue
		}
		q.optimal++
		if !w.feasible(ins[i], op.x) {
			bad = append(bad, probs[i].Name())
		}
		q.relErrSum += math.Abs(op.objective-refs[i]) / math.Max(1, math.Abs(refs[i]))
	}
	if len(bad) > 0 {
		return q, fmt.Errorf("%w: %d optimal answers infeasible, first %s", errCheck, len(bad), bad[0])
	}
	return q, nil
}

// put adds the exact end-to-end metrics: modeled cost per operation and
// answer quality. Every sum runs in operation order.
func (q quality) put(m map[string]metricValue, ops []opRecord) {
	var hwNS int64
	var energy float64
	for _, op := range ops {
		hwNS += op.hwNS
		energy += op.energyJ
	}
	n := float64(len(ops))
	m["hw_us_per_op"] = metricValue{float64(hwNS) / n / 1e3, "us"}
	m["hw_uj_per_op"] = metricValue{energy / n * 1e6, "uJ"}
	relErr := 0.0
	if q.optimal > 0 {
		relErr = q.relErrSum / float64(q.optimal)
	}
	m["obj_rel_err"] = metricValue{relErr, "1"}
	m["ok_frac"] = metricValue{float64(q.optimal) / n, "1"}
}
