package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"github.com/memlp/memlp/internal/cone"
	"github.com/memlp/memlp/internal/crossbar"
	"github.com/memlp/memlp/internal/engine"
	"github.com/memlp/memlp/internal/linalg"
	"github.com/memlp/memlp/internal/lp"
	"github.com/memlp/memlp/internal/pdip"
	"github.com/memlp/memlp/internal/variation"
)

func mustMatrix(t *testing.T, rows [][]float64) *linalg.Matrix {
	t.Helper()
	m, err := linalg.MatrixFromRows(rows)
	if err != nil {
		t.Fatalf("MatrixFromRows: %v", err)
	}
	return m
}

func mustProblem(t *testing.T, c linalg.Vector, a *linalg.Matrix, b linalg.Vector) *lp.Problem {
	t.Helper()
	p, err := lp.New("test", c, a, b)
	if err != nil {
		t.Fatalf("lp.New: %v", err)
	}
	return p
}

// idealOpts uses the exact-math fabric.
func idealOpts() Options {
	return Options{Fabric: newIdealFabric}
}

// crossbarOpts uses a real simulated crossbar with the given variation. The
// feasibility relaxation α scales with the variation magnitude, since the
// solution satisfies the perturbed constraints, which differ from the true
// ones by up to the variation (§3.2's "process variation could severely
// affect constraints").
func crossbarOpts(t *testing.T, varPct float64, seed int64) Options {
	t.Helper()
	cfg := crossbar.Config{}
	if varPct > 0 {
		vm, err := variation.NewPaperModel(varPct, seed)
		if err != nil {
			t.Fatalf("NewPaperModel: %v", err)
		}
		cfg.Variation = vm
	}
	return Options{Fabric: SingleCrossbarFactory(cfg), Alpha: 1.05 + 2*varPct}
}

func referenceObjective(t *testing.T, p *lp.Problem) float64 {
	t.Helper()
	s, err := pdip.New()
	if err != nil {
		t.Fatalf("pdip.New: %v", err)
	}
	res, err := s.Solve(p)
	if err != nil {
		t.Fatalf("reference Solve: %v", err)
	}
	if res.Status != lp.StatusOptimal {
		t.Fatalf("reference status = %v", res.Status)
	}
	return res.Objective
}

func TestOptionsValidation(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*Options)
	}{
		{"alpha below 1", func(o *Options) { o.Alpha = 0.5 }},
		{"NaN alpha", func(o *Options) { o.Alpha = math.NaN() }},
		{"infinite alpha", func(o *Options) { o.Alpha = math.Inf(1) }},
		{"bad constant step", func(o *Options) { o.ConstantStep = 1.5 }},
		{"bad regularization", func(o *Options) { o.Regularization = 2 }},
		{"bad delta", func(o *Options) { o.Tol.Delta = 3 }},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			o := idealOpts()
			tc.mutate(&o)
			if _, err := NewSolver(o); err == nil {
				t.Error("NewSolver accepted invalid options")
			}
			if _, err := NewLargeScaleSolver(o); err == nil {
				t.Error("NewLargeScaleSolver accepted invalid options")
			}
		})
	}
}

func TestExtendedSystemShape(t *testing.T) {
	// A = [[1, -2], [-3, 4]]: both columns and both rows contain negatives,
	// so q = 2 (x mirrors) + 2 (y mirrors) = 4.
	p := mustProblem(t, linalg.VectorOf(1, 1),
		mustMatrix(t, [][]float64{{1, -2}, {-3, 4}}), linalg.VectorOf(5, 5))
	ones := linalg.Ones(2)
	ext, err := newExtended(p, ones, ones, ones, ones)
	if err != nil {
		t.Fatalf("newExtended: %v", err)
	}
	if ext.q != 4 {
		t.Errorf("q = %d, want 4", ext.q)
	}
	wantSize := 3*2 + 3*2 + 4
	if ext.size != wantSize {
		t.Errorf("size = %d, want %d", ext.size, wantSize)
	}
	if !ext.matrix.AllNonNegative() {
		t.Error("extended matrix has negative entries")
	}
}

func TestExtendedMatVecIdentity(t *testing.T) {
	// Eq. 15b: M·[x,y,w,z,u,v,p] must equal
	// [Ax+w; Aᵀy−z; 2XZe; 2YWe; 0; 0; 0].
	p := mustProblem(t, linalg.VectorOf(1, 2),
		mustMatrix(t, [][]float64{{1, -2}, {-3, 4}, {0.5, 1}}), linalg.VectorOf(5, 5, 5))
	x := linalg.VectorOf(1.5, 2.5)
	y := linalg.VectorOf(0.5, 1.5, 2)
	w := linalg.VectorOf(3, 1, 2)
	z := linalg.VectorOf(0.25, 0.75)
	ext, err := newExtended(p, x, y, w, z)
	if err != nil {
		t.Fatalf("newExtended: %v", err)
	}
	s := ext.stateVector(x, y, w, z)
	got, err := ext.matrix.MatVec(s)
	if err != nil {
		t.Fatalf("MatVec: %v", err)
	}

	ax, err := p.A.MatVec(x)
	if err != nil {
		t.Fatal(err)
	}
	aty, err := p.A.MatVecTranspose(y)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		want := ax[i] + w[i]
		if math.Abs(got[ext.rowA(i)]-want) > 1e-12 {
			t.Errorf("r1[%d] = %v, want %v", i, got[ext.rowA(i)], want)
		}
	}
	for i := 0; i < 2; i++ {
		want := aty[i] - z[i]
		if math.Abs(got[ext.rowAT(i)]-want) > 1e-12 {
			t.Errorf("r2[%d] = %v, want %v", i, got[ext.rowAT(i)], want)
		}
	}
	for i := 0; i < 2; i++ {
		want := 2 * x[i] * z[i]
		if math.Abs(got[ext.rowR3(i)]-want) > 1e-12 {
			t.Errorf("r3[%d] = %v, want %v", i, got[ext.rowR3(i)], want)
		}
	}
	for i := 0; i < 3; i++ {
		want := 2 * y[i] * w[i]
		if math.Abs(got[ext.rowR4(i)]-want) > 1e-12 {
			t.Errorf("r4[%d] = %v, want %v", i, got[ext.rowR4(i)], want)
		}
	}
	for i := 3*3 + 3*2 - 3 - 2; i < len(got); i++ {
		// r5..r7 must vanish identically.
		if math.Abs(got[i]) > 1e-12 {
			t.Errorf("consistency row %d = %v, want 0", i, got[i])
		}
	}

	// The digital residual walks the extended pattern and must reproduce
	// the dense product bit for bit: on the start, after several
	// complementarity refreshes, and across newExtendedInto reuses, first
	// with a different q (a new size) and then with the same q but the
	// negative entries moved (a reused matrix and pattern).
	r := rand.New(rand.NewSource(5))
	requireDigitalResidual(t, ext, p, s, "start")
	refreshDigitalResidual(t, r, ext, p, 4, "lp")
	ones := linalg.Ones(2)
	onesM := linalg.Ones(3)
	for _, rows := range [][][]float64{
		{{1, 2}, {3, 4}, {-0.5, 1}},   // q = 2: one x mirror, one y mirror
		{{1, 2}, {-3, 4}, {0.5, 1}},   // q = 2 again, mirrors moved
		{{-1, -2}, {3, -4}, {0.5, 1}}, // q = 4
	} {
		p2 := mustProblem(t, linalg.VectorOf(1, 2), mustMatrix(t, rows), linalg.VectorOf(5, 5, 5))
		prevSize := ext.size
		reused, err := newExtendedInto(ext, p2, ones, onesM, onesM.Clone(), ones.Clone())
		if err != nil {
			t.Fatalf("newExtendedInto: %v", err)
		}
		label := fmt.Sprintf("reuse q=%d (size %d after %d)", reused.q, reused.size, prevSize)
		requireDigitalResidual(t, reused, p2, randomSignedState(r, reused.size), label)
		refreshDigitalResidual(t, r, reused, p2, 3, label)
		ext = reused
	}
}

// TestExtendedResidualSOCP is TestExtendedMatVecIdentity's digital
// residual check on a conic system: the NT blocks' sign-split pairs flip
// sides across refreshes, and the pattern must cover both sides of each.
func TestExtendedResidualSOCP(t *testing.T) {
	p, _ := socpTestProblem(t)
	x := linalg.Ones(2)
	y, w := linalg.Ones(4), linalg.Ones(4)
	cone.InitInterior(y, p.SOCBlocks())
	cone.InitInterior(w, p.SOCBlocks())
	ext, err := newExtended(p, x, y, w, x.Clone())
	if err != nil {
		t.Fatalf("newExtended: %v", err)
	}
	r := rand.New(rand.NewSource(9))
	requireDigitalResidual(t, ext, p, randomSignedState(r, ext.size), "start")
	refreshDigitalResidual(t, r, ext, p, 6, "socp")
}

// randomSignedState draws an extended state with signed entries, so the
// u, v and p components do not simply mirror x, y, w and z.
func randomSignedState(r *rand.Rand, n int) linalg.Vector {
	s := linalg.NewVector(n)
	for i := range s {
		s[i] = 4*r.Float64() - 2
	}
	return s
}

// refreshDigitalResidual runs steps complementarity refreshes from random
// interior iterates (cone blocks kept strictly inside their cones) and
// checks the digital residual after each.
func refreshDigitalResidual(t *testing.T, r *rand.Rand, ext *extended, p *lp.Problem, steps int, label string) {
	t.Helper()
	pos := func(n int) linalg.Vector {
		v := linalg.NewVector(n)
		for i := range v {
			v[i] = 0.1 + 3*r.Float64()
		}
		return v
	}
	for step := 0; step < steps; step++ {
		x, y, w, z := pos(ext.n), pos(ext.m), pos(ext.m), pos(ext.n)
		for _, blk := range ext.cones.Blocks {
			for _, v := range []linalg.Vector{y, w} {
				// A random signed tail inside the cone.
				for i := 1; i < blk.Dim; i++ {
					v[blk.Start+i] = 2*r.Float64() - 1
				}
				v[blk.Start] = 2 + r.Float64()
			}
		}
		if ext.cones.Conic() && !ext.cones.Update(w, y) {
			t.Fatalf("%s step %d: iterate left the cone", label, step)
		}
		ext.fillDiagRows(x, y, w, z)
		requireDigitalResidual(t, ext, p, randomSignedState(r, ext.size), fmt.Sprintf("%s step %d", label, step))
	}
}

// requireDigitalResidual holds ext.residual to the dense reference
// base − factor∘(ext.matrix.MatVec(s)) bit for bit.
func requireDigitalResidual(t *testing.T, ext *extended, p *lp.Problem, s linalg.Vector, label string) {
	t.Helper()
	base := ext.baseVector(p, 0.37)
	factor := ext.factor
	mv, err := ext.matrix.MatVec(s)
	if err != nil {
		t.Fatal(err)
	}
	got := ext.residual(base, s, factor)
	for i, v := range mv {
		want := base[i] - factor[i]*v
		if math.Float64bits(got[i]) != math.Float64bits(want) {
			t.Fatalf("%s: residual[%d] = %v, dense %v", label, i, got[i], want)
		}
	}
}

// TestDigitalResidualMatchesIdealArray: on an ideal array (no variation,
// 24-bit converters and writes) the analog residual MatVecResidual reads
// and the digital one agree to within 1e-6 of the residual's scale
// (‖base‖∞ + ‖factor∘(M·s)‖∞); the rest is the array's quantization.
func TestDigitalResidualMatchesIdealArray(t *testing.T) {
	p, err := lp.GenerateFeasible(lp.GenConfig{Constraints: 12, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	n, m := p.NumVariables(), p.NumConstraints()
	r := rand.New(rand.NewSource(4))
	pos := func(k int) linalg.Vector {
		v := linalg.NewVector(k)
		for i := range v {
			v[i] = 0.1 + 3*r.Float64()
		}
		return v
	}
	x, y, w, z := pos(n), pos(m), pos(m), pos(n)
	ext, err := newExtended(p, x, y, w, z)
	if err != nil {
		t.Fatal(err)
	}
	fab, err := SingleCrossbarFactory(crossbar.Config{IOBits: 24, WriteBits: 24})(ext.size)
	if err != nil {
		t.Fatal(err)
	}
	if err := fab.Program(ext.matrix); err != nil {
		t.Fatal(err)
	}
	const tol = 1e-6
	for trial := 0; trial < 5; trial++ {
		s := ext.stateVector(x, y, w, z)
		base := ext.baseVector(p, 0.1*float64(trial+1))
		factor := ext.factor
		analog, err := fab.MatVecResidual(base, s, factor)
		if err != nil {
			t.Fatal(err)
		}
		digital := ext.residual(base, s, factor)
		mv, err := ext.matrix.MatVec(s)
		if err != nil {
			t.Fatal(err)
		}
		scale := base.NormInf()
		for i := range mv {
			scale = max(scale, math.Abs(factor[i]*mv[i]))
		}
		for i := range digital {
			if d := math.Abs(digital[i] - analog[i]); d > tol*scale {
				t.Errorf("trial %d: row %d digital %v, analog %v (|Δ| %.3g > %.0e·%.3g)",
					trial, i, digital[i], analog[i], d, tol, scale)
			}
		}
		x, y, w, z = pos(n), pos(m), pos(m), pos(n)
		if err := (&worker{slot: fabricSlot{fab: fab}, ext: ext}).writeDiagRows(x, y, w, z); err != nil {
			t.Fatal(err)
		}
	}
}

func TestSolverIdealFabricKnownLPs(t *testing.T) {
	tests := []struct {
		name string
		p    *lp.Problem
		opt  float64
	}{
		{
			name: "corner",
			p: mustProblem(t, linalg.VectorOf(3, 2),
				mustMatrix(t, [][]float64{{1, 1}, {1, 3}}), linalg.VectorOf(4, 6)),
			opt: 12,
		},
		{
			name: "negative-coeffs",
			p: mustProblem(t, linalg.VectorOf(1, -1),
				mustMatrix(t, [][]float64{{-1, 1}, {1, 1}}), linalg.VectorOf(1, 3)),
			opt: 3,
		},
		{
			name: "vanderbei",
			p: mustProblem(t, linalg.VectorOf(5, 4, 3),
				mustMatrix(t, [][]float64{{2, 3, 1}, {4, 1, 2}, {3, 4, 2}}),
				linalg.VectorOf(5, 11, 8)),
			opt: 13,
		},
	}
	s, err := NewSolver(idealOpts())
	if err != nil {
		t.Fatalf("NewSolver: %v", err)
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			res, err := s.Solve(tc.p)
			if err != nil {
				t.Fatalf("Solve: %v", err)
			}
			if res.Status != lp.StatusOptimal {
				t.Fatalf("status = %v (%+v)", res.Status, res)
			}
			if math.Abs(res.Objective-tc.opt) > 1e-3*(1+math.Abs(tc.opt)) {
				t.Errorf("objective = %v, want %v", res.Objective, tc.opt)
			}
		})
	}
}

func TestSolverIdealMatchesSoftwarePDIP(t *testing.T) {
	s, err := NewSolver(idealOpts())
	if err != nil {
		t.Fatalf("NewSolver: %v", err)
	}
	for seed := int64(0); seed < 8; seed++ {
		p, err := lp.GenerateFeasible(lp.GenConfig{Constraints: 12, Seed: seed})
		if err != nil {
			t.Fatalf("GenerateFeasible: %v", err)
		}
		want := referenceObjective(t, p)
		res, err := s.Solve(p)
		if err != nil {
			t.Fatalf("seed %d: Solve: %v", seed, err)
		}
		if res.Status != lp.StatusOptimal {
			t.Fatalf("seed %d: status = %v", seed, res.Status)
		}
		if rel := math.Abs(res.Objective-want) / (1 + math.Abs(want)); rel > 1e-3 {
			t.Errorf("seed %d: objective %v, want %v (rel %v)", seed, res.Objective, want, rel)
		}
	}
}

func TestSolverCrossbarNoVariation(t *testing.T) {
	s, err := NewSolver(crossbarOpts(t, 0, 0))
	if err != nil {
		t.Fatalf("NewSolver: %v", err)
	}
	for seed := int64(0); seed < 4; seed++ {
		p, err := lp.GenerateFeasible(lp.GenConfig{Constraints: 9, Seed: seed})
		if err != nil {
			t.Fatalf("GenerateFeasible: %v", err)
		}
		want := referenceObjective(t, p)
		res, err := s.Solve(p)
		if err != nil {
			t.Fatalf("seed %d: Solve: %v", seed, err)
		}
		if res.Status != lp.StatusOptimal {
			t.Fatalf("seed %d: status = %v (iter %d, gap %v)", seed, res.Status, res.Iterations, res.DualityGap)
		}
		if rel := math.Abs(res.Objective-want) / (1 + math.Abs(want)); rel > 0.05 {
			t.Errorf("seed %d: objective %v, want %v (rel %v)", seed, res.Objective, want, rel)
		}
	}
}

func TestSolverCrossbarWithVariation(t *testing.T) {
	// Paper Fig. 5(a): inaccuracy stays bounded (≈10%) even at 20%
	// variation. Average over seeds: individual instances fluctuate.
	for _, varPct := range []float64{0.05, 0.10, 0.20} {
		var relSum float64
		const trials = 4
		for seed := int64(0); seed < trials; seed++ {
			s, err := NewSolver(crossbarOpts(t, varPct, 42+seed))
			if err != nil {
				t.Fatalf("NewSolver: %v", err)
			}
			p, err := lp.GenerateFeasible(lp.GenConfig{Constraints: 12, Seed: seed})
			if err != nil {
				t.Fatalf("GenerateFeasible: %v", err)
			}
			want := referenceObjective(t, p)
			res, err := s.Solve(p)
			if err != nil {
				t.Fatalf("var %v: Solve: %v", varPct, err)
			}
			if res.Status != lp.StatusOptimal {
				t.Errorf("var %v seed %d: status = %v", varPct, seed, res.Status)
				continue
			}
			relSum += math.Abs(res.Objective-want) / (1 + math.Abs(want))
		}
		if mean := relSum / trials; mean > 0.12 {
			t.Errorf("var %v: mean relative error %v, want ≤ 0.12", varPct, mean)
		}
	}
}

func TestSolverDetectsInfeasible(t *testing.T) {
	s, err := NewSolver(idealOpts())
	if err != nil {
		t.Fatalf("NewSolver: %v", err)
	}
	for seed := int64(0); seed < 5; seed++ {
		p, err := lp.GenerateInfeasible(lp.GenConfig{Constraints: 9, Seed: seed})
		if err != nil {
			t.Fatalf("GenerateInfeasible: %v", err)
		}
		res, err := s.Solve(p)
		if err != nil {
			t.Fatalf("seed %d: Solve: %v", seed, err)
		}
		if res.Status != lp.StatusInfeasible && res.Status != lp.StatusNumericalFailure {
			t.Errorf("seed %d: status = %v, want infeasible (or numerical-failure)", seed, res.Status)
		}
	}
}

// TestSolverCountsOperations: in the paper's mode every iteration reads its
// residual with one analog mat-vec and no digital work. In the default
// mode no mat-vec runs, and the controller is charged the extended
// pattern's nnz multiply-adds on every iteration.
func TestSolverCountsOperations(t *testing.T) {
	p, err := lp.GenerateFeasible(lp.GenConfig{Constraints: 9, Seed: 1})
	if err != nil {
		t.Fatalf("GenerateFeasible: %v", err)
	}
	solve := func(analog bool) (*Solver, *engine.Result) {
		t.Helper()
		opts := idealOpts()
		opts.AnalogResidual = analog
		s, err := NewSolver(opts)
		if err != nil {
			t.Fatalf("NewSolver: %v", err)
		}
		res, err := s.Solve(p)
		if err != nil {
			t.Fatalf("Solve: %v", err)
		}
		if res.Counters.CellWrites == 0 || res.Counters.SolveOps == 0 {
			t.Errorf("analog=%v: counters not populated: %+v", analog, res.Counters)
		}
		if res.MatrixSize == 0 {
			t.Errorf("analog=%v: MatrixSize not reported", analog)
		}
		return s, res
	}

	_, paper := solve(true)
	if paper.Counters.MatVecOps < int64(paper.Iterations) {
		t.Errorf("paper mode: MatVecOps %d < iterations %d", paper.Counters.MatVecOps, paper.Iterations)
	}
	if paper.Counters.DigitalMACs != 0 {
		t.Errorf("paper mode: %d digital MACs, want 0", paper.Counters.DigitalMACs)
	}

	s, mixed := solve(false)
	if mixed.Counters.MatVecOps != 0 {
		t.Errorf("default mode: %d analog mat-vecs, want 0", mixed.Counters.MatVecOps)
	}
	// An LP's extended pattern is exactly the mirror's non-zeros: the
	// complementarity cells stay strictly positive.
	nnz := 0
	for i := 0; i < s.single.ext.matrix.Rows(); i++ {
		for _, v := range s.single.ext.matrix.RawRow(i) {
			if v != 0 {
				nnz++
			}
		}
	}
	if want := int64(mixed.Iterations * nnz); mixed.Counters.DigitalMACs != want {
		t.Errorf("default mode: %d digital MACs, want %d iterations × %d nnz = %d",
			mixed.Counters.DigitalMACs, mixed.Iterations, nnz, want)
	}
}

func TestSolverInvalidProblem(t *testing.T) {
	s, err := NewSolver(idealOpts())
	if err != nil {
		t.Fatalf("NewSolver: %v", err)
	}
	if _, err := s.Solve(&lp.Problem{}); !errors.Is(err, lp.ErrInvalid) {
		t.Errorf("Solve(invalid) = %v, want ErrInvalid", err)
	}
}
