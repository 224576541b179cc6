package pdhg

import (
	"context"
	"errors"
	"math"
	"testing"

	"github.com/memlp/memlp/internal/crossbar"
	"github.com/memlp/memlp/internal/engine"
	"github.com/memlp/memlp/internal/linalg"
	"github.com/memlp/memlp/internal/lp"
	"github.com/memlp/memlp/internal/memristor"
	"github.com/memlp/memlp/internal/noc"
	"github.com/memlp/memlp/internal/pdip"
	"github.com/memlp/memlp/internal/trace"
	"github.com/memlp/memlp/internal/variation"
)

func mustProblem(t *testing.T, c []float64, rows [][]float64, b []float64) *lp.Problem {
	t.Helper()
	a, err := linalg.MatrixFromRows(rows)
	if err != nil {
		t.Fatalf("MatrixFromRows: %v", err)
	}
	p, err := lp.New("t", linalg.Vector(c), a, linalg.Vector(b))
	if err != nil {
		t.Fatalf("lp.New: %v", err)
	}
	return p
}

func genFeasible(t *testing.T, m, n int, seed int64) *lp.Problem {
	t.Helper()
	p, err := lp.GenerateFeasible(lp.GenConfig{Constraints: m, Variables: n, Seed: seed})
	if err != nil {
		t.Fatalf("GenerateFeasible: %v", err)
	}
	return p
}

func mustSolve(t *testing.T, s *Solver, p *lp.Problem) *engine.Result {
	t.Helper()
	res, err := s.SolveContext(context.Background(), p)
	if err != nil {
		t.Fatalf("SolveContext: %v", err)
	}
	return res
}

// referenceObjective solves p with the software reduced-KKT PDIP engine.
func referenceObjective(t *testing.T, p *lp.Problem) float64 {
	t.Helper()
	ps, err := pdip.New(pdip.WithBackend(pdip.NewtonReduced))
	if err != nil {
		t.Fatalf("pdip.New: %v", err)
	}
	res, err := ps.SolveContext(context.Background(), p)
	if err != nil {
		t.Fatalf("reference solve: %v", err)
	}
	if res.Status != lp.StatusOptimal {
		t.Fatalf("reference status %v", res.Status)
	}
	return res.Objective
}

// noisyConfig is the full stochastic hardware stack the determinism pins run
// under: static variation, cycle-to-cycle noise, and permanent defects.
func noisyConfig(t *testing.T, seed int64) crossbar.Config {
	t.Helper()
	vm, err := variation.NewPaperModel(0.05, seed)
	if err != nil {
		t.Fatalf("variation model: %v", err)
	}
	return crossbar.Config{
		Variation:  vm,
		CycleNoise: 0.25,
		Faults: &memristor.FaultModel{
			StuckOnDensity:  0.002,
			StuckOffDensity: 0.002,
			Seed:            seed,
			WriteNoise:      0.01,
		},
	}
}

func TestSolvesKnownLP(t *testing.T) {
	// max 3x+2y s.t. x+y ≤ 4, x+3y ≤ 6 ⇒ optimum 12 at (4, 0).
	p := mustProblem(t, []float64{3, 2}, [][]float64{{1, 1}, {1, 3}}, []float64{4, 6})
	s, err := New()
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	res := mustSolve(t, s, p)
	if res.Status != lp.StatusOptimal {
		t.Fatalf("status %v, want optimal (pinf %v dinf %v gap %v)",
			res.Status, res.PrimalInfeasibility, res.DualInfeasibility, res.DualityGap)
	}
	if rel := math.Abs(res.Objective-12) / 12; rel > 0.02 {
		t.Errorf("objective %v, want ≈12 (rel %v)", res.Objective, rel)
	}
	if res.Iterations < 1 {
		t.Errorf("iterations %d", res.Iterations)
	}
	if res.Counters.MatVecOps == 0 {
		t.Error("no analog mat-vec ops counted")
	}
}

func TestAgreesWithSoftwareReference(t *testing.T) {
	for _, tc := range []struct {
		m, n int
		seed int64
	}{{10, 4, 3}, {14, 9, 17}, {20, 6, 29}} {
		p := genFeasible(t, tc.m, tc.n, tc.seed)
		ref := referenceObjective(t, p)
		s, err := New()
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		res := mustSolve(t, s, p)
		if res.Status != lp.StatusOptimal {
			t.Errorf("m=%d n=%d: status %v", tc.m, tc.n, res.Status)
			continue
		}
		if rel := math.Abs(res.Objective-ref) / (1 + math.Abs(ref)); rel > 0.02 {
			t.Errorf("m=%d n=%d: objective %v vs reference %v (rel %v)", tc.m, tc.n, res.Objective, ref, rel)
		}
	}
}

// TestSolvesPastSingleCrossbarCeiling is the tentpole acceptance check at
// the package layer: a matrix that a single crossbar of the tile size
// physically rejects (ErrTooLarge) still solves to optimality on the tiled
// fabric, because PDHG only ever needs one block per array.
func TestSolvesPastSingleCrossbarCeiling(t *testing.T) {
	const tile = 8
	p := genFeasible(t, 24, 18, 7)

	xb, err := crossbar.New(crossbar.Config{Size: tile})
	if err != nil {
		t.Fatalf("crossbar.New: %v", err)
	}
	if err := xb.Program(p.A); !errors.Is(err, crossbar.ErrTooLarge) {
		t.Fatalf("single %d-wide crossbar accepted a %dx%d matrix: %v",
			tile, p.A.Rows(), p.A.Cols(), err)
	}

	ref := referenceObjective(t, p)
	s, err := New(WithNoC(noc.Config{Topology: noc.Mesh, TileSize: tile}), WithGrid(2))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	res := mustSolve(t, s, p)
	if res.Status != lp.StatusOptimal {
		t.Fatalf("status %v, want optimal past the single-array ceiling (pinf %v dinf %v gap %v)",
			res.Status, res.PrimalInfeasibility, res.DualInfeasibility, res.DualityGap)
	}
	if rel := math.Abs(res.Objective-ref) / (1 + math.Abs(ref)); rel > 0.02 {
		t.Errorf("objective %v vs reference %v (rel %v)", res.Objective, ref, rel)
	}
	if res.NoC.Transfers == 0 || res.NoC.ElementHops == 0 {
		t.Errorf("tiled solve reported no NoC traffic: %+v", res.NoC)
	}
}

// TestGridBitIdentical pins the core determinism contract: under variation,
// cycle noise, and a fault model, worker grids 1×1, 2×2, and 4×4 must
// produce bit-identical iterates, counters, NoC accounting, and traces.
func TestGridBitIdentical(t *testing.T) {
	p := genFeasible(t, 12, 8, 11)
	tol := DefaultTolerances()
	tol.MaxIterations = 600 // variation biases the fixed point; pin the trajectory, not optimality
	var ref *engine.Result
	for _, g := range []int{1, 2, 4} {
		s, err := New(
			WithNoC(noc.Config{Topology: noc.Mesh, TileSize: 4}),
			WithCrossbar(noisyConfig(t, 13)),
			WithGrid(g),
			WithTolerances(tol),
			WithTrace(0),
		)
		if err != nil {
			t.Fatalf("New(grid=%d): %v", g, err)
		}
		res := mustSolve(t, s, p)
		if ref == nil {
			ref = res
			continue
		}
		if res.Status != ref.Status || res.Iterations != ref.Iterations || res.Restarts != ref.Restarts {
			t.Errorf("grid=%d: (status, iters, restarts) = (%v, %d, %d), want (%v, %d, %d)",
				g, res.Status, res.Iterations, res.Restarts, ref.Status, ref.Iterations, ref.Restarts)
		}
		if math.Float64bits(res.Objective) != math.Float64bits(ref.Objective) {
			t.Errorf("grid=%d: objective %v, want bit-identical %v", g, res.Objective, ref.Objective)
		}
		for j := range ref.X {
			if math.Float64bits(res.X[j]) != math.Float64bits(ref.X[j]) {
				t.Fatalf("grid=%d: X[%d] = %v, want bit-identical %v", g, j, res.X[j], ref.X[j])
			}
		}
		for j := range ref.Y {
			if math.Float64bits(res.Y[j]) != math.Float64bits(ref.Y[j]) {
				t.Fatalf("grid=%d: Y[%d] = %v, want bit-identical %v", g, j, res.Y[j], ref.Y[j])
			}
		}
		if res.Counters != ref.Counters {
			t.Errorf("grid=%d: counters %+v, want %+v", g, res.Counters, ref.Counters)
		}
		if res.NoC != ref.NoC {
			t.Errorf("grid=%d: NoC stats %+v, want %+v", g, res.NoC, ref.NoC)
		}
		if math.Float64bits(res.Diagnostics.EnergyJoules) != math.Float64bits(ref.Diagnostics.EnergyJoules) {
			t.Errorf("grid=%d: energy %v, want bit-identical %v", g, res.Diagnostics.EnergyJoules, ref.Diagnostics.EnergyJoules)
		}
		if diff := trace.Diff(res.Trace, ref.Trace, 0); len(diff) != 0 {
			t.Errorf("grid=%d: trace diverged:\n  %s", g, diff[0])
		}
	}
}

// TestRefreshIsNumericNoOp pins the epoch-rebased refresh semantics: a run
// with periodic tile refreshes returns the same iterates as one without
// (identical conductance draws), while honestly charging the extra writes.
func TestRefreshIsNumericNoOp(t *testing.T) {
	p := genFeasible(t, 10, 6, 5)
	tol := DefaultTolerances()
	tol.MaxIterations = 400

	solve := func(refreshEvery int) *engine.Result {
		s, err := New(
			WithNoC(noc.Config{Topology: noc.Mesh, TileSize: 4}),
			WithCrossbar(noisyConfig(t, 3)),
			WithTolerances(tol),
			WithRefreshInterval(refreshEvery),
		)
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		return mustSolve(t, s, p)
	}

	plain := solve(0)
	refreshed := solve(50)
	if refreshed.TilesRefreshed == 0 {
		t.Fatal("refresh interval 50 refreshed no tiles")
	}
	if plain.TilesRefreshed != 0 {
		t.Fatalf("refresh disabled but %d tiles refreshed", plain.TilesRefreshed)
	}
	if refreshed.Status != plain.Status || refreshed.Iterations != plain.Iterations {
		t.Errorf("refresh changed the trajectory: (%v, %d) vs (%v, %d)",
			refreshed.Status, refreshed.Iterations, plain.Status, plain.Iterations)
	}
	for j := range plain.X {
		if math.Float64bits(refreshed.X[j]) != math.Float64bits(plain.X[j]) {
			t.Fatalf("X[%d] = %v after refresh, want bit-identical %v", j, refreshed.X[j], plain.X[j])
		}
	}
	if refreshed.Counters.CellWrites <= plain.Counters.CellWrites {
		t.Errorf("refresh charged no extra writes: %d vs %d",
			refreshed.Counters.CellWrites, plain.Counters.CellWrites)
	}
}

func TestContextCancellation(t *testing.T) {
	p := genFeasible(t, 10, 4, 9)
	s, err := New()
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := s.SolveContext(ctx, p)
	if err == nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want wrapped context.Canceled", err)
	}
	if res == nil || res.Status != lp.StatusCanceled {
		t.Fatalf("result %+v, want StatusCanceled partial", res)
	}
}

func TestRejectsInvalidInputs(t *testing.T) {
	s, err := New()
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if _, err := s.SolveContext(context.Background(), nil); !errors.Is(err, lp.ErrInvalid) {
		t.Errorf("nil problem: %v, want ErrInvalid", err)
	}

	soc, err := lp.NewConic("soc", linalg.VectorOf(1, 1, 1),
		mustMatrixRows(t, [][]float64{{1, 0, 0}, {0, 1, 0}, {0, 0, 1}}),
		linalg.VectorOf(2, 1, 1),
		[]lp.Cone{{Type: lp.ConeSOC, Dim: 3}})
	if err != nil {
		t.Fatalf("NewConic: %v", err)
	}
	if _, err := s.SolveContext(context.Background(), soc); !errors.Is(err, lp.ErrConicUnsupported) {
		t.Errorf("conic problem: %v, want ErrConicUnsupported", err)
	}

	if _, err := New(WithGrid(0)); !errors.Is(err, lp.ErrInvalid) {
		t.Errorf("grid 0: %v, want ErrInvalid", err)
	}
	if _, err := New(WithRestartInterval(0)); !errors.Is(err, lp.ErrInvalid) {
		t.Errorf("restart interval 0: %v, want ErrInvalid", err)
	}
	if _, err := New(WithRefreshInterval(-1)); !errors.Is(err, lp.ErrInvalid) {
		t.Errorf("refresh interval -1: %v, want ErrInvalid", err)
	}
}

func mustMatrixRows(t *testing.T, rows [][]float64) *linalg.Matrix {
	t.Helper()
	m, err := linalg.MatrixFromRows(rows)
	if err != nil {
		t.Fatalf("MatrixFromRows: %v", err)
	}
	return m
}

// TestTraceRecordsShape sanity-checks the emitted trajectory: a first-
// iteration record, stride-decimated iteration records, and a terminal done
// record carrying the final status and cumulative hardware counters.
func TestTraceRecordsShape(t *testing.T) {
	p := genFeasible(t, 12, 8, 11)
	s, err := New(WithTrace(0), WithNoC(noc.Config{Topology: noc.Mesh, TileSize: 4}))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	res := mustSolve(t, s, p)
	if len(res.Trace) < 2 {
		t.Fatalf("trace has %d records", len(res.Trace))
	}
	first, last := res.Trace[0], res.Trace[len(res.Trace)-1]
	if first.Event != trace.EventIteration || first.Iteration != 1 {
		t.Errorf("first record = (%s, %d), want (iteration, 1)", first.Event, first.Iteration)
	}
	if last.Event != trace.EventDone || last.Status != res.Status.String() {
		t.Errorf("done record = (%s, %q), want (done, %q)", last.Event, last.Status, res.Status)
	}
	if last.Iteration != res.Iterations {
		t.Errorf("done record iteration %d, want %d", last.Iteration, res.Iterations)
	}
	if last.EnergyJoules <= 0 {
		t.Error("done record carries no modeled energy")
	}
	for _, r := range res.Trace {
		if r.Event == trace.EventIteration && r.Iteration != 1 && r.Iteration%traceStride != 0 {
			t.Errorf("iteration record at %d breaks the stride-%d decimation", r.Iteration, traceStride)
		}
	}
}

// TestAdaptiveRestartFires pins that the ergodic-average restart actually
// triggers on a plateauing trajectory and emits its trace event.
func TestAdaptiveRestartFires(t *testing.T) {
	p := genFeasible(t, 14, 9, 17)
	s, err := New(WithTrace(0), WithRestartInterval(20))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	res := mustSolve(t, s, p)
	if res.Restarts == 0 {
		t.Skip("no restart on this trajectory; instance converged before the first window")
	}
	found := false
	for _, r := range res.Trace {
		if r.Event == trace.EventRestart {
			found = true
			break
		}
	}
	if !found {
		t.Errorf("Restarts = %d but no %q trace event", res.Restarts, trace.EventRestart)
	}
}
