package memlp

// Golden-trace regression suite (DESIGN.md D13): canonical LPs at fixed
// seeds are solved with tracing on and the full iteration trajectory is
// compared field-by-field against checked-in JSONL goldens under
// testdata/traces/. Any drift in the convergence path — a different θ
// schedule, a perturbed noise-epoch derivation, a changed residual — fails
// with a readable per-field diff instead of a silent behavior change.
//
// Regenerate the goldens after an intentional algorithm change with
//
//	make bless-traces
//
// (equivalently: go test . -run TestGoldenTraces -args -bless-traces) and
// review the resulting JSONL diff like any other code change. On mismatch
// the got-trace is written to trace-diffs/<name>.jsonl so CI can upload it
// as an artifact.

import (
	"bytes"
	"context"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/memlp/memlp/internal/core"
	"github.com/memlp/memlp/internal/trace"
)

var blessTraces = flag.Bool("bless-traces", false,
	"rewrite testdata/traces/*.jsonl goldens from the current solver output")

const (
	goldenTraceDir = "testdata/traces"
	traceDiffDir   = "trace-diffs"
	// goldenTraceTol is the comparison tolerance for float fields. The
	// solves are seeded and deterministic, so the tolerance only has to
	// absorb cross-platform libm differences, not algorithmic drift.
	goldenTraceTol = 1e-9
)

// dietLP is the canonical textbook instance used across engines:
// maximize 3x₁+2x₂ subject to x₁+x₂ ≤ 4, x₁+3x₂ ≤ 6 (optimum 12 at (4,0)).
func dietLP(t testing.TB) *Problem {
	t.Helper()
	p, err := NewProblem("diet", []float64{3, 2}, [][]float64{{1, 1}, {1, 3}}, []float64{4, 6})
	if err != nil {
		t.Fatalf("diet problem: %v", err)
	}
	return p
}

func feasibleLP(t testing.TB, m int, seed int64) *Problem {
	t.Helper()
	p, err := GenerateFeasible(m, 0, seed)
	if err != nil {
		t.Fatalf("GenerateFeasible(%d, %d): %v", m, seed, err)
	}
	return p
}

// portfolioSOCP is the portfolio fixture from conic_test.go, reused as a
// pinned conic trajectory.
func portfolioSOCP(t testing.TB) *Problem {
	tt, ok := t.(*testing.T)
	if !ok {
		t.Fatal("portfolioSOCP needs *testing.T")
	}
	return portfolioProblem(tt)
}

func feasibleSOCP(t testing.TB, m, blocks, blockDim int, seed int64) *Problem {
	t.Helper()
	p, err := GenerateFeasibleSOCP(m, 0, blocks, blockDim, seed)
	if err != nil {
		t.Fatalf("GenerateFeasibleSOCP(%d, %d): %v", m, seed, err)
	}
	return p
}

// goldenTraceCase is one pinned scenario: a solver configuration plus the
// problem(s) it solves. Batch cases concatenate the per-problem traces in
// input order, which the pool guarantees is pool-width independent.
type goldenTraceCase struct {
	name     string
	engine   Engine
	opts     []Option
	problems func(t testing.TB) []*Problem
	batch    bool
	// sequence solves every problem in order on one handle and
	// concatenates the traces, pinning what a handle carries from one
	// problem size to the next.
	sequence bool
	// paper runs Algorithm 1 in the paper's mode, the residual read from
	// the array (core.Options.AnalogResidual), which no public option
	// selects.
	paper bool
}

func single(f func(t testing.TB) *Problem) func(t testing.TB) []*Problem {
	return func(t testing.TB) []*Problem { return []*Problem{f(t)} }
}

// feasibleSeq returns GenerateFeasible(m, 0, seed) for each (m, seed) pair,
// in order.
func feasibleSeq(pairs ...[2]int) func(t testing.TB) []*Problem {
	return func(t testing.TB) []*Problem {
		out := make([]*Problem, len(pairs))
		for i, ms := range pairs {
			out[i] = feasibleLP(t, ms[0], int64(ms[1]))
		}
		return out
	}
}

// Algorithm 1's extended sizes 3n+3m+q of this sequence are 37, 33, 47, 34
// and 38: they shrink, grow past the first, shrink, and grow again within
// the largest. The first and last changes keep (m, n) and change only q.
var alg1SizeSeq = feasibleSeq([2]int{8, 7}, [2]int{8, 5}, [2]int{9, 1}, [2]int{8, 3}, [2]int{8, 2})

func goldenTraceCases() []goldenTraceCase {
	noisy := []Option{WithVariation(0.05), WithCycleNoise(0.25)}
	return []goldenTraceCase{
		// Algorithm 1 on the crossbar, under full stochastic hardware.
		{name: "crossbar-diet", engine: EngineCrossbar,
			opts:     append([]Option{WithSeed(7)}, noisy...),
			problems: single(dietLP)},
		{name: "crossbar-gen8", engine: EngineCrossbar,
			opts:     append([]Option{WithSeed(3)}, noisy...),
			problems: single(func(t testing.TB) *Problem { return feasibleLP(t, 8, 11) })},
		{name: "crossbar-gen12", engine: EngineCrossbar,
			opts:     []Option{WithSeed(5), WithVariation(0.08), WithCycleNoise(0.5)},
			problems: single(func(t testing.TB) *Problem { return feasibleLP(t, 12, 29) })},
		// Algorithm 2 (two small systems, constant θ).
		{name: "largescale-diet", engine: EngineCrossbarLargeScale,
			opts:     append([]Option{WithSeed(7)}, noisy...),
			problems: single(dietLP)},
		{name: "largescale-gen10", engine: EngineCrossbarLargeScale,
			opts:     []Option{WithSeed(23)},
			problems: single(func(t testing.TB) *Problem { return feasibleLP(t, 10, 17) })},
		{name: "largescale-gen16", engine: EngineCrossbarLargeScale,
			opts:     append([]Option{WithSeed(2)}, noisy...),
			problems: single(func(t testing.TB) *Problem { return feasibleLP(t, 16, 41) })},
		// Simplex pivot trajectories.
		{name: "simplex-diet", engine: EngineSimplex, problems: single(dietLP)},
		{name: "simplex-gen6", engine: EngineSimplex,
			problems: single(func(t testing.TB) *Problem { return feasibleLP(t, 6, 19) })},
		{name: "simplex-gen9", engine: EngineSimplex,
			problems: single(func(t testing.TB) *Problem { return feasibleLP(t, 9, 31) })},
		// Conic engine: SOCP trajectories, pinning the Nesterov–Todd block
		// refresh path and the cone-residual field under stochastic hardware.
		{name: "conic-portfolio", engine: EngineConic,
			opts:     append([]Option{WithSeed(9)}, noisy...),
			problems: single(portfolioSOCP)},
		{name: "conic-gen12", engine: EngineConic,
			opts:     []Option{WithSeed(15), WithVariation(0.08), WithCycleNoise(0.5)},
			problems: single(func(t testing.TB) *Problem { return feasibleSOCP(t, 12, 2, 3, 43) })},
		// Restarted PDHG on the tiled fabric. The clean-hardware case pins the
		// monitored-KKT decimation and the digital confirmation point; the
		// noisy tiled case pins the (block, slot) noise-epoch derivation, the
		// adaptive-restart events, and the refresh accounting across a 2x2
		// worker grid (grid choice must not — and does not — affect the trace).
		{name: "pdhg-diet", engine: EnginePDHG,
			opts:     []Option{WithSeed(7)},
			problems: single(dietLP)},
		{name: "pdhg-gen12-tiled", engine: EnginePDHG,
			opts: []Option{WithSeed(5), WithVariation(0.05), WithCycleNoise(0.25),
				WithNoC("mesh", 4), WithTiles(2), WithMaxIterations(600)},
			problems: single(func(t testing.TB) *Problem { return feasibleLP(t, 12, 29) })},
		// A sharded batch: three instances on a two-replica pool. The golden
		// pins the per-problem noise epochs and the input-order aggregation.
		{name: "crossbar-batch", engine: EngineCrossbar, batch: true,
			opts: []Option{WithParallelism(2), WithSeed(13), WithVariation(0.08), WithCycleNoise(0.5)},
			problems: func(t testing.TB) []*Problem {
				return poolBatch(t, 3, 8, 21)
			}},
		// The paper's mode of Algorithm 1 (analog residual) on the gen12
		// cases: the trajectories that reproduce the paper's figures, and
		// the ones that exercise the analog-floor stop rules (D19).
		{name: "crossbar-gen12-paper", engine: EngineCrossbar, paper: true,
			opts:     []Option{WithSeed(5), WithVariation(0.08), WithCycleNoise(0.5)},
			problems: single(func(t testing.TB) *Problem { return feasibleLP(t, 12, 29) })},
		{name: "conic-portfolio-paper", engine: EngineConic, paper: true,
			opts:     append([]Option{WithSeed(9)}, noisy...),
			problems: single(portfolioSOCP)},
		{name: "conic-gen12-paper", engine: EngineConic, paper: true,
			opts:     []Option{WithSeed(15), WithVariation(0.08), WithCycleNoise(0.5)},
			problems: single(func(t testing.TB) *Problem { return feasibleSOCP(t, 12, 2, 3, 43) })},
		// The two retry paths. Algorithm 2's double-check (§4.3): the first
		// attempt fails, a resolve event marks the re-solve on freshly built
		// fabrics, and the second attempt converges. Algorithm 1 on a faulty
		// array: the re-solve does not help, and the recovery ladder ends in
		// software (StatusDegraded).
		{name: "largescale-resolve", engine: EngineCrossbarLargeScale,
			opts:     []Option{WithSeed(2), WithVariation(0.10), WithCycleNoise(0.25)},
			problems: single(func(t testing.TB) *Problem { return feasibleLP(t, 10, 2) })},
		{name: "crossbar-faults", engine: EngineCrossbar,
			opts: []Option{WithSeed(1), WithVariation(0.05),
				WithFaultModel(FaultModel{StuckOnDensity: 0.01, StuckOffDensity: 0.01})},
			problems: single(func(t testing.TB) *Problem { return feasibleLP(t, 8, 1) })},
		// Problems of changing size solved in turn on one handle: the
		// fabric, its counter windows and every workspace carried from one
		// size to the next. No two neighbours share a size.
		{name: "crossbar-sequence", engine: EngineCrossbar, sequence: true,
			opts:     append([]Option{WithSeed(17)}, noisy...),
			problems: alg1SizeSeq},
		// Algorithm 2's system sizes (n+2m+q, n+m) run (20, 10), (15, 8),
		// (26, 13), (23, 12).
		{name: "largescale-sequence", engine: EngineCrossbarLargeScale, sequence: true,
			opts:     append([]Option{WithSeed(19)}, noisy...),
			problems: feasibleSeq([2]int{8, 1}, [2]int{6, 3}, [2]int{10, 1}, [2]int{9, 10})},
		// On 12-wide tiles the sequence's tile grids run 4x4, 3x3, 4x4, 3x3
		// and 4x4.
		{name: "crossbar-noc-sequence", engine: EngineCrossbar, sequence: true,
			opts:     []Option{WithSeed(23), WithVariation(0.05), WithNoC("mesh", 12)},
			problems: alg1SizeSeq},
	}
}

// newCaseSolver builds the case's handle with tracing on and the extra
// options appended. A paper case swaps in an Algorithm 1 solver built from
// the same façade wiring with the analog residual selected.
func newCaseSolver(t testing.TB, gc goldenTraceCase, extra ...Option) *Solver {
	t.Helper()
	opts := append(append([]Option{WithTrace(0)}, gc.opts...), extra...)
	s, err := NewSolver(gc.engine, opts...)
	if err != nil {
		t.Fatalf("NewSolver(%s): %v", gc.name, err)
	}
	if !gc.paper {
		return s
	}
	o := defaultOptions()
	for _, fn := range opts {
		if err := fn(&o); err != nil {
			t.Fatal(err)
		}
	}
	copts, err := s.coreOptions(o)
	if err != nil {
		t.Fatal(err)
	}
	copts.AnalogResidual = true
	if s.solver, err = core.NewSolver(copts); err != nil {
		t.Fatal(err)
	}
	return s
}

// runGoldenCase solves the case's problems with tracing on and returns the
// concatenated trace in input order.
func runGoldenCase(t testing.TB, gc goldenTraceCase) []trace.Record {
	t.Helper()
	s := newCaseSolver(t, gc)
	problems := gc.problems(t)
	var sols []*Solution
	var err error
	switch {
	case gc.batch:
		sols, err = s.SolveBatch(context.Background(), problems)
	case gc.sequence:
		for _, p := range problems {
			var sol *Solution
			if sol, err = s.Solve(context.Background(), p); err != nil {
				break
			}
			sols = append(sols, sol)
		}
	default:
		var sol *Solution
		sol, err = s.Solve(context.Background(), problems[0])
		sols = []*Solution{sol}
	}
	if err != nil {
		t.Fatalf("solve %s: %v", gc.name, err)
	}
	var recs []trace.Record
	for _, sol := range sols {
		recs = append(recs, sol.Trace()...)
	}
	if len(recs) == 0 {
		t.Fatalf("solve %s produced an empty trace", gc.name)
	}
	return recs
}

func goldenTracePath(name string) string {
	return filepath.Join(goldenTraceDir, name+".jsonl")
}

func readGoldenTrace(t *testing.T, name string) []trace.Record {
	t.Helper()
	f, err := os.Open(goldenTracePath(name))
	if err != nil {
		t.Fatalf("missing golden %s (run `make bless-traces`): %v", name, err)
	}
	defer f.Close()
	recs, err := trace.Read(f)
	if err != nil {
		t.Fatalf("golden %s is corrupt: %v", name, err)
	}
	return recs
}

func blessGoldenTrace(t *testing.T, name string, recs []trace.Record) {
	t.Helper()
	if err := os.MkdirAll(goldenTraceDir, 0o755); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := trace.Write(&buf, recs); err != nil {
		t.Fatalf("serialize %s: %v", name, err)
	}
	if err := os.WriteFile(goldenTracePath(name), buf.Bytes(), 0o644); err != nil {
		t.Fatalf("write golden %s: %v", name, err)
	}
	t.Logf("blessed %s (%d records)", goldenTracePath(name), len(recs))
}

// dumpGotTrace preserves a diverging trace for post-mortem (CI uploads the
// directory as an artifact).
func dumpGotTrace(t *testing.T, name string, recs []trace.Record) {
	t.Helper()
	if err := os.MkdirAll(traceDiffDir, 0o755); err != nil {
		t.Logf("cannot create %s: %v", traceDiffDir, err)
		return
	}
	var buf bytes.Buffer
	if err := trace.Write(&buf, recs); err != nil {
		t.Logf("cannot serialize got-trace: %v", err)
		return
	}
	path := filepath.Join(traceDiffDir, name+".jsonl")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Logf("cannot write %s: %v", path, err)
		return
	}
	t.Logf("diverging trace written to %s", path)
}

// TestGoldenTraces is the regression gate: every pinned scenario's trace
// must match its golden field-by-field. With -bless-traces (via
// `make bless-traces`) it rewrites the goldens instead.
func TestGoldenTraces(t *testing.T) {
	for _, gc := range goldenTraceCases() {
		gc := gc
		t.Run(gc.name, func(t *testing.T) {
			got := runGoldenCase(t, gc)
			if *blessTraces {
				blessGoldenTrace(t, gc.name, got)
				return
			}
			want := readGoldenTrace(t, gc.name)
			if diff := trace.Diff(got, want, goldenTraceTol); len(diff) != 0 {
				dumpGotTrace(t, gc.name, got)
				t.Errorf("trace diverged from golden %s:\n  %s",
					goldenTracePath(gc.name), strings.Join(diff, "\n  "))
			}
		})
	}
}

// TestGoldenTraceRoundTrip pins that the golden serialization itself is
// lossless: re-encoding a parsed golden reproduces the file byte-for-byte,
// so bless runs are deterministic and `git diff` on goldens is meaningful.
func TestGoldenTraceRoundTrip(t *testing.T) {
	for _, gc := range goldenTraceCases() {
		gc := gc
		t.Run(gc.name, func(t *testing.T) {
			raw, err := os.ReadFile(goldenTracePath(gc.name))
			if err != nil {
				t.Skipf("golden not present: %v", err)
			}
			recs, err := trace.Read(bytes.NewReader(raw))
			if err != nil {
				t.Fatalf("parse golden: %v", err)
			}
			var buf bytes.Buffer
			if err := trace.Write(&buf, recs); err != nil {
				t.Fatalf("re-encode golden: %v", err)
			}
			if !bytes.Equal(raw, buf.Bytes()) {
				t.Error("golden JSONL does not round-trip byte-identically")
			}
		})
	}
}

// TestGoldenTraceBlessDeterministic pins the acceptance requirement that
// regeneration is reproducible: two independent solver handles produce
// byte-identical serialized traces for the same pinned case.
func TestGoldenTraceBlessDeterministic(t *testing.T) {
	for _, name := range []string{"crossbar-gen8", "largescale-gen10", "crossbar-batch"} {
		var gc goldenTraceCase
		for _, c := range goldenTraceCases() {
			if c.name == name {
				gc = c
			}
		}
		t.Run(name, func(t *testing.T) {
			var first []byte
			for run := 0; run < 2; run++ {
				var buf bytes.Buffer
				if err := trace.Write(&buf, runGoldenCase(t, gc)); err != nil {
					t.Fatal(err)
				}
				if run == 0 {
					first = append([]byte(nil), buf.Bytes()...)
				} else if !bytes.Equal(first, buf.Bytes()) {
					t.Error("two bless runs of the same case produced different bytes")
				}
			}
		})
	}
}

// TestGoldenTraceCatchesThetaPerturbation proves the suite's sensitivity:
// changing Algorithm 2's constant step from the default 0.2 to 0.25 must
// fail against the golden with a diff that names the theta field.
func TestGoldenTraceCatchesThetaPerturbation(t *testing.T) {
	gc := goldenTraceCase{
		name:   "largescale-diet",
		engine: EngineCrossbarLargeScale,
		opts: []Option{WithSeed(7), WithVariation(0.05), WithCycleNoise(0.25),
			WithConstantStep(0.25)},
		problems: single(dietLP),
	}
	got := runGoldenCase(t, gc)
	want := readGoldenTrace(t, "largescale-diet")
	diff := trace.Diff(got, want, goldenTraceTol)
	if len(diff) == 0 {
		t.Fatal("perturbing θ left the trace identical to the golden")
	}
	if !strings.Contains(strings.Join(diff, "\n"), "theta") {
		t.Errorf("θ perturbation diff does not name the theta field:\n%s",
			strings.Join(diff, "\n"))
	}
}

// TestGoldenTraceCatchesSeedPerturbation: a different hardware seed draws a
// different noise stream, so the recorded convergence path must diverge.
func TestGoldenTraceCatchesSeedPerturbation(t *testing.T) {
	gc := goldenTraceCase{
		name:     "crossbar-gen8",
		engine:   EngineCrossbar,
		opts:     []Option{WithSeed(4), WithVariation(0.05), WithCycleNoise(0.25)},
		problems: single(func(t testing.TB) *Problem { return feasibleLP(t, 8, 11) }),
	}
	got := runGoldenCase(t, gc)
	want := readGoldenTrace(t, "crossbar-gen8")
	if diff := trace.Diff(got, want, goldenTraceTol); len(diff) == 0 {
		t.Fatal("perturbing the hardware seed left the trace identical to the golden")
	}
}

// TestGoldenTraceCatchesNoiseEpochPerturbation: the batch golden pins one
// noise epoch per problem index. A perturbed derivation (modeled here by
// shifting every recorded epoch) must produce a diff naming noise_epoch —
// the field-level failure mode the determinism contract relies on.
func TestGoldenTraceCatchesNoiseEpochPerturbation(t *testing.T) {
	want := readGoldenTrace(t, "crossbar-batch")
	got := make([]trace.Record, len(want))
	copy(got, want)
	for i := range got {
		got[i].NoiseEpoch++
	}
	diff := trace.Diff(got, want, goldenTraceTol)
	if len(diff) == 0 {
		t.Fatal("shifted noise epochs left the diff empty")
	}
	if !strings.Contains(strings.Join(diff, "\n"), "noise_epoch") {
		t.Errorf("noise-epoch perturbation diff does not name the field:\n%s",
			strings.Join(diff, "\n"))
	}
}
