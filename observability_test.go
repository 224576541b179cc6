package memlp

// Public-surface tests for iteration-level observability: the trace/Solution
// agreement property, trace determinism across pool widths, the JSONL
// streaming sink, metrics exposition, and the Diagnostics-on-success
// contract.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"github.com/memlp/memlp/internal/linalg"
	"github.com/memlp/memlp/internal/trace"
)

// TestTraceAgreesWithSolutionAllEngines is the cross-engine property test:
// every recorded duality-gap sequence is finite, every record is stamped
// with the engine's name, and the terminal done record agrees exactly with
// the returned Solution — which in turn must survive the digital
// re-evaluation of the objective from X.
func TestTraceAgreesWithSolutionAllEngines(t *testing.T) {
	engines := []Engine{
		EngineCrossbar, EngineCrossbarLargeScale,
		EnginePDIP, EnginePDIPReduced, EngineSimplex,
	}
	for _, eng := range engines {
		eng := eng
		t.Run(eng.String(), func(t *testing.T) {
			p := feasibleLP(t, 8, 11)
			var opts []Option
			switch eng {
			case EngineCrossbar, EngineCrossbarLargeScale:
				opts = []Option{WithSeed(7), WithVariation(0.05), WithCycleNoise(0.25)}
			}
			s, err := NewSolver(eng, append(opts, WithTrace(0))...)
			if err != nil {
				t.Fatalf("NewSolver: %v", err)
			}
			sol, err := s.Solve(context.Background(), p)
			if err != nil {
				t.Fatalf("Solve: %v", err)
			}
			recs := sol.Trace()
			if len(recs) == 0 {
				t.Fatal("no trace recorded")
			}
			for i, r := range recs {
				if r.Engine != eng.String() {
					t.Fatalf("trace[%d].Engine = %q, want %q", i, r.Engine, eng.String())
				}
				for name, v := range map[string]float64{
					"Mu": r.Mu, "DualityGap": r.DualityGap,
					"PrimalInfeasibility": r.PrimalInfeasibility,
					"DualInfeasibility":   r.DualInfeasibility,
					"Theta":               r.Theta,
				} {
					if math.IsNaN(v) || math.IsInf(v, 0) {
						t.Fatalf("trace[%d].%s = %v, want finite", i, name, v)
					}
				}
			}
			done := recs[len(recs)-1]
			if done.Event != TraceEventDone {
				t.Fatalf("last record event = %q, want %q", done.Event, TraceEventDone)
			}
			if done.Status != sol.Status.String() {
				t.Errorf("done.Status = %q, Solution.Status = %q", done.Status, sol.Status)
			}
			if !linalg.Identical(done.DualityGap, sol.DualityGap) {
				t.Errorf("done.DualityGap = %v, Solution.DualityGap = %v", done.DualityGap, sol.DualityGap)
			}
			if !linalg.Identical(done.Objective, sol.Objective) {
				t.Errorf("done.Objective = %v, Solution.Objective = %v", done.Objective, sol.Objective)
			}
			wantIter := sol.Iterations
			if eng == EngineSimplex {
				wantIter = sol.Pivots
			}
			if done.Iteration != wantIter {
				t.Errorf("done.Iteration = %d, want %d", done.Iteration, wantIter)
			}
			// Digital cross-check: re-evaluating cᵀx from the returned
			// iterate must reproduce the recorded objective.
			obj, err := p.Objective(sol.X)
			if err != nil {
				t.Fatalf("Objective(X): %v", err)
			}
			if !linalg.EqTol(obj, done.Objective, 1e-9) {
				t.Errorf("digital cᵀx = %v disagrees with traced objective %v", obj, done.Objective)
			}
		})
	}
}

// TestTraceBitIdenticalAcrossWidths extends the PR 4 determinism contract
// to traces: under variation and cycle noise, the full per-iteration
// trajectory — not just the final Solutions — must be bit-identical for
// every pool width.
func TestTraceBitIdenticalAcrossWidths(t *testing.T) {
	problems := poolBatch(t, 6, 10, 21)
	var ref []trace.Record
	for _, par := range []int{1, 2, 8} {
		s, err := NewSolver(EngineCrossbar, WithTrace(0),
			WithParallelism(par), WithVariation(0.08), WithCycleNoise(0.5), WithSeed(13))
		if err != nil {
			t.Fatalf("NewSolver(par=%d): %v", par, err)
		}
		sols, err := s.SolveBatch(context.Background(), problems)
		if err != nil {
			t.Fatalf("SolveBatch(par=%d): %v", par, err)
		}
		var recs []trace.Record
		for _, sol := range sols {
			for _, r := range sol.Trace() {
				recs = append(recs, trace.Record(r))
			}
		}
		if ref == nil {
			ref = recs
			continue
		}
		// tol ≤ 0 demands linalg.Identical on every float field.
		if diff := trace.Diff(recs, ref, 0); len(diff) != 0 {
			t.Errorf("par=%d traces not bit-identical to par=1:\n  %s",
				par, strings.Join(diff, "\n  "))
		}
	}
}

// TestWithTraceJSONLStreams: the streaming sink must emit every record of
// every solve, in input order, and round-trip through ReadTraceJSONL.
func TestWithTraceJSONLStreams(t *testing.T) {
	var buf bytes.Buffer
	s, err := NewSolver(EngineCrossbar, WithTraceJSONL(&buf), WithSeed(3))
	if err != nil {
		t.Fatalf("NewSolver: %v", err)
	}
	var want []TraceRecord
	for _, seed := range []int64{11, 19} {
		sol, err := s.Solve(context.Background(), feasibleLP(t, 6, seed))
		if err != nil {
			t.Fatalf("Solve: %v", err)
		}
		want = append(want, sol.Trace()...)
	}
	if err := s.TraceErr(); err != nil {
		t.Fatalf("TraceErr: %v", err)
	}
	got, err := ReadTraceJSONL(&buf)
	if err != nil {
		t.Fatalf("ReadTraceJSONL: %v", err)
	}
	gi := make([]trace.Record, len(got))
	wi := make([]trace.Record, len(want))
	for i, r := range got {
		gi[i] = trace.Record(r)
	}
	for i, r := range want {
		wi[i] = trace.Record(r)
	}
	if diff := trace.Diff(gi, wi, 0); len(diff) != 0 {
		t.Errorf("streamed trace differs from Solution.Trace:\n  %s", strings.Join(diff, "\n  "))
	}
}

// failAfter errors once n bytes have been accepted.
type failAfter struct{ n int }

func (f *failAfter) Write(p []byte) (int, error) {
	if f.n <= 0 {
		return 0, errors.New("sink full")
	}
	f.n -= len(p)
	return len(p), nil
}

// TestTraceErrLatchesWriterFailure: a failing JSONL writer must surface
// through TraceErr without failing the solve itself.
func TestTraceErrLatchesWriterFailure(t *testing.T) {
	s, err := NewSolver(EngineCrossbar, WithTraceJSONL(&failAfter{n: 64}))
	if err != nil {
		t.Fatalf("NewSolver: %v", err)
	}
	sol, err := s.Solve(context.Background(), feasibleLP(t, 6, 11))
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if sol.Status != StatusOptimal {
		t.Errorf("solve status = %v; a sink failure must not affect the solve", sol.Status)
	}
	if s.TraceErr() == nil {
		t.Error("TraceErr = nil after writer failure")
	}
}

// TestWithTraceJSONLNilWriter pins the option's own validation.
func TestWithTraceJSONLNilWriter(t *testing.T) {
	if _, err := NewSolver(EngineCrossbar, WithTraceJSONL(nil)); !errors.Is(err, ErrInvalid) {
		t.Errorf("nil writer: err = %v, want ErrInvalid", err)
	}
}

// TestMetricsExposition folds a traced batch into Metrics and checks both
// exposition surfaces: Prometheus text (with engine/status labels and shard
// series) and the expvar JSON summary.
func TestMetricsExposition(t *testing.T) {
	problems := poolBatch(t, 4, 8, 5)
	s, err := NewSolver(EngineCrossbar, WithTrace(0), WithParallelism(2), WithSeed(9))
	if err != nil {
		t.Fatalf("NewSolver: %v", err)
	}
	sols, err := s.SolveBatch(context.Background(), problems)
	if err != nil {
		t.Fatalf("SolveBatch: %v", err)
	}
	m := NewMetrics()
	m.ObserveAll(sols)
	var buf bytes.Buffer
	if err := m.WritePrometheus(&buf); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	text := buf.String()
	for _, want := range []string{
		`memlp_solves_total{engine="crossbar",status="optimal"} 4`,
		"memlp_iterations_total",
		"memlp_trace_records_total",
		"memlp_shard_solves_total",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("Prometheus exposition missing %q:\n%s", want, text)
		}
	}
	if js := m.String(); !strings.Contains(js, "solves") {
		t.Errorf("expvar summary looks empty: %s", js)
	}
}

// TestSolutionTraceNilWithoutOption: tracing is opt-in; an untraced solve
// must not carry a trace.
func TestSolutionTraceNilWithoutOption(t *testing.T) {
	s, err := NewSolver(EngineSimplex)
	if err != nil {
		t.Fatalf("NewSolver: %v", err)
	}
	sol, err := s.Solve(context.Background(), dietLP(t))
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if sol.Trace() != nil {
		t.Error("untraced solve returned a trace")
	}
}

// benchmarkSolve runs the same seeded noisy crossbar solve with and without
// the ring-sink recorder, so the pair isolates tracing's end-to-end overhead
// (go test -run '^$' -bench 'BenchmarkSolve(Traced|Untraced)').
func benchmarkSolve(b *testing.B, traced bool) {
	p := feasibleLP(b, 16, 7)
	opts := []Option{WithSeed(3), WithVariation(0.05), WithCycleNoise(0.25)}
	if traced {
		opts = append(opts, WithTrace(0))
	}
	s, err := NewSolver(EngineCrossbar, opts...)
	if err != nil {
		b.Fatalf("NewSolver: %v", err)
	}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Solve(ctx, p); err != nil {
			b.Fatalf("Solve: %v", err)
		}
	}
}

func BenchmarkSolveUntraced(b *testing.B) { benchmarkSolve(b, false) }
func BenchmarkSolveTraced(b *testing.B)   { benchmarkSolve(b, true) }

// TestDiagnosticsOnSuccessfulBatch pins the satellite fix at the public
// surface: with write-verify configured, every Solution of a successful
// batch carries Diagnostics with the modeled energy populated.
func TestDiagnosticsOnSuccessfulBatch(t *testing.T) {
	problems := poolBatch(t, 4, 8, 3)
	s, err := NewSolver(EngineCrossbar, WithParallelism(2), WithSeed(5), WithWriteVerify(3, 0.05))
	if err != nil {
		t.Fatalf("NewSolver: %v", err)
	}
	sols, err := s.SolveBatch(context.Background(), problems)
	if err != nil {
		t.Fatalf("SolveBatch: %v", err)
	}
	for i, sol := range sols {
		d := sol.Diagnostics
		if d == nil {
			t.Fatalf("batch solution %d has no Diagnostics despite write-verify", i)
		}
		if d.Attempts != 1 {
			t.Errorf("solution %d: Attempts = %d, want 1", i, d.Attempts)
		}
		if d.EnergyJoules <= 0 {
			t.Errorf("solution %d: EnergyJoules = %v, want > 0", i, d.EnergyJoules)
		}
	}
}

// TestDiagnosticsEnergyIsHardwareEnergy: a Solution's Diagnostics energy is
// its hardware estimate's energy, bit for bit, priced once by the public
// layer: NoC transfers included on the Newton engines under WithNoC, on
// PDHG, and on every member of a pooled batch (the first carries the pool's
// programming, as its Hardware does).
func TestDiagnosticsEnergyIsHardwareEnergy(t *testing.T) {
	ctx := context.Background()
	p, err := GenerateFeasible(9, 0, 5)
	if err != nil {
		t.Fatal(err)
	}
	check := func(name string, sol *Solution) {
		t.Helper()
		if sol.Diagnostics == nil || sol.Hardware == nil {
			t.Fatalf("%s: Diagnostics %v, Hardware %v", name, sol.Diagnostics, sol.Hardware)
		}
		if d, hw := sol.Diagnostics.EnergyJoules, sol.Hardware.EnergyJoules; math.Float64bits(d) != math.Float64bits(hw) || !(d > 0) {
			t.Errorf("%s: Diagnostics energy %.8g J, Hardware energy %.8g J", name, d, hw)
		}
	}
	for _, eng := range []Engine{EngineCrossbar, EngineCrossbarLargeScale} {
		sol, err := Solve(p, eng, WithWriteVerify(2, 0.01), WithNoC("mesh", 16))
		if err != nil {
			t.Fatalf("%v: %v", eng, err)
		}
		check(eng.String(), sol)
	}
	sol, err := Solve(p, EnginePDHG, WithNoC("mesh", 4), WithVariation(0.05))
	if err != nil {
		t.Fatalf("pdhg: %v", err)
	}
	check("pdhg", sol)
	s, err := NewSolver(EngineCrossbar, WithParallelism(2), WithWriteVerify(2, 0.01))
	if err != nil {
		t.Fatal(err)
	}
	sols, err := s.SolveBatch(ctx, poolBatch(t, 4, 9, 3))
	if err != nil {
		t.Fatalf("batch: %v", err)
	}
	for i, sol := range sols {
		check(fmt.Sprintf("batch member %d", i), sol)
	}
}
