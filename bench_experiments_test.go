package memlp_test

// One benchmark per table and figure of the paper's evaluation (§4), plus
// the DESIGN.md ablations. Each benchmark drives the same harness as
// cmd/benchtables at a reduced per-iteration scale, and reports the paper's
// key quantities as custom benchmark metrics (relative error in percent,
// modelled hardware latency and energy, speed-up factors) so `go test
// -bench` output captures the reproduction figures directly.
//
// External test package: internal/experiments imports neither memlp nor the
// serving layer, so nothing forces it; the benchmarks use only the harness's
// exported API, as cmd/benchtables does, and none of memlp's internals.
//
// The full paper-scale sweep (m up to 1024, 100 trials per point) is run via
// `go run ./cmd/benchtables -sizes 4,16,64,256,1024 -trials 100`; the
// benchmarks here use small instance counts so the whole suite stays
// minutes, not hours.

import (
	"testing"

	"github.com/memlp/memlp/internal/experiments"
)

// benchConfig is the reduced-scale configuration shared by the benchmarks.
func benchConfig() experiments.Config {
	return experiments.Config{
		Sizes:      []int{16, 64},
		Variations: []float64{0, 0.10},
		Trials:     2,
	}
}

// BenchmarkFig5aAccuracy reproduces Fig. 5(a): Algorithm 1 objective error
// versus the software reference across sizes and variation levels.
func BenchmarkFig5aAccuracy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Accuracy(experiments.Algorithm1, benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		last := rows[len(rows)-1]
		b.ReportMetric(last.MeanRelErr*100, "relerr-%")
		b.ReportMetric(last.MeanIterations, "iters")
	}
}

// BenchmarkFig5bAccuracy reproduces Fig. 5(b): Algorithm 2 accuracy.
func BenchmarkFig5bAccuracy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Accuracy(experiments.Algorithm2, benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		last := rows[len(rows)-1]
		b.ReportMetric(last.MeanRelErr*100, "relerr-%")
		b.ReportMetric(last.MeanIterations, "iters")
	}
}

// BenchmarkFig6aLatency reproduces Fig. 6(a): Algorithm 1 modelled hardware
// latency versus measured software baselines.
func BenchmarkFig6aLatency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.LatencyEnergy(experiments.Algorithm1, benchConfig(), false)
		if err != nil {
			b.Fatal(err)
		}
		last := rows[len(rows)-1]
		b.ReportMetric(float64(last.Crossbar.Microseconds()), "hw-µs")
		b.ReportMetric(float64(last.SoftwareReduced.Microseconds()), "sw-µs")
		b.ReportMetric(last.Speedup, "speedup-x")
	}
}

// BenchmarkFig6bLatency reproduces Fig. 6(b): Algorithm 2 latency.
func BenchmarkFig6bLatency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.LatencyEnergy(experiments.Algorithm2, benchConfig(), false)
		if err != nil {
			b.Fatal(err)
		}
		last := rows[len(rows)-1]
		b.ReportMetric(float64(last.Crossbar.Microseconds()), "hw-µs")
		b.ReportMetric(last.Speedup, "speedup-x")
	}
}

// BenchmarkFig7aEnergy reproduces Fig. 7(a): Algorithm 1 modelled energy
// versus the software baseline's measured-time × CPU-power energy.
func BenchmarkFig7aEnergy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.LatencyEnergy(experiments.Algorithm1, benchConfig(), false)
		if err != nil {
			b.Fatal(err)
		}
		last := rows[len(rows)-1]
		b.ReportMetric(last.CrossbarEnergy*1e3, "hw-mJ")
		b.ReportMetric(last.EnergyGain, "gain-x")
	}
}

// BenchmarkFig7bEnergy reproduces Fig. 7(b): Algorithm 2 energy.
func BenchmarkFig7bEnergy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.LatencyEnergy(experiments.Algorithm2, benchConfig(), false)
		if err != nil {
			b.Fatal(err)
		}
		last := rows[len(rows)-1]
		b.ReportMetric(last.CrossbarEnergy*1e3, "hw-mJ")
		b.ReportMetric(last.EnergyGain, "gain-x")
	}
}

// BenchmarkInfeasibleDetection reproduces the §4.4 text comparison:
// how fast contradictory instances are flagged.
func BenchmarkInfeasibleDetection(b *testing.B) {
	cfg := benchConfig()
	cfg.Variations = []float64{0.10}
	for i := 0; i < b.N; i++ {
		rows, err := experiments.InfeasibleDetection(experiments.Algorithm1, cfg)
		if err != nil {
			b.Fatal(err)
		}
		last := rows[len(rows)-1]
		b.ReportMetric(last.DetectionRate*100, "detected-%")
		b.ReportMetric(last.Speedup, "speedup-x")
	}
}

// BenchmarkIterationCounts reproduces the §4.3/§4.4 iteration-count
// observations: Algorithm 1's count grows with variation while Algorithm 2's
// stays flat.
func BenchmarkIterationCounts(b *testing.B) {
	cfg := benchConfig()
	cfg.Sizes = []int{16}
	for i := 0; i < b.N; i++ {
		rows, err := experiments.IterationCounts(cfg)
		if err != nil {
			b.Fatal(err)
		}
		last := rows[len(rows)-1]
		b.ReportMetric(last.Algorithm1, "alg1-iters")
		b.ReportMetric(last.Algorithm2, "alg2-iters")
	}
}

// BenchmarkVariationSensitivity reproduces the §4.3 "linprog on perturbed
// matrices" check: the intrinsic sensitivity of exact LP optima to static
// coefficient perturbation.
func BenchmarkVariationSensitivity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.VariationSensitivity(benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		last := rows[len(rows)-1]
		b.ReportMetric(last.MeanRelErr*100, "relerr-%")
	}
}

// --- ablations (AB1–AB6 in DESIGN.md) ------------------------------------

func ablationBench(b *testing.B, run func() ([]experiments.AblationRow, error)) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		rows, err := run()
		if err != nil {
			b.Fatal(err)
		}
		var worst float64
		for _, r := range rows {
			if r.MeanRelErr > worst {
				worst = r.MeanRelErr
			}
		}
		b.ReportMetric(worst*100, "worst-relerr-%")
	}
}

// BenchmarkAblationConstantStep is AB1: Algorithm 2's θ sweep.
func BenchmarkAblationConstantStep(b *testing.B) {
	cfg := experiments.Config{Trials: 2}
	ablationBench(b, func() ([]experiments.AblationRow, error) {
		return experiments.AblationConstantStep(cfg, 16, []float64{0.2, 0.5})
	})
}

// BenchmarkAblationFillers is AB2: reduced-KKT coupling vs literal εI.
func BenchmarkAblationFillers(b *testing.B) {
	cfg := experiments.Config{Trials: 2}
	ablationBench(b, func() ([]experiments.AblationRow, error) {
		return experiments.AblationFillers(cfg, 16, []float64{0.01})
	})
}

// BenchmarkAblationIOBits is AB3: converter precision sweep.
func BenchmarkAblationIOBits(b *testing.B) {
	cfg := experiments.Config{Trials: 2}
	ablationBench(b, func() ([]experiments.AblationRow, error) {
		return experiments.AblationIOBits(cfg, 16, []int{6, 8})
	})
}

// BenchmarkAblationVariationModel is AB4: variation distribution comparison.
func BenchmarkAblationVariationModel(b *testing.B) {
	cfg := experiments.Config{Trials: 2}
	ablationBench(b, func() ([]experiments.AblationRow, error) {
		return experiments.AblationVariationModel(cfg, 16, 0.10)
	})
}

// BenchmarkAblationNoC is AB5: hierarchical vs mesh interconnect.
func BenchmarkAblationNoC(b *testing.B) {
	cfg := experiments.Config{Trials: 2}
	ablationBench(b, func() ([]experiments.AblationRow, error) {
		return experiments.AblationNoC(cfg, 16, 16)
	})
}

// BenchmarkAblationWriteBits is AB6: write-precision sweep.
func BenchmarkAblationWriteBits(b *testing.B) {
	cfg := experiments.Config{Trials: 2}
	ablationBench(b, func() ([]experiments.AblationRow, error) {
		return experiments.AblationWriteBits(cfg, 16, []int{10, 14})
	})
}
