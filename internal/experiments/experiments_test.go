package experiments

import (
	"testing"

	"github.com/memlp/memlp/internal/noc"
)

// tinyConfig keeps harness tests fast.
func tinyConfig() Config {
	return Config{Sizes: []int{9}, Variations: []float64{0, 0.10}, Trials: 2}
}

func TestAccuracyAlgorithm1(t *testing.T) {
	rows, err := Accuracy(Algorithm1, tinyConfig())
	if err != nil {
		t.Fatalf("Accuracy: %v", err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(rows))
	}
	for _, r := range rows {
		if r.M != 9 || r.N != 3 {
			t.Errorf("dims = (%d, %d)", r.M, r.N)
		}
		if r.MeanRelErr < 0 || r.MeanRelErr > 0.5 {
			t.Errorf("var %v: mean rel err %v out of plausible range", r.Variation, r.MeanRelErr)
		}
		if r.MaxRelErr < r.MeanRelErr {
			t.Errorf("max < mean: %v < %v", r.MaxRelErr, r.MeanRelErr)
		}
		if r.MeanIterations <= 0 {
			t.Error("iterations not recorded")
		}
	}
}

func TestAccuracyAlgorithm2(t *testing.T) {
	rows, err := Accuracy(Algorithm2, tinyConfig())
	if err != nil {
		t.Fatalf("Accuracy: %v", err)
	}
	if len(rows) == 0 {
		t.Fatal("no rows")
	}
}

func TestAccuracyUnknownAlgorithm(t *testing.T) {
	if _, err := Accuracy(Algorithm(9), tinyConfig()); err == nil {
		t.Error("unknown algorithm accepted")
	}
}

func TestLatencyEnergy(t *testing.T) {
	rows, err := LatencyEnergy(Algorithm1, tinyConfig(), true)
	if err != nil {
		t.Fatalf("LatencyEnergy: %v", err)
	}
	for _, r := range rows {
		if r.SoftwareReduced <= 0 || r.SoftwareFull <= 0 || r.Simplex <= 0 {
			t.Errorf("software timings not measured: %+v", r)
		}
		if r.Crossbar <= 0 || r.CrossbarEnergy <= 0 {
			t.Errorf("crossbar estimate not populated: %+v", r)
		}
		if r.Speedup <= 0 || r.EnergyGain <= 0 {
			t.Errorf("ratios not computed: %+v", r)
		}
	}
}

func TestInfeasibleDetection(t *testing.T) {
	cfg := tinyConfig()
	cfg.Variations = []float64{0}
	rows, err := InfeasibleDetection(Algorithm1, cfg)
	if err != nil {
		t.Fatalf("InfeasibleDetection: %v", err)
	}
	for _, r := range rows {
		if r.DetectionRate < 0.5 {
			t.Errorf("detection rate %v below 50%%", r.DetectionRate)
		}
	}
}

func TestVariationSensitivity(t *testing.T) {
	rows, err := VariationSensitivity(tinyConfig())
	if err != nil {
		t.Fatalf("VariationSensitivity: %v", err)
	}
	// var=0 rows are skipped.
	if len(rows) != 1 {
		t.Fatalf("rows = %d, want 1", len(rows))
	}
	if rows[0].MeanRelErr <= 0 {
		t.Error("perturbation had no effect on the exact optimum")
	}
}

func TestIterationCounts(t *testing.T) {
	cfg := tinyConfig()
	rows, err := IterationCounts(cfg)
	if err != nil {
		t.Fatalf("IterationCounts: %v", err)
	}
	for _, r := range rows {
		if r.Algorithm1 <= 0 || r.Algorithm2 <= 0 {
			t.Errorf("iteration counts missing: %+v", r)
		}
	}
}

func TestAblations(t *testing.T) {
	cfg := Config{Trials: 1}
	t.Run("constant-step", func(t *testing.T) {
		rows, err := AblationConstantStep(cfg, 9, []float64{0.35})
		if err != nil || len(rows) != 1 {
			t.Fatalf("rows=%d err=%v", len(rows), err)
		}
	})
	t.Run("fillers", func(t *testing.T) {
		rows, err := AblationFillers(cfg, 9, []float64{0.01})
		if err != nil || len(rows) != 2 {
			t.Fatalf("rows=%d err=%v", len(rows), err)
		}
		if rows[0].Label != "reduced-kkt (default)" {
			t.Errorf("label = %q", rows[0].Label)
		}
	})
	t.Run("io-bits", func(t *testing.T) {
		rows, err := AblationIOBits(cfg, 9, []int{8})
		if err != nil || len(rows) != 2 { // per-element + global-range
			t.Fatalf("rows=%d err=%v", len(rows), err)
		}
	})
	t.Run("variation-model", func(t *testing.T) {
		rows, err := AblationVariationModel(cfg, 9, 0.1)
		if err != nil || len(rows) != 4 {
			t.Fatalf("rows=%d err=%v", len(rows), err)
		}
	})
	t.Run("noc", func(t *testing.T) {
		rows, err := AblationNoC(cfg, 9, 16)
		if err != nil || len(rows) != 2 {
			t.Fatalf("rows=%d err=%v", len(rows), err)
		}
		for _, r := range rows {
			if r.Latency <= 0 {
				t.Errorf("%s: latency not populated", r.Label)
			}
		}
	})
	t.Run("write-bits", func(t *testing.T) {
		rows, err := AblationWriteBits(cfg, 9, []int{14})
		if err != nil || len(rows) != 1 {
			t.Fatalf("rows=%d err=%v", len(rows), err)
		}
	})
}

// TestAblationNoCPricesTheInterconnect pins that AB5's latency includes each
// solve's NoC transfers at the resolved hop latency: the two topologies
// move the same data over different distances, so their rows differ, and
// each exceeds the crossbar-only latency of the same solves.
func TestAblationNoCPricesTheInterconnect(t *testing.T) {
	cfg := Config{Trials: 2}
	const m, tile = 9, 16
	rows, err := AblationNoC(cfg, m, tile)
	if err != nil || len(rows) != 2 {
		t.Fatalf("rows=%d err=%v", len(rows), err)
	}
	// An unresolved interconnect prices every hop at zero, so this arm's
	// latency is the crossbar's alone.
	bare, err := cfg.withDefaults().evaluate(m, arm{alg: Algorithm1, noc: noc.Config{TileSize: tile}})
	if err != nil {
		t.Fatal(err)
	}
	if rows[0].Latency == rows[1].Latency {
		t.Errorf("%s and %s both priced at %v", rows[0].Label, rows[1].Label, rows[0].Latency)
	}
	for _, r := range rows {
		if r.Latency <= bare.Latency {
			t.Errorf("%s: latency %v, want more than the crossbar-only %v", r.Label, r.Latency, bare.Latency)
		}
	}
}

func TestAlgorithmString(t *testing.T) {
	if Algorithm1.String() != "algorithm-1" || Algorithm2.String() != "algorithm-2" {
		t.Error("Algorithm.String wrong")
	}
	if Algorithm(5).String() == "" {
		t.Error("unknown algorithm String empty")
	}
}
