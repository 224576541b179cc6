package experiments

import (
	"fmt"
	"math"

	"github.com/memlp/memlp/internal/core"
	"github.com/memlp/memlp/internal/crossbar"
	"github.com/memlp/memlp/internal/engine"
	"github.com/memlp/memlp/internal/lp"
	"github.com/memlp/memlp/internal/memristor"
)

// YieldRow is one (m, density) point of the yield-vs-fault-density sweep.
type YieldRow struct {
	M       int
	Density float64 // total stuck-cell density (split evenly ON/OFF)
	// FirstTryRate is the fraction of trials the analog fabric solved
	// optimally on the first attempt, defects and all.
	FirstTryRate float64
	// RecoveredRate is the fraction rescued in-fabric by the re-solve or
	// remap rungs (still StatusOptimal).
	RecoveredRate float64
	// DegradedRate is the fraction that fell through to the software rung
	// (StatusDegraded: correct answer, not computed in-memory).
	DegradedRate float64
	// FailureRate is the fraction with no usable answer at all.
	FailureRate float64
	// Yield is FirstTryRate + RecoveredRate: how often the fabric itself
	// delivers the optimum.
	Yield float64
	// MeanRelErr is the mean relative objective error of the in-fabric
	// optimal results versus the software reference.
	MeanRelErr float64
	// MeanStuck is the mean number of stuck cells in the mapped region.
	MeanStuck float64
	// MeanRetries is the mean write-verify corrective-pulse count per trial.
	MeanRetries float64
}

// YieldVsFaultDensity measures how gracefully the chosen crossbar algorithm
// degrades as stuck-cell density grows, with the full recovery ladder
// (re-solve → remap → software fallback) and write-verify programming
// enabled. It is the fault-tolerance analogue of the paper's §4.3 variation
// sweep: instead of asking "how much analog noise can the PDIP loop absorb?"
// it asks "how many dead devices can the stack route around before the
// answer stops coming out of the fabric?".
//
// Empty densities means {0, 0.001, 0.005, 0.01, 0.02, 0.05}. writeRetries
// is the write-verify budget per cell (0 disables verification).
func YieldVsFaultDensity(alg Algorithm, cfg Config, densities []float64, writeRetries int) ([]YieldRow, error) {
	cfg = cfg.withDefaults()
	if len(densities) == 0 {
		densities = []float64{0, 0.001, 0.005, 0.01, 0.02, 0.05}
	}
	var rows []YieldRow
	for _, m := range cfg.Sizes {
		for _, d := range densities {
			row := YieldRow{M: m, Density: d}
			var optCount int
			for trial := 0; trial < cfg.Trials; trial++ {
				if err := cfg.ctxErr(); err != nil {
					return nil, fmt.Errorf("experiments: sweep canceled: %w", err)
				}
				seed := cfg.Seed + int64(trial)
				p, err := lp.GenerateFeasible(lp.GenConfig{Constraints: m, Seed: seed})
				if err != nil {
					return nil, err
				}
				ref, err := reference(p)
				if err != nil {
					return nil, err
				}
				solve, err := faultySolverFor(alg, d, writeRetries, 1000+seed)
				if err != nil {
					return nil, err
				}
				res, err := solve(p)
				if err != nil {
					return nil, err
				}
				if diag := res.Diagnostics; diag != nil {
					row.MeanStuck += float64(diag.StuckOn + diag.StuckOff)
					row.MeanRetries += float64(diag.WriteRetries)
				}
				switch {
				case res.Status == lp.StatusOptimal && recoveredInFabric(res):
					row.RecoveredRate++
				case res.Status == lp.StatusOptimal:
					row.FirstTryRate++
				case res.Status == lp.StatusDegraded:
					row.DegradedRate++
				default:
					row.FailureRate++
				}
				if res.Status == lp.StatusOptimal {
					row.MeanRelErr += math.Abs(res.Objective-ref) / (1 + math.Abs(ref))
					optCount++
				}
			}
			n := float64(cfg.Trials)
			row.FirstTryRate /= n
			row.RecoveredRate /= n
			row.DegradedRate /= n
			row.FailureRate /= n
			row.Yield = row.FirstTryRate + row.RecoveredRate
			row.MeanStuck /= n
			row.MeanRetries /= n
			if optCount > 0 {
				row.MeanRelErr /= float64(optCount)
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// recoveredInFabric reports whether the result came from a ladder rung that
// still used the analog fabric (re-solve or remap).
func recoveredInFabric(res *engine.Result) bool {
	return res.Diagnostics != nil &&
		(res.Diagnostics.RecoveredBy == "resolve" || res.Diagnostics.RecoveredBy == "remap")
}

// faultySolverFor builds a crossbar solver with seeded stuck cells,
// write-verify programming, and the full recovery ladder.
func faultySolverFor(alg Algorithm, density float64, writeRetries int, seed int64) (func(*lp.Problem) (*engine.Result, error), error) {
	xcfg := crossbar.Config{MaxWriteRetries: writeRetries}
	if density > 0 {
		fm := memristor.FaultModel{
			StuckOnDensity:  density / 2,
			StuckOffDensity: density / 2,
			Seed:            seed,
		}
		if err := fm.Validate(); err != nil {
			return nil, err
		}
		xcfg.Faults = &fm
	}
	opts := core.Options{
		Fabric:   core.SingleCrossbarFactory(xcfg),
		Recovery: &core.RecoveryPolicy{Remap: true, SoftwareFallback: true},
	}
	switch alg {
	case Algorithm1:
		s, err := core.NewSolver(opts)
		if err != nil {
			return nil, err
		}
		return s.Solve, nil
	case Algorithm2:
		s, err := core.NewLargeScaleSolver(opts)
		if err != nil {
			return nil, err
		}
		return s.Solve, nil
	default:
		return nil, fmt.Errorf("experiments: unknown algorithm %d", int(alg))
	}
}
