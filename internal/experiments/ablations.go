package experiments

import (
	"fmt"
	"math"
	"time"

	"github.com/memlp/memlp/internal/core"
	"github.com/memlp/memlp/internal/crossbar"
	"github.com/memlp/memlp/internal/engine"
	"github.com/memlp/memlp/internal/lp"
	"github.com/memlp/memlp/internal/memristor"
	"github.com/memlp/memlp/internal/noc"
	"github.com/memlp/memlp/internal/perf"
	"github.com/memlp/memlp/internal/variation"
)

// AblationRow is one configuration point of an ablation sweep.
type AblationRow struct {
	// Label identifies the swept configuration (e.g. "theta=0.35",
	// "io-bits=6", "uniform", "mesh").
	Label string
	// MeanRelErr is the mean relative objective error vs the reference.
	MeanRelErr float64
	// OptimalRate is the fraction of trials that converged and passed the
	// α-check.
	OptimalRate float64
	// MeanIterations is the mean iteration count.
	MeanIterations float64
	// Latency is the mean modelled hardware latency (zero when the sweep
	// does not touch the cost model).
	Latency time.Duration
}

// ablationEval runs one solver configuration over the trial set and
// aggregates the standard ablation metrics.
func ablationEval(cfg Config, m int, build func(seed int64) (func(*lp.Problem) (*engine.Result, error), error)) (AblationRow, error) {
	var row AblationRow
	timing := memristor.DefaultTiming()
	var count int
	for trial := 0; trial < cfg.Trials; trial++ {
		if err := cfg.ctxErr(); err != nil {
			return row, fmt.Errorf("experiments: sweep canceled: %w", err)
		}
		seed := cfg.Seed + int64(trial)
		p, err := lp.GenerateFeasible(lp.GenConfig{Constraints: m, Seed: seed})
		if err != nil {
			return row, err
		}
		ref, err := reference(p)
		if err != nil {
			return row, err
		}
		solve, err := build(1000 + seed)
		if err != nil {
			return row, err
		}
		res, err := solve(p)
		if err != nil {
			return row, err
		}
		if res.Status == lp.StatusOptimal {
			row.OptimalRate++
		}
		row.MeanRelErr += math.Abs(res.Objective-ref) / (1 + math.Abs(ref))
		row.MeanIterations += float64(res.Iterations)
		row.Latency += perf.CrossbarCost(res.Counters, timing).Latency
		count++
	}
	row.MeanRelErr /= float64(count)
	row.MeanIterations /= float64(count)
	row.OptimalRate /= float64(count)
	row.Latency /= time.Duration(count)
	return row, nil
}

// AblationConstantStep (AB1) sweeps Algorithm 2's constant step length θ:
// the paper says adaptive steps break convergence and a constant θ is
// required; this sweep finds the usable band.
func AblationConstantStep(cfg Config, m int, thetas []float64) ([]AblationRow, error) {
	cfg = cfg.withDefaults()
	if len(thetas) == 0 {
		thetas = []float64{0.1, 0.2, 0.35, 0.5, 0.7, 0.9}
	}
	var rows []AblationRow
	for _, theta := range thetas {
		theta := theta
		row, err := ablationEval(cfg, m, func(seed int64) (func(*lp.Problem) (*engine.Result, error), error) {
			s, err := core.NewLargeScaleSolver(core.Options{
				Fabric:       core.SingleCrossbarFactory(crossbar.Config{}),
				ConstantStep: theta,
			})
			if err != nil {
				return nil, err
			}
			return s.Solve, nil
		})
		if err != nil {
			return nil, err
		}
		row.Label = formatLabel("theta", theta)
		rows = append(rows, row)
	}
	return rows, nil
}

// AblationFillers (AB2) compares Algorithm 2's default reduced-KKT coupling
// against the paper-literal εI fillers across filler magnitudes — the
// instability analysis in the LargeScaleSolver documentation, measured.
func AblationFillers(cfg Config, m int, regs []float64) ([]AblationRow, error) {
	cfg = cfg.withDefaults()
	if len(regs) == 0 {
		regs = []float64{0.001, 0.01, 0.1, 0.5}
	}
	var rows []AblationRow
	row, err := ablationEval(cfg, m, func(seed int64) (func(*lp.Problem) (*engine.Result, error), error) {
		s, err := core.NewLargeScaleSolver(core.Options{
			Fabric: core.SingleCrossbarFactory(crossbar.Config{}),
		})
		if err != nil {
			return nil, err
		}
		return s.Solve, nil
	})
	if err != nil {
		return nil, err
	}
	row.Label = "reduced-kkt (default)"
	rows = append(rows, row)
	for _, reg := range regs {
		reg := reg
		row, err := ablationEval(cfg, m, func(seed int64) (func(*lp.Problem) (*engine.Result, error), error) {
			s, err := core.NewLargeScaleSolver(core.Options{
				Fabric:         core.SingleCrossbarFactory(crossbar.Config{}),
				LiteralFillers: true,
				Regularization: reg,
			})
			if err != nil {
				return nil, err
			}
			return s.Solve, nil
		})
		if err != nil {
			return nil, err
		}
		row.Label = formatLabel("literal-eps", reg)
		rows = append(rows, row)
	}
	return rows, nil
}

// AblationIOBits (AB3) sweeps the DAC/ADC precision for Algorithm 1, in both
// converter-range modes.
func AblationIOBits(cfg Config, m int, bits []int) ([]AblationRow, error) {
	cfg = cfg.withDefaults()
	if len(bits) == 0 {
		bits = []int{4, 6, 8, 10, 12}
	}
	var rows []AblationRow
	for _, global := range []bool{false, true} {
		for _, b := range bits {
			b, global := b, global
			row, err := ablationEval(cfg, m, func(seed int64) (func(*lp.Problem) (*engine.Result, error), error) {
				s, err := core.NewSolver(core.Options{
					AnalogResidual: true,
					Fabric:         core.SingleCrossbarFactory(crossbar.Config{IOBits: b, GlobalIORange: global}),
				})
				if err != nil {
					return nil, err
				}
				return s.Solve, nil
			})
			if err != nil {
				return nil, err
			}
			mode := "per-element"
			if global {
				mode = "global-range"
			}
			row.Label = formatLabel(mode+"/io-bits", float64(b))
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// AblationVariationModel (AB4) compares variation distributions (the paper
// assumes uniform) and cycle-to-cycle write noise at a fixed magnitude.
func AblationVariationModel(cfg Config, m int, magnitude float64) ([]AblationRow, error) {
	cfg = cfg.withDefaults()
	if magnitude == 0 {
		magnitude = 0.10
	}
	type variant struct {
		label string
		dist  variation.Distribution
		cycle float64
	}
	variants := []variant{
		{"uniform (paper)", variation.Uniform, 0},
		{"gaussian", variation.Gaussian, 0},
		{"lognormal", variation.Lognormal, 0},
		{"uniform+cycle-noise", variation.Uniform, 0.5},
	}
	var rows []AblationRow
	for _, vt := range variants {
		vt := vt
		row, err := ablationEval(cfg, m, func(seed int64) (func(*lp.Problem) (*engine.Result, error), error) {
			vm, err := variation.NewModel(vt.dist, magnitude, seed)
			if err != nil {
				return nil, err
			}
			s, err := core.NewSolver(core.Options{
				AnalogResidual: true,
				Fabric:         core.SingleCrossbarFactory(crossbar.Config{Variation: vm, CycleNoise: vt.cycle}),
				Alpha:          1.05 + 2*magnitude,
			})
			if err != nil {
				return nil, err
			}
			return s.Solve, nil
		})
		if err != nil {
			return nil, err
		}
		row.Label = vt.label
		rows = append(rows, row)
	}
	return rows, nil
}

// AblationNoC (AB5) compares the two Fig. 3 interconnects at a fixed tile
// size, reporting accuracy plus the interconnect-inclusive latency: each
// solve's crossbar cost plus its own NoC transfers, priced as the public
// layer prices them.
func AblationNoC(cfg Config, m, tileSize int) ([]AblationRow, error) {
	cfg = cfg.withDefaults()
	if tileSize == 0 {
		tileSize = 32
	}
	var rows []AblationRow
	for _, topo := range []noc.Topology{noc.Hierarchical, noc.Mesh} {
		nocCfg, err := noc.Config{Topology: topo, TileSize: tileSize}.Resolve()
		if err != nil {
			return nil, err
		}
		var nocLat time.Duration
		row, err := ablationEval(cfg, m, func(seed int64) (func(*lp.Problem) (*engine.Result, error), error) {
			s, err := core.NewSolver(core.Options{
				AnalogResidual: true,
				Fabric:         func(int) (core.Fabric, error) { return noc.New(nocCfg) },
			})
			if err != nil {
				return nil, err
			}
			return func(p *lp.Problem) (*engine.Result, error) {
				res, err := s.Solve(p)
				if err == nil {
					nocLat += perf.NoCCost(res.NoC, nocCfg).Latency
				}
				return res, err
			}, nil
		})
		if err != nil {
			return nil, err
		}
		row.Latency += nocLat / time.Duration(cfg.Trials)
		row.Label = topo.String()
		rows = append(rows, row)
	}
	return rows, nil
}

// AblationWriteBits (AB6) sweeps the conductance write precision for
// Algorithm 1.
func AblationWriteBits(cfg Config, m int, bits []int) ([]AblationRow, error) {
	cfg = cfg.withDefaults()
	if len(bits) == 0 {
		bits = []int{6, 8, 10, 12, 14, 16}
	}
	var rows []AblationRow
	for _, b := range bits {
		b := b
		row, err := ablationEval(cfg, m, func(seed int64) (func(*lp.Problem) (*engine.Result, error), error) {
			s, err := core.NewSolver(core.Options{
				AnalogResidual: true,
				Fabric:         core.SingleCrossbarFactory(crossbar.Config{WriteBits: b}),
			})
			if err != nil {
				return nil, err
			}
			return s.Solve, nil
		})
		if err != nil {
			return nil, err
		}
		row.Label = formatLabel("write-bits", float64(b))
		rows = append(rows, row)
	}
	return rows, nil
}

// AblationWireResistance (AB7) sweeps the crossbar metal-line resistance
// (IR drop) for Algorithm 1 — a first-order parasitic the paper idealizes
// away. Units are ohms per crossbar segment.
func AblationWireResistance(cfg Config, m int, resistances []float64) ([]AblationRow, error) {
	cfg = cfg.withDefaults()
	if len(resistances) == 0 {
		resistances = []float64{0, 0.5, 1, 2, 5}
	}
	var rows []AblationRow
	for _, rw := range resistances {
		rw := rw
		row, err := ablationEval(cfg, m, func(seed int64) (func(*lp.Problem) (*engine.Result, error), error) {
			s, err := core.NewSolver(core.Options{
				AnalogResidual: true,
				Fabric:         core.SingleCrossbarFactory(crossbar.Config{WireResistance: rw}),
			})
			if err != nil {
				return nil, err
			}
			return s.Solve, nil
		})
		if err != nil {
			return nil, err
		}
		row.Label = formatLabel("wire-ohms", rw)
		rows = append(rows, row)
	}
	return rows, nil
}

func formatLabel(prefix string, v float64) string {
	//memlpvet:ignore floatcmp math.Trunc integrality probe, cosmetic label formatting only
	if v == math.Trunc(v) {
		return fmt.Sprintf("%s=%d", prefix, int(v))
	}
	return fmt.Sprintf("%s=%g", prefix, v)
}
