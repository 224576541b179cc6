package experiments

import (
	"fmt"
	"math"

	"github.com/memlp/memlp/internal/core"
	"github.com/memlp/memlp/internal/crossbar"
	"github.com/memlp/memlp/internal/noc"
	"github.com/memlp/memlp/internal/variation"
)

// AblationRow is one configuration point of an ablation sweep.
type AblationRow struct {
	// Label identifies the swept configuration (e.g. "theta=0.35",
	// "io-bits=6", "uniform", "mesh").
	Label string
	Stats
}

// ablate evaluates each arm at m constraints, one row per arm in order.
func ablate(cfg Config, m int, arms []arm) ([]AblationRow, error) {
	cfg = cfg.withDefaults()
	rows := make([]AblationRow, 0, len(arms))
	for _, a := range arms {
		st, err := cfg.evaluate(m, a)
		if err != nil {
			return nil, err
		}
		rows = append(rows, AblationRow{Label: a.label, Stats: st})
	}
	return rows, nil
}

// AblationConstantStep (AB1) sweeps Algorithm 2's constant step length θ:
// the paper says adaptive steps break convergence and a constant θ is
// required; this sweep finds the usable band.
func AblationConstantStep(cfg Config, m int, thetas []float64) ([]AblationRow, error) {
	if len(thetas) == 0 {
		thetas = []float64{0.1, 0.2, 0.35, 0.5, 0.7, 0.9}
	}
	var arms []arm
	for _, theta := range thetas {
		arms = append(arms, arm{label: formatLabel("theta", theta), alg: Algorithm2,
			opts: core.Options{ConstantStep: theta}})
	}
	return ablate(cfg, m, arms)
}

// AblationFillers (AB2) compares Algorithm 2's default reduced-KKT coupling
// against the paper-literal εI fillers across filler magnitudes — the
// instability analysis in the LargeScaleSolver documentation, measured.
func AblationFillers(cfg Config, m int, regs []float64) ([]AblationRow, error) {
	if len(regs) == 0 {
		regs = []float64{0.001, 0.01, 0.1, 0.5}
	}
	arms := []arm{{label: "reduced-kkt (default)", alg: Algorithm2}}
	for _, reg := range regs {
		arms = append(arms, arm{label: formatLabel("literal-eps", reg), alg: Algorithm2,
			opts: core.Options{LiteralFillers: true, Regularization: reg}})
	}
	return ablate(cfg, m, arms)
}

// AblationIOBits (AB3) sweeps the DAC/ADC precision for Algorithm 1, in both
// converter-range modes.
func AblationIOBits(cfg Config, m int, bits []int) ([]AblationRow, error) {
	if len(bits) == 0 {
		bits = []int{4, 6, 8, 10, 12}
	}
	var arms []arm
	for _, global := range []bool{false, true} {
		mode := "per-element"
		if global {
			mode = "global-range"
		}
		for _, b := range bits {
			arms = append(arms, arm{label: formatLabel(mode+"/io-bits", float64(b)), alg: Algorithm1,
				xbar: crossbar.Config{IOBits: b, GlobalIORange: global}})
		}
	}
	return ablate(cfg, m, arms)
}

// AblationVariationModel (AB4) compares variation distributions (the paper
// assumes uniform) and cycle-to-cycle write noise at a fixed magnitude.
func AblationVariationModel(cfg Config, m int, magnitude float64) ([]AblationRow, error) {
	if magnitude == 0 {
		magnitude = 0.10
	}
	arms := []arm{
		{label: "uniform (paper)", dist: variation.Uniform},
		{label: "gaussian", dist: variation.Gaussian},
		{label: "lognormal", dist: variation.Lognormal},
		{label: "uniform+cycle-noise", dist: variation.Uniform, xbar: crossbar.Config{CycleNoise: 0.5}},
	}
	for i := range arms {
		arms[i].alg, arms[i].v = Algorithm1, magnitude
	}
	return ablate(cfg, m, arms)
}

// AblationNoC (AB5) compares the two Fig. 3 interconnects at a fixed tile
// size, reporting accuracy plus the interconnect-inclusive latency: each
// solve's crossbar cost plus its own NoC transfers, priced as the public
// layer prices them.
func AblationNoC(cfg Config, m, tileSize int) ([]AblationRow, error) {
	if tileSize == 0 {
		tileSize = 32
	}
	var arms []arm
	for _, topo := range []noc.Topology{noc.Hierarchical, noc.Mesh} {
		nc, err := noc.Config{Topology: topo, TileSize: tileSize}.Resolve()
		if err != nil {
			return nil, err
		}
		arms = append(arms, arm{label: topo.String(), alg: Algorithm1, noc: nc})
	}
	return ablate(cfg, m, arms)
}

// AblationWriteBits (AB6) sweeps the conductance write precision for
// Algorithm 1.
func AblationWriteBits(cfg Config, m int, bits []int) ([]AblationRow, error) {
	if len(bits) == 0 {
		bits = []int{6, 8, 10, 12, 14, 16}
	}
	var arms []arm
	for _, b := range bits {
		arms = append(arms, arm{label: formatLabel("write-bits", float64(b)), alg: Algorithm1,
			xbar: crossbar.Config{WriteBits: b}})
	}
	return ablate(cfg, m, arms)
}

// AblationWireResistance (AB7) sweeps the crossbar metal-line resistance
// (IR drop) for Algorithm 1 — a first-order parasitic the paper idealizes
// away. Units are ohms per crossbar segment.
func AblationWireResistance(cfg Config, m int, resistances []float64) ([]AblationRow, error) {
	if len(resistances) == 0 {
		resistances = []float64{0, 0.5, 1, 2, 5}
	}
	var arms []arm
	for _, rw := range resistances {
		arms = append(arms, arm{label: formatLabel("wire-ohms", rw), alg: Algorithm1,
			xbar: crossbar.Config{WireResistance: rw}})
	}
	return ablate(cfg, m, arms)
}

func formatLabel(prefix string, v float64) string {
	//memlpvet:ignore floatcmp math.Trunc integrality probe, cosmetic label formatting only
	if v == math.Trunc(v) {
		return fmt.Sprintf("%s=%d", prefix, int(v))
	}
	return fmt.Sprintf("%s=%g", prefix, v)
}
