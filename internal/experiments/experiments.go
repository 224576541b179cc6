// Package experiments drives the paper's evaluation (§4): the accuracy
// sweeps of Fig. 5, the latency comparisons of Fig. 6, the energy
// comparisons of Fig. 7, the infeasibility-detection numbers of §4.4, and
// the ablations listed in DESIGN.md. Both cmd/benchtables and the
// repository-level benchmarks are thin wrappers around this package.
//
// The paper's setup (§4.2): the number of constraints m sweeps 4…1024
// geometrically with n = m/3 variables; 100 feasible and 100 infeasible
// instances per point; process variation var ∈ {0, 5%, 10%, 20%}; results
// are compared against Matlab linprog. Here the software references are the
// in-repo PDIP baselines, trial counts are configurable (the full 100×
// sweep at m = 1024 is hours of simulation on one core), and all instances
// are seeded for reproducibility.
package experiments

import (
	"context"
	"fmt"
	"math"
	"time"

	"github.com/memlp/memlp/internal/core"
	"github.com/memlp/memlp/internal/crossbar"
	"github.com/memlp/memlp/internal/engine"
	"github.com/memlp/memlp/internal/lp"
	"github.com/memlp/memlp/internal/memristor"
	"github.com/memlp/memlp/internal/noc"
	"github.com/memlp/memlp/internal/pdip"
	"github.com/memlp/memlp/internal/perf"
	"github.com/memlp/memlp/internal/simplex"
	"github.com/memlp/memlp/internal/trace"
	"github.com/memlp/memlp/internal/variation"
)

// Algorithm selects which crossbar solver an experiment exercises.
type Algorithm int

// The two solvers of the paper, and Algorithm 1's mixed-precision mode.
const (
	// Algorithm1 is the full crossbar PDIP solver (§3.2), reading its
	// residual from the array as the paper does.
	Algorithm1 Algorithm = iota + 1
	// Algorithm2 is the large-scale iterative solver (§3.4).
	Algorithm2
	// Algorithm1Mixed is Algorithm 1 with the residual computed digitally
	// from the true coefficients (the library default, DESIGN.md D20).
	Algorithm1Mixed
)

// String implements fmt.Stringer.
func (a Algorithm) String() string {
	switch a {
	case Algorithm1:
		return "algorithm-1"
	case Algorithm2:
		return "algorithm-2"
	case Algorithm1Mixed:
		return "algorithm-1-mixed"
	default:
		return fmt.Sprintf("Algorithm(%d)", int(a))
	}
}

// Config parameterizes a sweep.
type Config struct {
	// Sizes is the list of constraint counts m (n = m/3 per the paper).
	// Empty means {4, 16, 64, 256}.
	Sizes []int
	// Variations is the list of maximum process-variation fractions.
	// Empty means {0, 0.05, 0.10, 0.20} (§4.2).
	Variations []float64
	// Trials is the number of random instances per (m, var) point.
	// Zero means 5.
	Trials int
	// Seed offsets the instance stream.
	Seed int64
	// Context cancels a sweep between trials (a size-1024 point can run for
	// minutes). Nil means never canceled.
	Context context.Context
	// Trace, when non-nil, receives every crossbar solve's iteration records
	// (Engine stamped with the algorithm name) as the sweep runs; the batch
	// table's pooled solves are not traced.
	Trace trace.Sink
}

// ctxErr reports the sweep's cancellation state.
func (c Config) ctxErr() error {
	if c.Context == nil {
		return nil
	}
	return c.Context.Err()
}

func (c Config) withDefaults() Config {
	if len(c.Sizes) == 0 {
		c.Sizes = []int{4, 16, 64, 256}
	}
	if len(c.Variations) == 0 {
		c.Variations = []float64{0, 0.05, 0.10, 0.20}
	}
	if c.Trials == 0 {
		c.Trials = 5
	}
	return c
}

// arm is one configuration a sweep evaluates, as data: a table label, the
// algorithm, and the core options of a trial's solver. Every array takes
// xbar, with variation drawn from dist at magnitude v from the trial's
// device seed; the arrays tile over noc, the resolved interconnect each
// solve's transfers are priced on, unless it is zero (one array).
type arm struct {
	label string
	alg   Algorithm
	opts  core.Options
	xbar  crossbar.Config
	dist  variation.Distribution
	v     float64
	noc   noc.Config
}

// paper is the paper's §4.2 configuration of alg at variation v: one array
// with uniform variation.
func paper(alg Algorithm, v float64) arm {
	return arm{alg: alg, dist: variation.Uniform, v: v}
}

// fabric builds the arm's fabric from the array configuration x.
func (a arm) fabric(x crossbar.Config) core.FabricFactory {
	if a.noc == (noc.Config{}) {
		return core.SingleCrossbarFactory(x)
	}
	n := a.noc
	n.Crossbar = x
	return func(int) (core.Fabric, error) { return noc.New(n) }
}

// crossbarSolver is a built solver: Algorithm 1's *core.Solver (whose pool
// the batch sweep drives) or Algorithm 2's.
type crossbarSolver interface {
	Solve(*lp.Problem) (*engine.Result, error)
}

// solver builds arm a's crossbar solver for a trial's device seed, the one
// place a sweep's solver is made. A batch replica clones the variation
// model at its base seed, so every replica holds the same die; the α-check
// is relaxed by 2v; Algorithm 1 reads its residual from the array unless
// mixed; and the sweep's trace sink (if any) receives every record, stamped
// with the algorithm name.
func (c Config) solver(a arm, seed int64) (crossbarSolver, error) {
	x := a.xbar
	if a.v > 0 {
		vm, err := variation.NewModel(a.dist, a.v, seed)
		if err != nil {
			return nil, err
		}
		x.Variation = vm
	}
	opts := a.opts
	opts.Fabric = a.fabric(x)
	opts.ReplicaFabric = func(size int) (core.Fabric, error) {
		r := x
		if r.Variation != nil {
			r.Variation = r.Variation.Clone()
		}
		return a.fabric(r)(size)
	}
	opts.Alpha = 1.05 + 2*a.v
	opts.AnalogResidual = a.alg != Algorithm1Mixed
	if c.Trace != nil {
		sink, name := c.Trace, a.alg.String()
		opts.Trace = &core.TraceOptions{OnRecord: func(rec trace.Record) {
			rec.Engine = name
			sink.Emit(rec)
		}}
		opts.EnergyModel = func(cnt crossbar.Counters) float64 {
			return perf.CrossbarCost(cnt, memristor.DefaultTiming()).Energy
		}
	}
	switch a.alg {
	case Algorithm1, Algorithm1Mixed:
		return core.NewSolver(opts)
	case Algorithm2:
		return core.NewLargeScaleSolver(opts)
	}
	return nil, fmt.Errorf("experiments: unknown algorithm %d", int(a.alg))
}

// solve builds arm a's solver for a trial's device seed and runs it on p.
func (c Config) solve(a arm, seed int64, p *lp.Problem) (*engine.Result, error) {
	s, err := c.solver(a, seed)
	if err != nil {
		return nil, err
	}
	return s.Solve(p)
}

// reference solves p with the software PDIP reference and returns the
// optimal objective.
func reference(p *lp.Problem) (float64, error) {
	s, err := pdip.New(pdip.WithBackend(pdip.NewtonReduced))
	if err != nil {
		return 0, err
	}
	res, err := s.Solve(p)
	if err != nil {
		return 0, err
	}
	if res.Status != lp.StatusOptimal {
		return 0, fmt.Errorf("experiments: reference status %v", res.Status)
	}
	return res.Objective, nil
}

// Stats is one configuration's answer quality and modeled cost over the
// trial set.
type Stats struct {
	MeanRelErr     float64 // mean |objective error| relative to the reference
	MaxRelErr      float64
	OptimalRate    float64 // fraction of trials that converged + passed the α-check
	MeanIterations float64
	// Latency is the mean modeled hardware latency: the crossbar's plus,
	// on a NoC, the interconnect's.
	Latency time.Duration
}

// evaluate runs arm a over the trial set at m constraints: each trial's
// feasible instance, its software reference, and the arm's solve, priced as
// the public layer prices it (crossbar counters, plus NoC transfers on the
// arm's resolved interconnect).
func (c Config) evaluate(m int, a arm) (Stats, error) {
	var st Stats
	var xbar, link time.Duration
	for trial := 0; trial < c.Trials; trial++ {
		if err := c.ctxErr(); err != nil {
			return st, fmt.Errorf("experiments: sweep canceled: %w", err)
		}
		seed := c.Seed + int64(trial)
		p, err := lp.GenerateFeasible(lp.GenConfig{Constraints: m, Seed: seed})
		if err != nil {
			return st, err
		}
		ref, err := reference(p)
		if err != nil {
			return st, err
		}
		res, err := c.solve(a, 1000+seed, p)
		if err != nil {
			return st, err
		}
		st.MeanIterations += float64(res.Iterations)
		if res.Status == lp.StatusOptimal {
			st.OptimalRate++
		}
		rel := math.Abs(res.Objective-ref) / (1 + math.Abs(ref))
		st.MeanRelErr += rel
		if rel > st.MaxRelErr {
			st.MaxRelErr = rel
		}
		xbar += perf.CrossbarCost(res.Counters, memristor.DefaultTiming()).Latency
		link += perf.NoCCost(res.NoC, a.noc).Latency
	}
	n := float64(c.Trials)
	st.MeanRelErr /= n
	st.MeanIterations /= n
	st.OptimalRate /= n
	st.Latency = xbar/time.Duration(c.Trials) + link/time.Duration(c.Trials)
	return st, nil
}

// AccuracyRow is one (m, var) point of Fig. 5.
type AccuracyRow struct {
	M, N      int
	Variation float64
	Stats
}

// Accuracy reproduces Fig. 5(a) (Algorithm 1) or Fig. 5(b) (Algorithm 2):
// relative objective error of the crossbar solver versus the software
// reference across sizes and variation levels.
func Accuracy(alg Algorithm, cfg Config) ([]AccuracyRow, error) {
	cfg = cfg.withDefaults()
	var rows []AccuracyRow
	for _, m := range cfg.Sizes {
		for _, v := range cfg.Variations {
			st, err := cfg.evaluate(m, paper(alg, v))
			if err != nil {
				return nil, err
			}
			rows = append(rows, AccuracyRow{M: m, N: max(1, m/3), Variation: v, Stats: st})
		}
	}
	return rows, nil
}

// PerfRow is one (m, var) point of Fig. 6 (latency) and Fig. 7 (energy).
type PerfRow struct {
	M         int
	Variation float64
	// SoftwareFull and SoftwareReduced are measured wall-clock times of the
	// two software PDIP backends (the "PDIP in Matlab" and "linprog"
	// analogues); Simplex is the measured simplex time.
	SoftwareFull    time.Duration
	SoftwareReduced time.Duration
	Simplex         time.Duration
	// Crossbar is the modelled hardware latency of the crossbar solve.
	Crossbar time.Duration
	// SoftwareEnergy and CrossbarEnergy are the corresponding energies (J).
	SoftwareEnergy float64
	CrossbarEnergy float64
	// Speedup is SoftwareReduced / Crossbar; EnergyGain likewise.
	Speedup    float64
	EnergyGain float64
	Iterations float64
}

// LatencyEnergy reproduces Fig. 6 and Fig. 7 for the chosen algorithm:
// measured software baselines versus modelled crossbar latency and energy.
// includeFullPDIP controls whether the O(N³) software baseline is also
// measured (it dominates the harness runtime at large m).
func LatencyEnergy(alg Algorithm, cfg Config, includeFullPDIP bool) ([]PerfRow, error) {
	cfg = cfg.withDefaults()
	timing := memristor.DefaultTiming()
	var rows []PerfRow
	for _, m := range cfg.Sizes {
		for _, v := range cfg.Variations {
			row := PerfRow{M: m, Variation: v}
			for trial := 0; trial < cfg.Trials; trial++ {
				if err := cfg.ctxErr(); err != nil {
					return nil, fmt.Errorf("experiments: sweep canceled: %w", err)
				}
				seed := cfg.Seed + int64(trial)
				p, err := lp.GenerateFeasible(lp.GenConfig{Constraints: m, Seed: seed})
				if err != nil {
					return nil, err
				}

				redSolver, err := pdip.New(pdip.WithBackend(pdip.NewtonReduced))
				if err != nil {
					return nil, err
				}
				start := time.Now()
				if _, err := redSolver.Solve(p); err != nil {
					return nil, err
				}
				row.SoftwareReduced += time.Since(start)

				if includeFullPDIP {
					fullSolver, err := pdip.New(pdip.WithBackend(pdip.NewtonFull))
					if err != nil {
						return nil, err
					}
					start = time.Now()
					if _, err := fullSolver.Solve(p); err != nil {
						return nil, err
					}
					row.SoftwareFull += time.Since(start)
				}

				sx := simplex.New()
				start = time.Now()
				if _, err := sx.Solve(p); err != nil {
					return nil, err
				}
				row.Simplex += time.Since(start)

				res, err := cfg.solve(paper(alg, v), 1000+seed, p)
				if err != nil {
					return nil, err
				}
				est := perf.CrossbarCost(res.Counters, timing)
				row.Crossbar += est.Latency
				row.CrossbarEnergy += est.Energy
				row.Iterations += float64(res.Iterations)
			}
			tr := time.Duration(cfg.Trials)
			row.SoftwareFull /= tr
			row.SoftwareReduced /= tr
			row.Simplex /= tr
			row.Crossbar /= tr
			row.CrossbarEnergy /= float64(cfg.Trials)
			row.Iterations /= float64(cfg.Trials)
			row.SoftwareEnergy = perf.SoftwareCost(row.SoftwareReduced).Energy
			row.Speedup = float64(row.SoftwareReduced) / float64(row.Crossbar)
			row.EnergyGain = row.SoftwareEnergy / row.CrossbarEnergy
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// InfeasibleRow is one (m, var) point of the §4.4 infeasibility-detection
// comparison.
type InfeasibleRow struct {
	M             int
	Variation     float64
	DetectionRate float64
	Software      time.Duration
	Crossbar      time.Duration
	Speedup       float64
	Iterations    float64
}

// InfeasibleDetection reproduces the §4.4 text numbers: how fast infeasible
// instances are flagged by the crossbar solver versus the software baseline.
func InfeasibleDetection(alg Algorithm, cfg Config) ([]InfeasibleRow, error) {
	cfg = cfg.withDefaults()
	timing := memristor.DefaultTiming()
	var rows []InfeasibleRow
	for _, m := range cfg.Sizes {
		for _, v := range cfg.Variations {
			row := InfeasibleRow{M: m, Variation: v}
			for trial := 0; trial < cfg.Trials; trial++ {
				if err := cfg.ctxErr(); err != nil {
					return nil, fmt.Errorf("experiments: sweep canceled: %w", err)
				}
				seed := cfg.Seed + int64(trial)
				p, err := lp.GenerateInfeasible(lp.GenConfig{Constraints: m, Seed: seed})
				if err != nil {
					return nil, err
				}
				soft, err := pdip.New(pdip.WithBackend(pdip.NewtonReduced))
				if err != nil {
					return nil, err
				}
				start := time.Now()
				sres, err := soft.Solve(p)
				if err != nil {
					return nil, err
				}
				row.Software += time.Since(start)
				_ = sres

				res, err := cfg.solve(paper(alg, v), 1000+seed, p)
				if err != nil {
					return nil, err
				}
				est := perf.CrossbarCost(res.Counters, timing)
				row.Crossbar += est.Latency
				row.Iterations += float64(res.Iterations)
				if res.Status == lp.StatusInfeasible || res.Status == lp.StatusNumericalFailure {
					row.DetectionRate++
				}
			}
			tr := time.Duration(cfg.Trials)
			row.Software /= tr
			row.Crossbar /= tr
			row.Iterations /= float64(cfg.Trials)
			row.DetectionRate /= float64(cfg.Trials)
			row.Speedup = float64(row.Software) / float64(row.Crossbar)
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// SensitivityRow is one point of the §4.3 analysis: the intrinsic
// sensitivity of the exact LP optimum to a static ±var perturbation of A.
type SensitivityRow struct {
	M          int
	Variation  float64
	MeanRelErr float64
	MaxRelErr  float64
}

// VariationSensitivity reproduces the paper's "to our surprise" §4.3 check:
// solve exactly with perturbed matrices (the analogue of running linprog on
// M′) and measure how far the optimum moves. This bounds what any solver
// operating on perturbed coefficients can achieve.
func VariationSensitivity(cfg Config) ([]SensitivityRow, error) {
	cfg = cfg.withDefaults()
	var rows []SensitivityRow
	for _, m := range cfg.Sizes {
		for _, v := range cfg.Variations {
			if v == 0 {
				continue
			}
			row := SensitivityRow{M: m, Variation: v}
			var count int
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
				vm, err := variation.NewPaperModel(v, 2000+seed)
				if err != nil {
					return nil, err
				}
				ap := p.A.Clone()
				for i := 0; i < ap.Rows(); i++ {
					row := ap.RawRow(i)
					for j := range row {
						row[j] = vm.Apply(row[j])
					}
				}
				pp := &lp.Problem{Name: p.Name + "-perturbed", C: p.C, A: ap, B: p.B}
				pres, err := reference(pp)
				if err != nil {
					continue // rare: perturbation made the instance degenerate
				}
				rel := math.Abs(pres-ref) / (1 + math.Abs(ref))
				row.MeanRelErr += rel
				if rel > row.MaxRelErr {
					row.MaxRelErr = rel
				}
				count++
			}
			if count > 0 {
				row.MeanRelErr /= float64(count)
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// IterationRow is one point of the iteration-count table (§4.3/§4.4).
type IterationRow struct {
	M          int
	Variation  float64
	Algorithm1 float64
	Algorithm2 float64
	Resolves2  float64
}

// IterationCounts compares the two algorithms' iteration behaviour across
// variation levels (the paper: Algorithm 1 grows with variation, Algorithm 2
// stays flat thanks to its constant step).
func IterationCounts(cfg Config) ([]IterationRow, error) {
	cfg = cfg.withDefaults()
	var rows []IterationRow
	for _, m := range cfg.Sizes {
		for _, v := range cfg.Variations {
			row := IterationRow{M: m, Variation: v}
			for trial := 0; trial < cfg.Trials; trial++ {
				if err := cfg.ctxErr(); err != nil {
					return nil, fmt.Errorf("experiments: sweep canceled: %w", err)
				}
				seed := cfg.Seed + int64(trial)
				p, err := lp.GenerateFeasible(lp.GenConfig{Constraints: m, Seed: seed})
				if err != nil {
					return nil, err
				}
				r1, err := cfg.solve(paper(Algorithm1, v), 1000+seed, p)
				if err != nil {
					return nil, err
				}
				row.Algorithm1 += float64(r1.Iterations)
				r2, err := cfg.solve(paper(Algorithm2, v), 1000+seed, p)
				if err != nil {
					return nil, err
				}
				row.Algorithm2 += float64(r2.Iterations)
				row.Resolves2 += float64(r2.Resolves)
			}
			row.Algorithm1 /= float64(cfg.Trials)
			row.Algorithm2 /= float64(cfg.Trials)
			row.Resolves2 /= float64(cfg.Trials)
			rows = append(rows, row)
		}
	}
	return rows, nil
}
