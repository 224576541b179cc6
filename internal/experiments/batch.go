package experiments

// The batch-throughput sweep: how fast the sharded fabric pool works through
// a shared-matrix batch as the pool width grows. This is the wall-clock
// companion to the per-figure accuracy/latency tables — it measures the
// simulator itself, so the numbers depend on the host's core count, and the
// width-1 row is the baseline every speedup is relative to.

import (
	"fmt"
	"time"

	"github.com/memlp/memlp/internal/core"
	"github.com/memlp/memlp/internal/crossbar"
	"github.com/memlp/memlp/internal/engine"
	"github.com/memlp/memlp/internal/lp"
	"github.com/memlp/memlp/internal/variation"
)

// BatchRow is one (m, width) point of the batch-throughput table.
type BatchRow struct {
	M, N  int
	Width int // pool width (fabric replicas)
	Batch int // problems per batch
	// Wall is the wall-clock time for the whole batch, replica programming
	// included; PerSolve is Wall / Batch.
	Wall     time.Duration
	PerSolve time.Duration
	// Speedup is the width-1 wall time divided by this row's wall time.
	Speedup float64
	// Optimal is the fraction of batch problems that converged.
	Optimal float64
}

// batchSolverFor builds an Algorithm 1 solver with a fabric pool of the given
// width. Each replica gets its own variation-model clone at the base seed, so
// results are bit-identical across widths (the pool's determinism contract).
func batchSolverFor(varPct float64, seed int64, width int) (*core.Solver, error) {
	cfg := crossbar.Config{}
	var vm *variation.Model
	if varPct > 0 {
		m, err := variation.NewPaperModel(varPct, seed)
		if err != nil {
			return nil, err
		}
		vm = m
		cfg.Variation = vm
	}
	opts := core.Options{
		Fabric:      core.SingleCrossbarFactory(cfg),
		Alpha:       1.05 + 2*varPct,
		Parallelism: width,
	}
	if vm != nil {
		opts.ReplicaFabric = func(size int) (core.Fabric, error) {
			c := cfg
			c.Variation = vm.Clone()
			return core.SingleCrossbarFactory(c)(size)
		}
	}
	return core.NewSolver(opts)
}

// BatchThroughput measures SolveBatch wall time across pool widths for each
// configured size. Every batch shares one constraint matrix (the pool's
// requirement) with per-instance right-hand sides; batch is the number of
// instances per point (0 means 32) and widths the pool widths to sweep
// (empty means {1, 2, 4}). The first of cfg.Variations sets the variation
// level for the whole table.
func BatchThroughput(cfg Config, batch int, widths []int) ([]BatchRow, error) {
	cfg = cfg.withDefaults()
	if batch <= 0 {
		batch = 32
	}
	if len(widths) == 0 {
		widths = []int{1, 2, 4}
	}
	varPct := cfg.Variations[0]
	var rows []BatchRow
	for _, m := range cfg.Sizes {
		base, err := lp.GenerateFeasible(lp.GenConfig{Constraints: m, Seed: cfg.Seed + int64(m)})
		if err != nil {
			return nil, err
		}
		problems := make([]*lp.Problem, batch)
		for i := range problems {
			b := base.B.Clone()
			for j := range b {
				b[j] *= 1 + 0.01*float64(i)
			}
			// Sharing base.A by pointer keeps validation on its fast path.
			p, err := lp.New(fmt.Sprintf("%s-%d", base.Name, i), base.C, base.A, b)
			if err != nil {
				return nil, err
			}
			problems[i] = p
		}

		var baseline time.Duration
		for _, w := range widths {
			if err := cfg.ctxErr(); err != nil {
				return nil, fmt.Errorf("experiments: sweep canceled: %w", err)
			}
			if w < 1 {
				return nil, fmt.Errorf("experiments: pool width %d < 1", w)
			}
			solver, err := batchSolverFor(varPct, 1000+cfg.Seed, w)
			if err != nil {
				return nil, err
			}
			start := time.Now()
			var results []*engine.Result
			if cfg.Context != nil {
				results, err = solver.SolveBatchContext(cfg.Context, problems)
			} else {
				results, err = solver.SolveBatch(problems)
			}
			if err != nil {
				return nil, err
			}
			wall := time.Since(start)
			optimal := 0
			for _, res := range results {
				if res.Status == lp.StatusOptimal {
					optimal++
				}
			}
			if baseline == 0 {
				baseline = wall
			}
			rows = append(rows, BatchRow{
				M:        m,
				N:        base.NumVariables(),
				Width:    results[0].Batch.Replicas,
				Batch:    batch,
				Wall:     wall,
				PerSolve: wall / time.Duration(batch),
				Speedup:  float64(baseline) / float64(wall),
				Optimal:  float64(optimal) / float64(batch),
			})
		}
	}
	return rows, nil
}
