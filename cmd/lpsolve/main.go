// Command lpsolve solves a linear program from a file (or stdin) with any of
// the library's engines and reports the solution together with, for crossbar
// engines, the modelled hardware latency and energy.
//
// Usage:
//
//	lpsolve [-engine crossbar] [-variation 0.1] [-seed 1] [-noc mesh -tile 512] problem.lp
//	lpsolve -parallel 4 batch0.lp batch1.lp batch2.lp ...
//
// Engines: crossbar (the paper's Algorithm 1), crossbar-large-scale
// (Algorithm 2), conic (Algorithm 1 extended to second-order cone programs),
// pdhg (distributed first-order PDHG tiled across many crossbars — use
// -tiles to set the worker grid), pdip (software full-Newton baseline),
// pdip-reduced (software reduced-KKT baseline), simplex.
//
// With more than one problem file the crossbar engine solves them as one
// batch on a sharded fabric pool: the problems must share a constraint
// matrix (only objectives and right-hand sides may differ), the shared
// system is programmed once per pool shard, and -parallel sets the pool
// width (0 = one shard per CPU). Results are independent of the width.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"

	"github.com/memlp/memlp"
	"github.com/memlp/memlp/internal/cli"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("lpsolve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		engineName  = fs.String("engine", "crossbar", "solver engine: crossbar | crossbar-large-scale | conic | pdhg | pdip | pdip-reduced | simplex")
		varPct      = fs.Float64("variation", 0, "process variation magnitude for crossbar engines (e.g. 0.1)")
		deltaBits   = fs.Int("delta-bits", 8, "delta-programming level grid width for crossbar engines; 0 rewrites every cell each refresh")
		seed        = fs.Int64("seed", 1, "random seed for variation draws")
		nocTopo     = fs.String("noc", "", "run on a tiled NoC fabric: hierarchical | mesh")
		tile        = fs.Int("tile", 512, "NoC tile (crossbar) size")
		parallel    = fs.Int("parallel", 0, "fabric-pool width for multi-file batches (0 = one shard per CPU; crossbar engine only)")
		tiles       = fs.Int("tiles", 0, "PDHG worker-grid side: tiles² goroutines sweep the crossbar tiles (pdhg engine only; results are identical for every value)")
		verbose     = fs.Bool("v", false, "print the solution vector")
		format      = fs.String("format", "", "input format: text (default) | mps; .mps files are auto-detected")
		traceFile   = fs.String("trace", "", "write per-iteration trace records as JSON Lines to FILE (- = stdout)")
		metricsAddr = fs.String("metrics-addr", "", "after solving, serve Prometheus metrics on ADDR (e.g. :9090) until interrupted")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	problems, code := readProblems(fs.Args(), *format, stdin, stderr)
	if code != 0 {
		return code
	}

	engine, err := memlp.ParseEngine(*engineName)
	if err != nil {
		fmt.Fprintf(stderr, "lpsolve: unknown engine %q\n", *engineName)
		return 2
	}

	// Hardware options only apply to the crossbar engines; passing them to a
	// software engine would be rejected by memlp.NewSolver. Any non-zero
	// -variation reaches WithVariation, so a negative or NaN one is rejected
	// there rather than ignored.
	var opts []memlp.Option
	if engine.Analog() {
		if *varPct != 0 {
			opts = append(opts, memlp.WithVariation(*varPct))
		}
		opts = append(opts, memlp.WithSeed(*seed))
		opts = append(opts, memlp.WithDeltaWriteBits(*deltaBits))
		if *nocTopo != "" {
			opts = append(opts, memlp.WithNoC(*nocTopo, *tile))
		}
	} else if *varPct != 0 || *nocTopo != "" || *deltaBits != 8 {
		fmt.Fprintf(stderr, "lpsolve: -variation, -delta-bits, and -noc require a crossbar engine\n")
		return 2
	}
	if engine == memlp.EnginePDHG {
		if *tiles > 0 {
			opts = append(opts, memlp.WithTiles(*tiles))
		}
	} else if *tiles != 0 {
		fmt.Fprintf(stderr, "lpsolve: -tiles requires the pdhg engine\n")
		return 2
	}
	if engine.SupportsBatch() {
		opts = append(opts, memlp.WithParallelism(*parallel))
	} else if *parallel != 0 || len(problems) > 1 {
		fmt.Fprintf(stderr, "lpsolve: -parallel and multi-file batches require the crossbar engine\n")
		return 2
	}

	if *traceFile != "" {
		traceW := io.Writer(stdout)
		if *traceFile != "-" {
			f, err := os.Create(*traceFile)
			if err != nil {
				fmt.Fprintf(stderr, "lpsolve: %v\n", err)
				return 1
			}
			defer f.Close()
			traceW = f
		}
		opts = append(opts, memlp.WithTraceJSONL(traceW))
	}
	var metrics *memlp.Metrics
	if *metricsAddr != "" {
		metrics = memlp.NewMetrics()
		opts = append(opts, memlp.WithTrace(0))
	}

	solver, err := memlp.NewSolver(engine, opts...)
	if err != nil {
		// Every option comes from a flag, so a rejected one is a usage
		// error.
		fmt.Fprintf(stderr, "lpsolve: %v\n", err)
		return 2
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	if len(problems) > 1 {
		code := runBatch(ctx, solver, engine, problems, *verbose, metrics, stdout, stderr)
		return finishObservability(ctx, code, solver, metrics, *metricsAddr, stdout, stderr)
	}

	p := problems[0]
	sol, err := solver.Solve(ctx, p)
	if err != nil {
		fmt.Fprintf(stderr, "lpsolve: %v\n", err)
		return 1
	}
	if metrics != nil {
		metrics.Observe(sol)
	}

	fmt.Fprintf(stdout, "problem:    %s (%d constraints, %d variables)\n",
		p.Name(), p.NumConstraints(), p.NumVariables())
	fmt.Fprintf(stdout, "engine:     %s\n", engine)
	fmt.Fprintf(stdout, "status:     %s\n", sol.Status)
	fmt.Fprintf(stdout, "objective:  %.6g\n", sol.Objective)
	if p.IsConic() {
		fmt.Fprintf(stdout, "cone inf:   %.3g\n", sol.ConeInfeasibility)
	}
	if sol.Iterations > 0 {
		fmt.Fprintf(stdout, "iterations: %d\n", sol.Iterations)
	}
	if sol.Pivots > 0 {
		fmt.Fprintf(stdout, "pivots:     %d\n", sol.Pivots)
	}
	fmt.Fprintf(stdout, "wall time:  %v\n", sol.WallTime)
	if hw := sol.Hardware; hw != nil {
		fmt.Fprintf(stdout, "hardware:   %v latency, %.4g J (%d cell writes, %d skipped, %d analog ops, %d digital MACs)\n",
			hw.Latency, hw.EnergyJoules, hw.CellWrites, hw.CellsSkipped, hw.AnalogOps, hw.DigitalMACs)
	}
	if *verbose && sol.X != nil {
		printVector(stdout, sol.X)
	}
	return finishObservability(ctx, 0, solver, metrics, *metricsAddr, stdout, stderr)
}

// finishObservability reports latched trace-stream errors and, when
// -metrics-addr is set, serves the aggregated metrics until interrupted.
func finishObservability(ctx context.Context, code int, solver *memlp.Solver, metrics *memlp.Metrics, addr string, stdout, stderr io.Writer) int {
	if err := solver.TraceErr(); err != nil {
		fmt.Fprintf(stderr, "lpsolve: trace stream: %v\n", err)
		if code == 0 {
			code = 1
		}
	}
	if metrics == nil || code != 0 {
		return code
	}
	srv := cli.MetricsServer{Tool: "lpsolve", Banner: "metrics:   ", Prom: metrics.WritePrometheus, Vars: metrics.String}
	return srv.Serve(ctx, addr, stdout, stderr)
}

// readProblems reads one problem per file argument, or a single problem from
// stdin when no files are given.
func readProblems(paths []string, format string, stdin io.Reader, stderr io.Writer) ([]*memlp.Problem, int) {
	readOne := func(in io.Reader, mps bool) (*memlp.Problem, error) {
		read := memlp.ReadProblem
		if mps || format == "mps" {
			read = memlp.ReadProblemMPS
		}
		return read(in)
	}
	if len(paths) == 0 {
		p, err := readOne(stdin, false)
		if err != nil {
			fmt.Fprintf(stderr, "lpsolve: %v\n", err)
			return nil, 1
		}
		return []*memlp.Problem{p}, 0
	}
	problems := make([]*memlp.Problem, 0, len(paths))
	for _, path := range paths {
		f, err := os.Open(path)
		if err != nil {
			fmt.Fprintf(stderr, "lpsolve: %v\n", err)
			return nil, 1
		}
		p, err := readOne(f, strings.HasSuffix(strings.ToLower(path), ".mps"))
		f.Close()
		if err != nil {
			fmt.Fprintf(stderr, "lpsolve: %s: %v\n", path, err)
			return nil, 1
		}
		problems = append(problems, p)
	}
	return problems, 0
}

// runBatch solves a multi-file batch on the crossbar engine's fabric pool
// and prints one line per problem plus the pool roll-up. On interruption the
// completed prefix is still printed.
func runBatch(ctx context.Context, solver *memlp.Solver, engine memlp.Engine, problems []*memlp.Problem, verbose bool, metrics *memlp.Metrics, stdout, stderr io.Writer) int {
	first := problems[0]
	fmt.Fprintf(stdout, "batch:      %d problems (%d constraints, %d variables each)\n",
		len(problems), first.NumConstraints(), first.NumVariables())
	fmt.Fprintf(stdout, "engine:     %s\n", engine)

	sols, err := solver.SolveBatch(ctx, problems)
	if metrics != nil {
		metrics.ObserveAll(sols)
	}
	for i, sol := range sols {
		fmt.Fprintf(stdout, "[%3d] %-20s %-12s objective %-14.6g %d iters\n",
			i, problems[i].Name(), sol.Status, sol.Objective, sol.Iterations)
		if verbose && sol.X != nil {
			printVector(stdout, sol.X)
		}
	}
	if len(sols) > 0 {
		if bs := sols[0].Batch; bs != nil {
			fmt.Fprintf(stdout, "pool:       %d replicas, solves per shard %v\n", bs.Replicas, bs.ShardSolves)
		}
		if hw := sols[0].Hardware; hw != nil {
			fmt.Fprintf(stdout, "hardware:   %v latency, %.4g J (%d cell writes, %d skipped, %d analog ops, %d digital MACs; pool programming charged here)\n",
				hw.Latency, hw.EnergyJoules, hw.CellWrites, hw.CellsSkipped, hw.AnalogOps, hw.DigitalMACs)
		}
	}
	if err != nil {
		fmt.Fprintf(stderr, "lpsolve: %v (%d/%d problems finished)\n", err, len(sols), len(problems))
		return 1
	}
	return 0
}

func printVector(stdout io.Writer, x []float64) {
	fmt.Fprint(stdout, "x:         ")
	for _, v := range x {
		fmt.Fprintf(stdout, " %.6g", v)
	}
	fmt.Fprintln(stdout)
}
