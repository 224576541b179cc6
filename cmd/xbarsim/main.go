// Command xbarsim exercises the memristor-crossbar substrate directly —
// without the LP solver on top — and reports the analog error statistics of
// matrix–vector multiplication and linear solving under the configured
// non-idealities. It is the tool to answer "what does THIS much variation /
// THIS converter / THIS wiring do to raw analog accuracy?".
//
// Usage:
//
//	xbarsim -size 64 [-variation 0.1] [-iobits 8] [-writebits 14] \
//	        [-wire 0] [-faults 0.01] [-writeretries 3] [-trials 20] \
//	        [-parallel 0] [-seed 1]
//
// For each trial a random diagonally-dominant non-negative matrix and a
// random input vector are drawn; the tool reports the relative error of the
// analog mat-vec and the analog solve against exact linear algebra, as mean,
// median and worst-case over the trials.
//
// Trials are independent — each draws its matrix, vectors, variation map and
// fault placement from its own (seed + trial) stream — so -parallel runs
// them on that many worker goroutines (0 = one per CPU) with statistics that
// are identical for every width.
//
// With -faults the given fraction of cells is stuck (half at maximum
// conductance, half at zero; fresh placement each trial), the post-program
// defect census and write-verify retry counts are reported, and analog
// solves that the defects render singular are counted as failures instead of
// aborting the run — this is the raw-substrate view of stuck-cell faults
// (the LP-level recovery ladder lives above this layer).
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"os/signal"
	"runtime"
	"sort"
	"sync"

	"github.com/memlp/memlp/internal/cli"
	"github.com/memlp/memlp/internal/crossbar"
	"github.com/memlp/memlp/internal/linalg"
	"github.com/memlp/memlp/internal/memristor"
	"github.com/memlp/memlp/internal/trace"
	"github.com/memlp/memlp/internal/variation"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// trialConfig is the per-run configuration shared by every trial.
type trialConfig struct {
	size      int
	varPct    float64
	ioBits    int
	writeBits int
	wire      float64
	faults    float64
	retries   int
	seed      int64
}

// trialResult carries one trial's statistics back to the aggregation loop.
type trialResult struct {
	mvErr             float64
	solveErr          float64
	solveOK           bool
	solveFailed       bool
	stuckOn, stuckOff int
	retriesUsed       int64
	err               error
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("xbarsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		size        = fs.Int("size", 64, "matrix dimension")
		varPct      = fs.Float64("variation", 0, "process variation magnitude (e.g. 0.1)")
		ioBits      = fs.Int("iobits", 8, "DAC/ADC precision")
		writeBits   = fs.Int("writebits", 14, "conductance write precision")
		wire        = fs.Float64("wire", 0, "wire resistance per segment (Ω)")
		faults      = fs.Float64("faults", 0, "stuck-cell density (split evenly stuck-ON/OFF, e.g. 0.01)")
		retries     = fs.Int("writeretries", 0, "write-verify corrective pulses per cell (0 = open-loop)")
		trials      = fs.Int("trials", 20, "number of random trials")
		parallel    = fs.Int("parallel", 0, "trial worker goroutines (0 = one per CPU); results are width-independent")
		seed        = fs.Int64("seed", 1, "random seed")
		traceFile   = fs.String("trace", "", "write one trace record per trial as JSON Lines to FILE (- = stdout)")
		metricsAddr = fs.String("metrics-addr", "", "after the trials, serve Prometheus metrics on ADDR until interrupted")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *size < 2 || *trials < 1 {
		fmt.Fprintln(stderr, "xbarsim: need -size ≥ 2 and -trials ≥ 1")
		return 2
	}
	if *parallel < 0 {
		fmt.Fprintln(stderr, "xbarsim: need -parallel ≥ 0")
		return 2
	}
	if *faults > 0 {
		// The density range check does not depend on the trial index, so
		// fail fast before spinning up workers.
		fm := memristor.FaultModel{StuckOnDensity: *faults / 2, StuckOffDensity: *faults / 2, Seed: *seed}
		if err := fm.Validate(); err != nil {
			fmt.Fprintf(stderr, "xbarsim: %v\n", err)
			return 2
		}
	}

	// Trace records are replayed from the results slice after the workers
	// finish, so the stream is in trial order for every -parallel width.
	var sinks trace.Multi
	var jsonl *trace.JSONL
	if *traceFile != "" {
		traceW := io.Writer(stdout)
		if *traceFile != "-" {
			f, err := os.Create(*traceFile)
			if err != nil {
				fmt.Fprintf(stderr, "xbarsim: %v\n", err)
				return 1
			}
			defer f.Close()
			traceW = f
		}
		jsonl = trace.NewJSONL(traceW)
		sinks = append(sinks, jsonl)
	}
	var metrics *trace.Metrics
	if *metricsAddr != "" {
		metrics = trace.NewMetrics()
		sinks = append(sinks, metrics)
	}

	// SIGINT stops dispatching further trials; statistics over the completed
	// trials are still reported.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	cfg := trialConfig{
		size: *size, varPct: *varPct, ioBits: *ioBits, writeBits: *writeBits,
		wire: *wire, faults: *faults, retries: *retries, seed: *seed,
	}
	width := *parallel
	if width == 0 {
		width = runtime.GOMAXPROCS(0)
	}
	if width > *trials {
		width = *trials
	}

	results := make([]trialResult, *trials)
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < width; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for trial := range jobs {
				results[trial] = runTrial(cfg, trial)
			}
		}()
	}
	dispatched := 0
	for trial := 0; trial < *trials; trial++ {
		if ctx.Err() != nil {
			break
		}
		jobs <- trial
		dispatched++
	}
	close(jobs)
	wg.Wait()

	var mvErrs, solveErrs []float64
	var stuckOn, stuckOff, solveFailures int
	var retriesUsed int64
	for trial, r := range results[:dispatched] {
		if r.err != nil {
			fmt.Fprintf(stderr, "xbarsim: %v\n", r.err)
			return 1
		}
		if len(sinks) > 0 {
			status := "ok"
			if r.solveFailed {
				status = "solve-failed"
			}
			sinks.Emit(trace.Record{
				Engine:              "xbarsim",
				Event:               trace.EventTrial,
				Status:              status,
				Problem:             trial,
				Attempt:             1,
				PrimalInfeasibility: r.mvErr,
				DualInfeasibility:   r.solveErr,
				WriteRetries:        r.retriesUsed,
				NoiseEpoch:          *seed + int64(trial),
			})
		}
		mvErrs = append(mvErrs, r.mvErr)
		stuckOn += r.stuckOn
		stuckOff += r.stuckOff
		retriesUsed += r.retriesUsed
		switch {
		case r.solveFailed:
			solveFailures++
		case r.solveOK:
			solveErrs = append(solveErrs, r.solveErr)
		}
	}
	if dispatched < *trials {
		if dispatched == 0 {
			fmt.Fprintln(stderr, "xbarsim: interrupted before any trial completed")
			return 1
		}
		fmt.Fprintf(stderr, "xbarsim: interrupted after %d/%d trials\n", dispatched, *trials)
	}

	fmt.Fprintf(stdout, "crossbar %dx%d, variation %.0f%%, %d-bit I/O, %d-bit writes, wire %.2g Ω (%d trials)\n",
		*size, *size, *varPct*100, *ioBits, *writeBits, *wire, *trials)
	if *faults > 0 {
		fmt.Fprintf(stdout, "  faults: density %.3g%% → %d stuck-ON, %d stuck-OFF across %d trials; %d analog solves failed\n",
			*faults*100, stuckOn, stuckOff, len(mvErrs), solveFailures)
	}
	if *retries > 0 {
		fmt.Fprintf(stdout, "  write-verify: %d corrective pulses (≤%d per cell)\n", retriesUsed, *retries)
	}
	report(stdout, "mat-vec relative error", mvErrs)
	report(stdout, "solve   relative error", solveErrs)
	if jsonl != nil {
		if err := jsonl.Err(); err != nil {
			fmt.Fprintf(stderr, "xbarsim: trace stream: %v\n", err)
			return 1
		}
	}
	if metrics != nil {
		srv := cli.MetricsServer{Tool: "xbarsim", Banner: "metrics:", Prom: metrics.WriteProm}
		return srv.Serve(ctx, *metricsAddr, stdout, stderr)
	}
	return 0
}

// runTrial builds one crossbar under the configured non-idealities, draws
// this trial's instance from its own (seed + trial) stream, and measures the
// analog errors.
func runTrial(cfg trialConfig, trial int) trialResult {
	var res trialResult
	r := rand.New(rand.NewSource(cfg.seed + int64(trial)))
	xcfg := crossbar.Config{
		Size:            cfg.size,
		IOBits:          cfg.ioBits,
		WriteBits:       cfg.writeBits,
		WireResistance:  cfg.wire,
		MaxWriteRetries: cfg.retries,
	}
	if cfg.faults > 0 {
		xcfg.Faults = &memristor.FaultModel{
			StuckOnDensity:  cfg.faults / 2,
			StuckOffDensity: cfg.faults / 2,
			Seed:            cfg.seed + int64(trial),
		}
	}
	if cfg.varPct != 0 { // a negative or NaN magnitude fails here
		vm, err := variation.NewPaperModel(cfg.varPct, cfg.seed+int64(trial))
		if err != nil {
			res.err = err
			return res
		}
		xcfg.Variation = vm
	}
	xb, err := crossbar.New(xcfg)
	if err != nil {
		res.err = err
		return res
	}

	a := linalg.NewMatrix(cfg.size, cfg.size)
	for i := 0; i < cfg.size; i++ {
		for j := 0; j < cfg.size; j++ {
			a.Set(i, j, r.Float64()*3)
		}
		a.Set(i, i, a.At(i, i)+6+r.Float64()*6)
	}
	if err := xb.Program(a); err != nil {
		res.err = fmt.Errorf("program: %w", err)
		return res
	}
	census := xb.FaultCensus()
	res.stuckOn = census.StuckOn
	res.stuckOff = census.StuckOff
	res.retriesUsed = xb.Counters().WriteRetries

	v := linalg.NewVector(cfg.size)
	for i := range v {
		v[i] = r.Float64()*2 - 1
	}
	got, err := xb.MatVec(v)
	if err != nil {
		res.err = fmt.Errorf("matvec: %w", err)
		return res
	}
	want, err := a.MatVec(v)
	if err != nil {
		res.err = err
		return res
	}
	res.mvErr = relErr(got, want)

	b := linalg.NewVector(cfg.size)
	for i := range b {
		b[i] = r.Float64()*2 - 1
	}
	sol, err := xb.Solve(b)
	if err != nil {
		// Stuck cells can make the analog network singular; that is a
		// data point, not a tool failure.
		if cfg.faults > 0 {
			res.solveFailed = true
			return res
		}
		res.err = fmt.Errorf("solve: %w", err)
		return res
	}
	exact, err := linalg.SolveDense(a, b)
	if err != nil {
		res.err = err
		return res
	}
	res.solveErr = relErr(sol, exact)
	res.solveOK = true
	return res
}

// relErr returns ‖got − want‖∞ / (1 + ‖want‖∞).
func relErr(got, want linalg.Vector) float64 {
	var worst float64
	for i := range want {
		d := math.Abs(got[i] - want[i])
		if d > worst {
			worst = d
		}
	}
	return worst / (1 + want.NormInf())
}

func report(w io.Writer, label string, errs []float64) {
	if len(errs) == 0 {
		fmt.Fprintf(w, "  %s: no successful trials\n", label)
		return
	}
	sort.Float64s(errs)
	var sum float64
	for _, e := range errs {
		sum += e
	}
	mean := sum / float64(len(errs))
	median := errs[len(errs)/2]
	worst := errs[len(errs)-1]
	fmt.Fprintf(w, "  %s: mean %.4g%%  median %.4g%%  worst %.4g%%\n",
		label, mean*100, median*100, worst*100)
}
