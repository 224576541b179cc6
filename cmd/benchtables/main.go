// Command benchtables regenerates every table and figure of the paper's
// evaluation section (§4) as text tables, plus the ablations listed in
// DESIGN.md. EXPERIMENTS.md records a captured run next to the paper's
// reported numbers.
//
// Usage:
//
//	benchtables -table fig5a [-sizes 4,16,64,256] [-trials 5] [-seed 0]
//
// Tables:
//
//	fig5a, fig5b     accuracy of Algorithm 1 / Algorithm 2 (Fig. 5)
//	fig6a, fig6b     latency vs software baselines (Fig. 6)
//	fig7a, fig7b     energy vs software baselines (Fig. 7)
//	infeasible       infeasibility-detection speed (§4.4 text)
//	iters            iteration counts per algorithm and variation
//	varcheck         intrinsic LP sensitivity to perturbed matrices (§4.3)
//	batch            sharded-fabric-pool batch throughput vs pool width
//	ab1..ab7         ablations (see DESIGN.md)
//	all              everything above at the configured sizes
//
// The batch table is host-dependent (it measures simulator wall time, so
// speedup tops out at the machine's core count); -parallel sets the largest
// pool width swept and -batch the instances per batch. Serving throughput
// is measured by the perfbench serve-coalesce workload (`make bench`).
//
// The -full flag additionally measures the O(N³) software PDIP baseline in
// fig6/fig7 (slow at large m).
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"text/tabwriter"
	"time"

	"github.com/memlp/memlp/internal/cli"
	"github.com/memlp/memlp/internal/experiments"
	"github.com/memlp/memlp/internal/trace"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchtables", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		table       = fs.String("table", "all", "which table to regenerate (see command doc)")
		sizes       = fs.String("sizes", "", "comma-separated constraint counts (default 4,16,64,256)")
		vars        = fs.String("vars", "", "comma-separated variation fractions (default 0,0.05,0.10,0.20)")
		trials      = fs.Int("trials", 5, "instances per point")
		seed        = fs.Int64("seed", 0, "seed offset for the instance stream")
		full        = fs.Bool("full", false, "also measure the O(N³) software PDIP baseline")
		parallel    = fs.Int("parallel", 4, "largest fabric-pool width in the batch table (widths double from 1)")
		batch       = fs.Int("batch", 32, "problems per batch in the batch table")
		traceFile   = fs.String("trace", "", "stream the sweeps' crossbar trace records as JSON Lines to FILE (- = stdout)")
		metricsAddr = fs.String("metrics-addr", "", "after the tables, serve Prometheus metrics on ADDR until interrupted")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	// SIGINT aborts the sweep between trials (a large -sizes point can run
	// for minutes).
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	cfg := experiments.Config{Trials: *trials, Seed: *seed, Context: ctx}

	var sinks trace.Multi
	var jsonl *trace.JSONL
	if *traceFile != "" {
		traceW := io.Writer(stdout)
		if *traceFile != "-" {
			f, err := os.Create(*traceFile)
			if err != nil {
				fmt.Fprintf(stderr, "benchtables: %v\n", err)
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
	if len(sinks) > 0 {
		cfg.Trace = sinks
	}

	var err error
	if cfg.Sizes, err = parseInts(*sizes); err != nil {
		fmt.Fprintf(stderr, "benchtables: -sizes: %v\n", err)
		return 2
	}
	if cfg.Variations, err = parseFloats(*vars); err != nil {
		fmt.Fprintf(stderr, "benchtables: -vars: %v\n", err)
		return 2
	}

	if *parallel < 1 || *batch < 1 {
		fmt.Fprintln(stderr, "benchtables: need -parallel ≥ 1 and -batch ≥ 1")
		return 2
	}
	widths := poolWidths(*parallel)

	tables := strings.Split(*table, ",")
	if *table == "all" {
		tables = []string{"fig5a", "fig5b", "fig6a", "fig6b", "fig7a", "fig7b",
			"infeasible", "iters", "varcheck", "batch", "ab1", "ab2", "ab3", "ab4", "ab5", "ab6", "ab7"}
	}
	for _, t := range tables {
		if err := emit(strings.TrimSpace(t), cfg, *full, *batch, widths, stdout); err != nil {
			fmt.Fprintf(stderr, "benchtables: %s: %v\n", t, err)
			return 1
		}
	}
	if jsonl != nil {
		if err := jsonl.Err(); err != nil {
			fmt.Fprintf(stderr, "benchtables: trace stream: %v\n", err)
			return 1
		}
	}
	if metrics != nil {
		srv := cli.MetricsServer{Tool: "benchtables", Banner: "metrics:", Prom: metrics.WriteProm}
		return srv.Serve(ctx, *metricsAddr, stdout, stderr)
	}
	return 0
}

// poolWidths doubles from 1 up to max, always ending at max itself.
func poolWidths(max int) []int {
	var widths []int
	for w := 1; w < max; w *= 2 {
		widths = append(widths, w)
	}
	return append(widths, max)
}

func emit(table string, cfg experiments.Config, full bool, batch int, widths []int, w io.Writer) error {
	ablM := 24 // ablation problem size
	switch table {
	case "fig5a", "fig5b":
		alg := experiments.Algorithm1
		title := "Fig. 5(a) — accuracy, Algorithm 1 (crossbar PDIP) vs software reference"
		if table == "fig5b" {
			alg = experiments.Algorithm2
			title = "Fig. 5(b) — accuracy, Algorithm 2 (large-scale) vs software reference"
		}
		rows, err := experiments.Accuracy(alg, cfg)
		if err != nil {
			return err
		}
		// Fig. 5(a) adds Algorithm 1's mixed-precision mode on the same
		// instances beside the paper's columns.
		var mixed []experiments.AccuracyRow
		if alg == experiments.Algorithm1 {
			if mixed, err = experiments.Accuracy(experiments.Algorithm1Mixed, cfg); err != nil {
				return err
			}
		}
		tw := newTable(w, title)
		header := "m\tn\tvar\tmean rel err\tmax rel err\toptimal rate\tmean iters"
		if mixed != nil {
			header += "\tmixed: mean rel err\tmax rel err\toptimal rate\tmean iters"
		}
		fmt.Fprintln(tw, header)
		for i, r := range rows {
			fmt.Fprintf(tw, "%d\t%d\t%.0f%%\t%.3f%%\t%.3f%%\t%.0f%%\t%.1f",
				r.M, r.N, r.Variation*100, r.MeanRelErr*100, r.MaxRelErr*100, r.OptimalRate*100, r.MeanIterations)
			if mixed != nil {
				x := mixed[i]
				// Three significant digits: the mixed-precision errors sit
				// far below the paper columns' 0.001% resolution.
				fmt.Fprintf(tw, "\t%.3g%%\t%.3g%%\t%.0f%%\t%.1f",
					x.MeanRelErr*100, x.MaxRelErr*100, x.OptimalRate*100, x.MeanIterations)
			}
			fmt.Fprintln(tw)
		}
		return tw.Flush()

	case "fig6a", "fig6b", "fig7a", "fig7b":
		alg := experiments.Algorithm1
		if table == "fig6b" || table == "fig7b" {
			alg = experiments.Algorithm2
		}
		rows, err := experiments.LatencyEnergy(alg, cfg, full)
		if err != nil {
			return err
		}
		// Fig. 6(a) and 7(a) add Algorithm 1's mixed-precision mode on the
		// same instances, its gains taken against the paper run's software
		// baseline.
		var mixed []experiments.PerfRow
		if alg == experiments.Algorithm1 {
			if mixed, err = experiments.LatencyEnergy(experiments.Algorithm1Mixed, cfg, false); err != nil {
				return err
			}
		}
		if strings.HasPrefix(table, "fig6") {
			title := fmt.Sprintf("Fig. 6(%s) — latency, %s vs software", table[4:], alg)
			tw := newTable(w, title)
			header := "m\tvar\tsw reduced\tsw full\tsimplex\tcrossbar (est)\tspeedup\titers"
			if mixed != nil {
				header += "\tmixed: crossbar (est)\tspeedup\titers"
			}
			fmt.Fprintln(tw, header)
			for i, r := range rows {
				fmt.Fprintf(tw, "%d\t%.0f%%\t%v\t%v\t%v\t%v\t%.1fx\t%.1f",
					r.M, r.Variation*100, r.SoftwareReduced, r.SoftwareFull, r.Simplex, r.Crossbar, r.Speedup, r.Iterations)
				if mixed != nil {
					x := mixed[i]
					fmt.Fprintf(tw, "\t%v\t%.1fx\t%.1f",
						x.Crossbar, float64(r.SoftwareReduced)/float64(x.Crossbar), x.Iterations)
				}
				fmt.Fprintln(tw)
			}
			return tw.Flush()
		}
		title := fmt.Sprintf("Fig. 7(%s) — energy, %s vs software", table[4:], alg)
		tw := newTable(w, title)
		header := "m\tvar\tsw energy (J)\tcrossbar energy (J)\tgain"
		if mixed != nil {
			header += "\tmixed: crossbar energy (J)\tgain"
		}
		fmt.Fprintln(tw, header)
		for i, r := range rows {
			fmt.Fprintf(tw, "%d\t%.0f%%\t%.4g\t%.4g\t%.1fx",
				r.M, r.Variation*100, r.SoftwareEnergy, r.CrossbarEnergy, r.EnergyGain)
			if mixed != nil {
				x := mixed[i]
				fmt.Fprintf(tw, "\t%.4g\t%.1fx", x.CrossbarEnergy, r.SoftwareEnergy/x.CrossbarEnergy)
			}
			fmt.Fprintln(tw)
		}
		return tw.Flush()

	case "infeasible":
		rows, err := experiments.InfeasibleDetection(experiments.Algorithm1, cfg)
		if err != nil {
			return err
		}
		tw := newTable(w, "§4.4 — infeasibility detection, Algorithm 1 vs software")
		fmt.Fprintln(tw, "m\tvar\tdetection rate\tsw latency\tcrossbar (est)\tspeedup\titers")
		for _, r := range rows {
			fmt.Fprintf(tw, "%d\t%.0f%%\t%.0f%%\t%v\t%v\t%.1fx\t%.1f\n",
				r.M, r.Variation*100, r.DetectionRate*100, r.Software, r.Crossbar, r.Speedup, r.Iterations)
		}
		return tw.Flush()

	case "iters":
		rows, err := experiments.IterationCounts(cfg)
		if err != nil {
			return err
		}
		tw := newTable(w, "Iteration counts — Algorithm 1 (adaptive θ) vs Algorithm 2 (constant θ)")
		fmt.Fprintln(tw, "m\tvar\talg 1 iters\talg 2 iters\talg 2 re-solves")
		for _, r := range rows {
			fmt.Fprintf(tw, "%d\t%.0f%%\t%.1f\t%.1f\t%.2f\n",
				r.M, r.Variation*100, r.Algorithm1, r.Algorithm2, r.Resolves2)
		}
		return tw.Flush()

	case "varcheck":
		rows, err := experiments.VariationSensitivity(cfg)
		if err != nil {
			return err
		}
		tw := newTable(w, "§4.3 — intrinsic sensitivity: exact solve on perturbed matrices")
		fmt.Fprintln(tw, "m\tvar\tmean rel err\tmax rel err")
		for _, r := range rows {
			fmt.Fprintf(tw, "%d\t%.0f%%\t%.3f%%\t%.3f%%\n",
				r.M, r.Variation*100, r.MeanRelErr*100, r.MaxRelErr*100)
		}
		return tw.Flush()

	case "batch":
		rows, err := experiments.BatchThroughput(cfg, batch, widths)
		if err != nil {
			return err
		}
		tw := newTable(w, "Batch throughput — sharded fabric pool, shared-A batches (host wall time)")
		fmt.Fprintln(tw, "m\tn\twidth\tbatch\twall\tper solve\tspeedup\toptimal rate")
		for _, r := range rows {
			fmt.Fprintf(tw, "%d\t%d\t%d\t%d\t%v\t%v\t%.2fx\t%.0f%%\n",
				r.M, r.N, r.Width, r.Batch, r.Wall.Round(time.Microsecond),
				r.PerSolve.Round(time.Microsecond), r.Speedup, r.Optimal*100)
		}
		return tw.Flush()

	case "ab1":
		rows, err := experiments.AblationConstantStep(cfg, ablM, nil)
		if err != nil {
			return err
		}
		return emitAblation(w, "AB1 — Algorithm 2 constant step length θ", rows)
	case "ab2":
		rows, err := experiments.AblationFillers(cfg, ablM, nil)
		if err != nil {
			return err
		}
		return emitAblation(w, "AB2 — Eq. 16c reading: reduced-KKT coupling vs literal εI fillers", rows)
	case "ab3":
		rows, err := experiments.AblationIOBits(cfg, ablM, nil)
		if err != nil {
			return err
		}
		return emitAblation(w, "AB3 — DAC/ADC precision and converter-range mode", rows)
	case "ab4":
		rows, err := experiments.AblationVariationModel(cfg, ablM, 0.10)
		if err != nil {
			return err
		}
		return emitAblation(w, "AB4 — variation distribution at 10% magnitude", rows)
	case "ab5":
		rows, err := experiments.AblationNoC(cfg, ablM, 32)
		if err != nil {
			return err
		}
		return emitAblation(w, "AB5 — NoC topology (Fig. 3a vs 3b), 32-cell tiles", rows)
	case "ab6":
		rows, err := experiments.AblationWriteBits(cfg, ablM, nil)
		if err != nil {
			return err
		}
		return emitAblation(w, "AB6 — conductance write precision", rows)
	case "ab7":
		rows, err := experiments.AblationWireResistance(cfg, ablM, nil)
		if err != nil {
			return err
		}
		return emitAblation(w, "AB7 — wire resistance (IR drop), Ω per segment", rows)

	default:
		return fmt.Errorf("unknown table %q", table)
	}
}

func emitAblation(w io.Writer, title string, rows []experiments.AblationRow) error {
	tw := newTable(w, title)
	fmt.Fprintln(tw, "config\tmean rel err\toptimal rate\tmean iters\tlatency (est)")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%.3f%%\t%.0f%%\t%.1f\t%v\n",
			r.Label, r.MeanRelErr*100, r.OptimalRate*100, r.MeanIterations, r.Latency)
	}
	return tw.Flush()
}

func newTable(w io.Writer, title string) *tabwriter.Writer {
	fmt.Fprintf(w, "\n== %s ==\n", title)
	return tabwriter.NewWriter(w, 0, 4, 2, ' ', 0)
}

func parseInts(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	var out []int
	for _, f := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

func parseFloats(s string) ([]float64, error) {
	if s == "" {
		return nil, nil
	}
	var out []float64
	for _, f := range strings.Split(s, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}
