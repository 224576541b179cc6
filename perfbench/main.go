package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run parses the command line, runs one workload (or all three) and prints
// the result. It returns the process exit code: 0 on success, 1 when an
// answer check failed, 2 on bad flags or a run that could not complete.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", ")+", or all")
	seed := fs.Int64("seed", 1, "seed every input is generated from")
	seconds := fs.Int("seconds", 25, "run length; sets the operation budget (see package docs)")
	traced := fs.Int("trace", 0, "0: timed run, end-to-end metrics; 1: traced run, per-layer metrics")
	spansDir := fs.String("spans-dir", "", "directory the traced run writes its spans to (empty: keep them in memory only)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds < 1 || (*traced != 0 && *traced != 1) || fs.NArg() != 0 {
		fmt.Fprintln(stderr, "perfbench: need --seconds >= 1 and --trace 0 or 1")
		return 2
	}
	var ws []workload
	if *name == "all" {
		ws = workloads
	} else {
		w, ok := workloadByName(*name)
		if !ok {
			fmt.Fprintf(stderr, "perfbench: unknown workload %q (want %s or all)\n", *name, strings.Join(workloadNames(), ", "))
			return 2
		}
		ws = []workload{w}
	}

	ctx := context.Background()
	final := result{Correct: true, Metrics: map[string]metricValue{}}
	for _, w := range ws {
		cfg := runConfig{seed: *seed, seconds: *seconds, spansDir: *spansDir}
		var res *result
		var err error
		if *traced == 1 {
			res, err = tracedRun(ctx, w, cfg)
		} else {
			res, err = timedRun(ctx, w, cfg)
		}
		if err != nil && !errors.Is(err, errCheck) {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
			return 2
		}
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		}
		if len(ws) == 1 {
			final = *res
			break
		}
		// With --workload all every workload prints its own result line and
		// the last line folds them together under workload-prefixed names.
		if err := printJSON(stdout, res); err != nil {
			return 2
		}
		final.Correct = final.Correct && res.Correct
		final.Attempted += res.Attempted
		final.Failed += res.Failed
		for k, v := range res.Metrics {
			final.Metrics[w.name+"/"+k] = v
		}
	}
	if err := printJSON(stdout, &final); err != nil {
		return 2
	}
	if !final.Correct {
		return 1
	}
	return 0
}

// result is the benchmark's last output line: exactly these four keys.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`

	// host and ungated are printed on their own line ahead of the result.
	host    hostRecord
	ungated map[string]metricValue
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// hostRecord is what makes two runs comparable: the machine, the runtime,
// and the load the workload actually ran.
type hostRecord struct {
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Traced     bool    `json:"traced"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	CPUModel   string  `json:"cpu_model"`
	Ops        int     `json:"ops"`
	OfferedHz  float64 `json:"offered_rate_per_s,omitempty"`
	BurstSize  int     `json:"burst_size,omitempty"`
	Clients    int     `json:"closed_loop_clients,omitempty"`
	WallS      float64 `json:"wall_s"`
}

func newHostRecord(w workload, cfg runConfig, traced bool) hostRecord {
	return hostRecord{
		Workload:   w.name,
		Seed:       cfg.seed,
		Traced:     traced,
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPUModel:   cpuModel(),
	}
}

// cpuModel reads the first "model name" line of /proc/cpuinfo; hosts
// without one report "unknown".
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// printJSON writes the record line (host, load and ungated metrics), then
// the result line.
func printJSON(w io.Writer, r *result) error {
	if r.host.Workload != "" {
		line, err := json.Marshal(struct {
			Host    hostRecord             `json:"host"`
			Ungated map[string]metricValue `json:"ungated,omitempty"`
		}{r.host, r.ungated})
		if err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s\n", line); err != nil {
			return err
		}
	}
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
