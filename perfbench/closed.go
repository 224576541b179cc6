package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"github.com/memlp/memlp"
)

// runConfig is what a run takes from the command line.
type runConfig struct {
	seed     int64
	seconds  int
	spansDir string
}

// opRecord is one operation's outcome, kept in operation order. The
// modeled fields (hwNS onwards) are exact for a given seed.
type opRecord struct {
	// latency is the host time the benchmark waited for the answer;
	// wallTime is the engine's own measured solve time (Solution.WallTime).
	latency  time.Duration
	wallTime time.Duration
	// failed marks an operation that returned an error or no answer.
	failed      bool
	status      memlp.Status
	objective   float64
	x           []float64
	iterations  int
	hwNS        int64
	energyJ     float64
	writes      int64
	skips       int64
	analogOps   int64
	conversions int64
}

func (r *opRecord) fill(sol *memlp.Solution, err error) {
	if err != nil || sol == nil {
		r.failed = true
		return
	}
	r.wallTime = sol.WallTime
	r.status = sol.Status
	r.objective = sol.Objective
	r.x = sol.X
	r.iterations = sol.Iterations
	if hw := sol.Hardware; hw != nil {
		r.hwNS = hw.Latency.Nanoseconds()
		r.energyJ = hw.EnergyJoules
		r.writes = hw.CellWrites
		r.skips = hw.CellsSkipped
		r.analogOps = hw.AnalogOps
		r.conversions = hw.Conversions
	}
}

// closedPass is one pass of a closed-loop workload: set-up, then every
// problem solved in order by one caller that waits for each answer.
type closedPass struct {
	setupS []float64
	ops    []opRecord
	wall   time.Duration
	cpu    time.Duration
	allocs allocDelta
	// heapEnd is the live heap after a forced GC at the end of the pass,
	// with the solver still in use.
	heapEnd uint64
}

// newPublicSolver builds the workload's solver through the public façade.
func newPublicSolver(w workload) (*memlp.Solver, error) {
	switch w.name {
	case newtonFresh:
		return memlp.NewSolver(memlp.EngineCrossbar, memlp.WithVariation(w.variation))
	case pdhgTiled:
		return memlp.NewSolver(memlp.EnginePDHG, memlp.WithNoC("mesh", pdhgTileSize), memlp.WithTiles(pdhgGrid))
	}
	return nil, fmt.Errorf("workload %s is not a closed loop", w.name)
}

// setupClosed builds a fresh solver and runs the warm-up solve on it.
func setupClosed(ctx context.Context, w workload, warm input) (*memlp.Solver, error) {
	s, err := newPublicSolver(w)
	if err != nil {
		return nil, err
	}
	if _, err := s.Solve(ctx, warm.pub); err != nil {
		return nil, fmt.Errorf("warm-up solve: %w", err)
	}
	return s, nil
}

func runClosed(ctx context.Context, w workload, warm input, probs []input) (*closedPass, error) {
	pass := &closedPass{setupS: make([]float64, setupRepeats), ops: make([]opRecord, len(probs))}
	var s *memlp.Solver
	for k := range pass.setupS {
		start := time.Now()
		var err error
		if s, err = setupClosed(ctx, w, warm); err != nil {
			return nil, err
		}
		pass.setupS[k] = time.Since(start).Seconds()
	}

	runtime.GC()
	mem0 := memSnapshot()
	cpu0 := cpuTime()
	start := time.Now()
	for i, in := range probs {
		t := time.Now()
		sol, err := s.Solve(ctx, in.pub)
		pass.ops[i].latency = time.Since(t)
		pass.ops[i].fill(sol, err)
	}
	pass.wall = time.Since(start)
	pass.cpu = cpuTime() - cpu0
	pass.allocs = allocsBetween(mem0, memSnapshot())

	pass.heapEnd = liveHeap()
	runtime.KeepAlive(s)
	return pass, nil
}

func timedClosed(ctx context.Context, w workload, cfg runConfig) (*result, error) {
	n := w.closedOps(cfg.seconds)
	before := liveHeap()
	warm, probs, err := closedInputs(w, cfg.seed, n)
	if err != nil {
		return nil, err
	}
	inputBytes := heapSince(before)
	pass, err := runClosed(ctx, w, warm, probs)
	if err != nil {
		return nil, err
	}
	res := closedResult(w, cfg, false, pass)
	q, checkErr := checkAnswers(ctx, w, probs, pass.ops)
	res.Correct = checkErr == nil
	res.Failed = q.failed

	lat := make([]float64, n)
	for i, op := range pass.ops {
		lat[i] = ms(op.latency)
	}
	put := res.Metrics
	put["ops_per_s"] = metricValue{float64(n) / pass.wall.Seconds(), "1/s"}
	put["latency_ms_p50"] = metricValue{percentile(lat, 0.50), "ms"}
	res.ungated = map[string]metricValue{"latency_ms_p95": {percentile(lat, 0.95), "ms"}}
	put["cpu_ms_per_op"] = metricValue{ms(pass.cpu) / float64(n), "ms"}
	put["setup_s"] = metricValue{median(pass.setupS), "s"}
	put["heap_live_mb"] = metricValue{heapLiveMB(pass.heapEnd, inputBytes), "MiB"}
	q.put(put, pass.ops)
	return res, checkErr
}

// closedResult starts a closed-loop run's result: the host record and the
// load the pass ran.
func closedResult(w workload, cfg runConfig, traced bool, pass *closedPass) *result {
	res := &result{Attempted: len(pass.ops), Metrics: map[string]metricValue{}}
	res.host = newHostRecord(w, cfg, traced)
	res.host.Ops = len(pass.ops)
	res.host.Clients = 1
	res.host.WallS = pass.wall.Seconds()
	return res
}

func timedRun(ctx context.Context, w workload, cfg runConfig) (*result, error) {
	if w.name == serveCoalesce {
		return timedServe(ctx, w, cfg)
	}
	return timedClosed(ctx, w, cfg)
}
