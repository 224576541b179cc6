package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"sync"
	"time"

	"github.com/memlp/memlp"
	"github.com/memlp/memlp/internal/serve"
)

// coalesceWindow is far longer than a burst takes to arrive, so every batch
// launches full on MaxBatch; a timer-launched partial batch would change
// which problems share noise epochs.
const coalesceWindow = 2 * time.Second

// serverConfig is the memlpd configuration under test: one batch per burst
// and a fabric pool of width 1 (two replicas would let load balancing
// change which problems share a shard from run to run).
func serverConfig() serve.Config {
	return serve.Config{MaxBatch: burstSize, CoalesceWindow: coalesceWindow, Parallelism: 1}
}

// solverOptions are the options memlpd builds its crossbar solvers with for
// the requests below, so a direct SolveBatch reproduces a served batch.
func solverOptions(w workload) []memlp.Option {
	return []memlp.Option{memlp.WithTrace(0), memlp.WithSeed(1), memlp.WithVariation(w.variation), memlp.WithParallelism(1)}
}

func requestBody(w workload, in input) ([]byte, error) {
	return json.Marshal(serve.Request{
		Problem: in.text,
		Engine:  "crossbar",
		Options: serve.Options{Variation: w.variation},
	})
}

// served is one request's outcome, indexed by (burst, member).
type served struct {
	due, done time.Duration // since the load generator's start
	code      int
	body      []byte
	resp      serve.Response
	rec       opRecord
}

// servePass is one open-loop pass: set-up, then every burst sent on its
// schedule regardless of how the server keeps up.
type servePass struct {
	setupS  []float64
	reqs    [][]served
	late    []float64 // per burst: how late the generator sent it, ms
	wall    time.Duration
	cpu     time.Duration
	allocs  allocDelta
	heapEnd uint64
}

// sendBurst posts every body to h concurrently and waits for the answers.
func sendBurst(h http.Handler, bodies [][]byte, out []served, t0 time.Time) {
	var wg sync.WaitGroup
	for r, body := range bodies {
		wg.Add(1)
		go func(r int, body []byte) {
			defer wg.Done()
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/solve", bytes.NewReader(body)))
			if out != nil {
				out[r].done = time.Since(t0)
				out[r].code = rec.Code
				out[r].body = rec.Body.Bytes()
			}
		}(r, body)
	}
	wg.Wait()
}

func runServe(w workload, warm []input, bursts [][]input) (*servePass, error) {
	warmBodies := make([][]byte, len(warm))
	for r, in := range warm {
		var err error
		if warmBodies[r], err = requestBody(w, in); err != nil {
			return nil, err
		}
	}
	bodies := make([][][]byte, len(bursts))
	for j, b := range bursts {
		bodies[j] = make([][]byte, len(b))
		for r, in := range b {
			var err error
			if bodies[j][r], err = requestBody(w, in); err != nil {
				return nil, err
			}
		}
	}

	pass := &servePass{setupS: make([]float64, setupRepeats), reqs: make([][]served, len(bursts)), late: make([]float64, len(bursts))}
	var srv *serve.Server
	for k := range pass.setupS {
		if srv != nil {
			srv.Close()
		}
		start := time.Now()
		srv = serve.New(serverConfig())
		sendBurst(srv.Handler(), warmBodies, nil, start)
		pass.setupS[k] = time.Since(start).Seconds()
	}
	defer srv.Close()
	h := srv.Handler()

	runtime.GC()
	mem0 := memSnapshot()
	cpu0 := cpuTime()
	period := time.Second / burstsPerSecond
	t0 := time.Now()
	var wg sync.WaitGroup
	for j := range bursts {
		due := time.Duration(j) * period
		time.Sleep(time.Until(t0.Add(due)))
		pass.late[j] = ms(time.Since(t0) - due)
		pass.reqs[j] = make([]served, len(bursts[j]))
		for r := range pass.reqs[j] {
			pass.reqs[j][r].due = due
		}
		wg.Add(1)
		go func(j int) {
			defer wg.Done()
			sendBurst(h, bodies[j], pass.reqs[j], t0)
		}(j)
	}
	wg.Wait()
	var last time.Duration
	for _, b := range pass.reqs {
		for _, rq := range b {
			if rq.done > last {
				last = rq.done
			}
		}
	}
	pass.wall = last
	pass.cpu = cpuTime() - cpu0
	pass.allocs = allocsBetween(mem0, memSnapshot())

	// Decode outside the timed window.
	for j := range pass.reqs {
		for r := range pass.reqs[j] {
			rq := &pass.reqs[j][r]
			rq.rec.latency = rq.done - rq.due
			if rq.code != http.StatusOK {
				rq.rec.failed = true
				continue
			}
			if err := json.Unmarshal(rq.body, &rq.resp); err != nil {
				return nil, fmt.Errorf("burst %d request %d: decoding response: %w", j, r, err)
			}
			rq.body = nil
			rq.rec.fillResponse(&rq.resp)
		}
	}
	pass.heapEnd = liveHeap()
	runtime.KeepAlive(srv)
	return pass, nil
}

func (r *opRecord) fillResponse(resp *serve.Response) {
	r.wallTime = time.Duration(resp.WallNS)
	r.status = statusByName(resp.Status)
	r.objective = float64(resp.Objective)
	r.x = make([]float64, len(resp.X))
	for i, v := range resp.X {
		r.x[i] = float64(v)
	}
	r.iterations = resp.Iterations
	if hw := resp.Hardware; hw != nil {
		r.hwNS = hw.LatencyNS
		r.energyJ = float64(hw.EnergyJoules)
		r.writes = hw.CellWrites
		r.analogOps = hw.AnalogOps
		r.conversions = hw.Conversions
	}
}

// statusByName inverts memlp.Status.String for the wire form; unknown names
// map to StatusNumericalFailure, which the checks count as not optimal.
func statusByName(name string) memlp.Status {
	for s := memlp.StatusOptimal; s <= memlp.StatusDegraded; s++ {
		if s.String() == name {
			return s
		}
	}
	return memlp.StatusNumericalFailure
}

// canonical returns burst members in the coalescer's canonical order
// (serialized problem text; no two members of a burst share a text).
func canonical(b []input) []int {
	idx := make([]int, len(b))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(x, y int) bool { return b[idx[x]].text < b[idx[y]].text })
	return idx
}

// directBatch is one burst re-solved through memlp.Solver.SolveBatch in
// canonical order: the D15 reference for the served answers.
type directBatch struct {
	sols []*memlp.Solution // in canonical order
	span time.Duration     // host time of the SolveBatch call
}

// solveDirect re-solves every burst with a direct SolveBatch, two workers
// each with its own solver; batches do not depend on solver history.
func solveDirect(ctx context.Context, w workload, bursts [][]input) ([]directBatch, error) {
	out := make([]directBatch, len(bursts))
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for k := range errs {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			s, err := memlp.NewSolver(memlp.EngineCrossbar, solverOptions(w)...)
			if err != nil {
				errs[k] = err
				return
			}
			for j := k; j < len(bursts); j += len(errs) {
				order := canonical(bursts[j])
				probs := make([]*memlp.Problem, len(order))
				for i, r := range order {
					probs[i] = bursts[j][r].pub
				}
				start := time.Now()
				sols, err := s.SolveBatch(ctx, probs)
				out[j] = directBatch{sols: sols, span: time.Since(start)}
				if err != nil {
					errs[k] = fmt.Errorf("direct batch %d: %w", j, err)
					return
				}
			}
		}(k)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// checkServed requires every served answer to be bit-identical to the
// direct batch: same batch, same canonical position, same status,
// objective, point, iterations and modeled cost.
func checkServed(pass *servePass, bursts [][]input, direct []directBatch) error {
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	for j, b := range bursts {
		for pos, r := range canonical(b) {
			rq := &pass.reqs[j][r]
			if rq.rec.failed {
				continue
			}
			sol := direct[j].sols[pos]
			resp := &rq.resp
			var hwNS int64
			var energy float64
			if sol.Hardware != nil {
				hwNS, energy = sol.Hardware.Latency.Nanoseconds(), sol.Hardware.EnergyJoules
			}
			ok := resp.BatchSize == len(b) && resp.BatchIndex == pos &&
				rq.rec.status == sol.Status && same(rq.rec.objective, sol.Objective) &&
				rq.rec.iterations == sol.Iterations && rq.rec.hwNS == hwNS && same(rq.rec.energyJ, energy) &&
				len(rq.rec.x) == len(sol.X)
			for i := 0; ok && i < len(sol.X); i++ {
				ok = same(rq.rec.x[i], sol.X[i])
			}
			if !ok {
				return fmt.Errorf("%w: burst %d request %d: served answer (batch %d/%d) differs from the direct batch", errCheck, j, r, resp.BatchIndex, resp.BatchSize)
			}
		}
	}
	return nil
}

// flatten lists a pass's requests and problems in operation order (burst,
// then member), the order every per-request sum runs in.
func flatten(pass *servePass, bursts [][]input) ([]opRecord, []input) {
	var ops []opRecord
	var ins []input
	for j, b := range bursts {
		for r, in := range b {
			ops = append(ops, pass.reqs[j][r].rec)
			ins = append(ins, in)
		}
	}
	return ops, ins
}

func timedServe(ctx context.Context, w workload, cfg runConfig) (*result, error) {
	before := liveHeap()
	warm, bursts, err := serveInputs(w, cfg.seed, bursts(cfg.seconds))
	if err != nil {
		return nil, err
	}
	inputBytes := heapSince(before)
	pass, err := runServe(w, warm, bursts)
	if err != nil {
		return nil, err
	}
	res, checkErr := serveResult(ctx, w, cfg, pass, bursts)
	res.Metrics["heap_live_mb"] = metricValue{heapLiveMB(pass.heapEnd, inputBytes), "MiB"}
	if checkErr == nil {
		var direct []directBatch
		if direct, err = solveDirect(ctx, w, bursts); err != nil {
			return nil, err
		}
		checkErr = checkServed(pass, bursts, direct)
	}
	res.Correct = checkErr == nil
	return res, checkErr
}

// serveResult computes the end-to-end metrics of an open-loop pass and runs
// the reference checks.
func serveResult(ctx context.Context, w workload, cfg runConfig, pass *servePass, bursts [][]input) (*result, error) {
	ops, ins := flatten(pass, bursts)
	n := len(ops)
	res := &result{Attempted: n, Metrics: map[string]metricValue{}}
	res.host = newHostRecord(w, cfg, false)
	res.host.Ops = n
	res.host.OfferedHz = burstsPerSecond * burstSize
	res.host.BurstSize = burstSize
	res.host.WallS = pass.wall.Seconds()

	q, checkErr := checkAnswers(ctx, w, ins, ops)
	res.Failed = q.failed

	lat := make([]float64, n)
	for i, op := range ops {
		lat[i] = ms(op.latency)
	}
	// The members of a batch finish together, so the tail percentile counts
	// bursts: a burst's latency is its slowest member's.
	burstLat := make([]float64, len(bursts))
	for j := range bursts {
		for _, rq := range pass.reqs[j] {
			burstLat[j] = math.Max(burstLat[j], ms(rq.rec.latency))
		}
	}
	put := res.Metrics
	put["ops_per_s"] = metricValue{float64(n) / pass.wall.Seconds(), "1/s"}
	put["latency_ms_p50"] = metricValue{percentile(lat, 0.50), "ms"}
	res.ungated = map[string]metricValue{"latency_ms_p95": {percentile(burstLat, 0.95), "ms"}}
	put["cpu_ms_per_op"] = metricValue{ms(pass.cpu) / float64(n), "ms"}
	put["setup_s"] = metricValue{median(pass.setupS), "s"}
	q.put(put, ops)
	return res, checkErr
}
