package main

import (
	"bufio"
	"context"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"github.com/memlp/memlp"
	"github.com/memlp/memlp/internal/core"
	"github.com/memlp/memlp/internal/crossbar"
	"github.com/memlp/memlp/internal/linalg"
	"github.com/memlp/memlp/internal/lp"
	"github.com/memlp/memlp/internal/memristor"
	"github.com/memlp/memlp/internal/noc"
	"github.com/memlp/memlp/internal/pdhg"
	"github.com/memlp/memlp/internal/perf"
	"github.com/memlp/memlp/internal/variation"
)

// The traced run repeats the timed run's operations and, separately,
// drives the engines underneath the façade with the same wiring solve.go
// gives them, timing each call into a layer's public functions from here:
// the Algorithm 1 solver through core.Options.Fabric, whose crossbars are
// wrapped so every write, sense and settle is a span, and the PDHG engine
// through pdhg.Solver.SolveContext. The program itself carries no tracing.

// spanKind names a timed seam.
type spanKind uint8

const (
	spanCoreSolve spanKind = iota
	spanCoreBatch
	spanPDHGSolve
	spanProgram
	spanUpdateRow
	spanUpdateCell
	spanMatVec
	spanMatVecResidual
	spanSettle
	numSpanKinds
)

var spanNames = [numSpanKinds]string{
	"core.Solver.SolveContext", "core.Solver.SolveBatchContext", "pdhg.Solver.SolveContext",
	"crossbar.Program", "crossbar.UpdateRow", "crossbar.UpdateCellInPlace",
	"crossbar.MatVec", "crossbar.MatVecResidual", "crossbar.Solve",
}

// span is one timed call, or a run of back-to-back calls of one kind under
// one parent (the refresh loop issues one UpdateRow per row): calls counts
// them and busy is their summed duration, while start and end bound the
// run. Spans of one operation share op; parent is the id of the enclosing
// span, or -1 for an operation's root.
type span struct {
	op, id, parent int32
	kind           spanKind
	calls          int32
	start, end     time.Duration
	busy           time.Duration
}

// recorder keeps spans in memory until the run ends. One goroutine drives
// it at a time: the traced runs have a single caller and a fabric pool of
// width 1, whose shard worker runs strictly after the caller programs it.
type recorder struct {
	t0    time.Time
	spans []span
	op    int32
	root  int32
	// callStart is when the open fabric call began; fabric calls do not
	// nest.
	callStart time.Duration
}

func newRecorder() *recorder { return &recorder{t0: time.Now(), root: -1} }

// open starts a fabric call under the current root and returns its span.
func (r *recorder) open(kind spanKind) int {
	r.callStart = time.Since(r.t0)
	if n := len(r.spans) - 1; n >= 0 {
		if last := &r.spans[n]; last.kind == kind && last.parent == r.root && last.op == r.op {
			last.calls++
			return n
		}
	}
	r.spans = append(r.spans, span{op: r.op, id: int32(len(r.spans)), parent: r.root, kind: kind, calls: 1, start: r.callStart})
	return len(r.spans) - 1
}

func (r *recorder) close(i int) {
	now := time.Since(r.t0)
	r.spans[i].end = now
	r.spans[i].busy += now - r.callStart
}

// openRoot starts operation op (-1 for the warm-up) with its root span.
func (r *recorder) openRoot(op int, kind spanKind) int {
	r.op = int32(op)
	r.root = -1
	i := len(r.spans)
	r.spans = append(r.spans, span{op: r.op, id: int32(i), parent: -1, kind: kind, calls: 1, start: time.Since(r.t0)})
	r.root = int32(i)
	return i
}

func (r *recorder) closeRoot(i int) {
	s := &r.spans[i]
	s.end = time.Since(r.t0)
	s.busy = s.end - s.start
	r.root = -1
}

// totals sums the spans of the measured operations (op ≥ 0) by kind.
func (r *recorder) totals() (dur [numSpanKinds]time.Duration, calls [numSpanKinds]int) {
	for _, s := range r.spans {
		if s.op < 0 {
			continue
		}
		dur[s.kind] += s.busy
		calls[s.kind] += int(s.calls)
	}
	return dur, calls
}

// write stores the spans as JSON lines, one span per line.
func (r *recorder) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	for _, s := range r.spans {
		fmt.Fprintf(bw, "{\"op\":%d,\"id\":%d,\"parent\":%d,\"name\":%q,\"calls\":%d,\"start_ns\":%d,\"end_ns\":%d,\"busy_ns\":%d}\n",
			s.op, s.id, s.parent, spanNames[s.kind], s.calls, s.start.Nanoseconds(), s.end.Nanoseconds(), s.busy.Nanoseconds())
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tracedFabric times every core.Fabric call on one crossbar. It forwards
// the optional interfaces the core solver probes for: without
// SetDeltaProgramming delta-programming would silently turn off, and
// without SetNoiseEpoch batch noise draws would stop depending on the
// problem index.
type tracedFabric struct {
	x   *crossbar.Crossbar
	rec *recorder
}

func (t *tracedFabric) Program(a *linalg.Matrix) error {
	i := t.rec.open(spanProgram)
	defer t.rec.close(i)
	return t.x.Program(a)
}

func (t *tracedFabric) UpdateRow(row int, v linalg.Vector) error {
	i := t.rec.open(spanUpdateRow)
	defer t.rec.close(i)
	return t.x.UpdateRow(row, v)
}

func (t *tracedFabric) UpdateCellInPlace(row, col int, v float64) error {
	i := t.rec.open(spanUpdateCell)
	defer t.rec.close(i)
	return t.x.UpdateCellInPlace(row, col, v)
}

func (t *tracedFabric) MatVec(v linalg.Vector) (linalg.Vector, error) {
	i := t.rec.open(spanMatVec)
	defer t.rec.close(i)
	return t.x.MatVec(v)
}

func (t *tracedFabric) MatVecResidual(base, v, factor linalg.Vector) (linalg.Vector, error) {
	i := t.rec.open(spanMatVecResidual)
	defer t.rec.close(i)
	return t.x.MatVecResidual(base, v, factor)
}

func (t *tracedFabric) Solve(b linalg.Vector) (linalg.Vector, error) {
	i := t.rec.open(spanSettle)
	defer t.rec.close(i)
	return t.x.Solve(b)
}

func (t *tracedFabric) Counters() crossbar.Counters { return t.x.Counters() }
func (t *tracedFabric) SetNoiseEpoch(epoch int64)   { t.x.SetNoiseEpoch(epoch) }
func (t *tracedFabric) SetDeltaProgramming(on bool) { t.x.SetDeltaProgramming(on) }

var (
	_ core.NoiseEpocher    = (*tracedFabric)(nil)
	_ core.DeltaProgrammer = (*tracedFabric)(nil)
)

func traceFactory(build core.FabricFactory, rec *recorder) core.FabricFactory {
	return func(size int) (core.Fabric, error) {
		f, err := build(size)
		if err != nil {
			return nil, err
		}
		x, ok := f.(*crossbar.Crossbar)
		if !ok {
			return nil, fmt.Errorf("traced fabric: factory built %T, want a single crossbar", f)
		}
		return &tracedFabric{x: x, rec: rec}, nil
	}
}

// crossbarConfig is the per-array configuration memlp.NewSolver resolves
// for the workload: delta-programming at 8 bits and, with variation, the
// paper model at the default device seed 1.
func crossbarConfig(w workload) (crossbar.Config, error) {
	cfg := crossbar.Config{DeltaWriteBits: 8}
	if w.variation > 0 {
		vm, err := variation.NewPaperModel(w.variation, 1)
		if err != nil {
			return crossbar.Config{}, err
		}
		cfg.Variation = vm
	}
	return cfg, nil
}

func energyModel(c crossbar.Counters) float64 {
	return perf.CrossbarCost(c, memristor.DefaultTiming()).Energy
}

// tracedCoreSolver wires an Algorithm 1 solver as solve.go does for
// EngineCrossbar, with every fabric it builds traced.
func tracedCoreSolver(w workload, rec *recorder, parallelism int) (*core.Solver, error) {
	xcfg, err := crossbarConfig(w)
	if err != nil {
		return nil, err
	}
	replica := func(size int) (core.Fabric, error) {
		c := xcfg
		if c.Variation != nil {
			c.Variation = c.Variation.Clone()
		}
		return core.SingleCrossbarFactory(c)(size)
	}
	return core.NewSolver(core.Options{
		Fabric:        traceFactory(core.SingleCrossbarFactory(xcfg), rec),
		ReplicaFabric: traceFactory(replica, rec),
		Parallelism:   parallelism,
		Alpha:         w.alpha(),
		EnergyModel:   energyModel,
	})
}

// coreRecord converts a core result the way the façade builds a Solution.
func coreRecord(res *core.Result) opRecord {
	est := perf.CrossbarCost(res.Counters, memristor.DefaultTiming())
	return opRecord{
		wallTime:    res.WallTime,
		status:      memlp.Status(res.Status),
		objective:   res.Objective,
		x:           res.X,
		iterations:  res.Iterations,
		hwNS:        est.Latency.Nanoseconds(),
		energyJ:     est.Energy,
		writes:      res.Counters.CellWrites,
		skips:       res.Counters.CellSkips,
		analogOps:   res.Counters.MatVecOps + res.Counters.SolveOps,
		conversions: res.Counters.IOConversions,
	}
}

// pdhgExtra is what the PDHG engine reports beyond an opRecord.
type pdhgExtra struct {
	restarts       int
	tilesRefreshed int64
	noc            noc.Stats
}

// sameOutcome reports whether two records of one operation agree bit for
// bit on everything the seed fixes.
func sameOutcome(a, b opRecord) bool {
	return a.failed == b.failed && a.status == b.status &&
		math.Float64bits(a.objective) == math.Float64bits(b.objective) &&
		a.iterations == b.iterations && a.hwNS == b.hwNS &&
		math.Float64bits(a.energyJ) == math.Float64bits(b.energyJ) &&
		a.writes == b.writes && a.skips == b.skips &&
		a.analogOps == b.analogOps && a.conversions == b.conversions
}

func tracedNewton(ctx context.Context, w workload, rec *recorder, warm input, probs []input) ([]opRecord, error) {
	s, err := tracedCoreSolver(w, rec, 0)
	if err != nil {
		return nil, err
	}
	k := rec.openRoot(-1, spanCoreSolve)
	_, err = s.SolveContext(ctx, warm.inner)
	rec.closeRoot(k)
	if err != nil {
		return nil, fmt.Errorf("traced warm-up: %w", err)
	}
	ops := make([]opRecord, len(probs))
	for i, in := range probs {
		k := rec.openRoot(i, spanCoreSolve)
		res, err := s.SolveContext(ctx, in.inner)
		rec.closeRoot(k)
		if err != nil {
			ops[i].failed = true
			continue
		}
		ops[i] = coreRecord(res)
	}
	return ops, nil
}

func tracedPDHG(ctx context.Context, w workload, rec *recorder, warm input, probs []input) ([]opRecord, []pdhgExtra, error) {
	xcfg, err := crossbarConfig(w)
	if err != nil {
		return nil, nil, err
	}
	ncfg := noc.Config{Topology: noc.Mesh, TileSize: pdhgTileSize}
	probe, err := noc.NewRouter(ncfg, 1, 1)
	if err != nil {
		return nil, nil, err
	}
	resolved := probe.Config()
	s, err := pdhg.New(pdhg.WithNoC(ncfg), pdhg.WithCrossbar(xcfg), pdhg.WithGrid(pdhgGrid), pdhg.WithEnergyModel(energyModel))
	if err != nil {
		return nil, nil, err
	}
	k := rec.openRoot(-1, spanPDHGSolve)
	_, err = s.SolveContext(ctx, warm.inner)
	rec.closeRoot(k)
	if err != nil {
		return nil, nil, fmt.Errorf("traced warm-up: %w", err)
	}
	ops := make([]opRecord, len(probs))
	extra := make([]pdhgExtra, len(probs))
	for i, in := range probs {
		k := rec.openRoot(i, spanPDHGSolve)
		res, err := s.SolveContext(ctx, in.inner)
		rec.closeRoot(k)
		if err != nil {
			ops[i].failed = true
			continue
		}
		// The façade prices the result's NoC traffic on top of the tiles.
		est := perf.CrossbarCost(res.Counters, memristor.DefaultTiming())
		if res.NoC != (noc.Stats{}) {
			n := perf.NoCCost(res.NoC, resolved)
			est.Latency += n.Latency
			est.Energy += n.Energy
		}
		ops[i] = opRecord{
			status:      memlp.Status(res.Status),
			objective:   res.Objective,
			x:           res.X,
			iterations:  res.Iterations,
			hwNS:        est.Latency.Nanoseconds(),
			energyJ:     est.Energy,
			writes:      res.Counters.CellWrites,
			skips:       res.Counters.CellSkips,
			analogOps:   res.Counters.MatVecOps + res.Counters.SolveOps,
			conversions: res.Counters.IOConversions,
		}
		extra[i] = pdhgExtra{restarts: res.Restarts, tilesRefreshed: res.TilesRefreshed, noc: res.NoC}
	}
	return ops, extra, nil
}

// layerMetrics returns every per-layer metric at zero: a layer the
// workload bypasses, or whose time cannot be seen from outside on it,
// reads 0.
func layerMetrics() map[string]metricValue {
	m := map[string]metricValue{}
	for _, d := range [...]struct{ name, unit string }{
		{"crossbar.settle_ms_per_op", "ms"}, {"crossbar.settle_us_per_call", "us"},
		{"crossbar.sense_ms_per_op", "ms"}, {"crossbar.program_ms_per_op", "ms"},
		{"crossbar.refresh_ms_per_op", "ms"}, {"crossbar.cell_writes_per_op", "count"},
		{"crossbar.cells_skipped_per_op", "count"}, {"crossbar.skip_frac", "1"},
		{"crossbar.analog_ops_per_op", "count"}, {"crossbar.conversions_per_op", "count"},
		{"core.iters_per_op", "count"}, {"core.self_ms_per_op", "ms"}, {"core.programs_per_op", "count"},
		{"memlp.facade_us_per_op", "us"},
		{"pdhg.iters_per_op", "count"}, {"pdhg.restarts_per_op", "count"},
		{"pdhg.tiles_refreshed_per_op", "count"}, {"pdhg.us_per_iter", "us"},
		{"noc.transfers_per_op", "count"}, {"noc.element_hops_per_op", "count"},
		{"serve.self_ms_p50", "ms"}, {"serve.batch_size_mean", "count"},
		{"serve.coalesced_frac", "1"}, {"serve.partial_batch_frac", "1"}, {"serve.rejected_frac", "1"},
		{"loadgen.late_ms_p95", "ms"},
		{"runtime.alloc_kb_per_op", "KiB"}, {"runtime.mallocs_per_op", "count"},
		{"trace.overhead_frac", "1"},
	} {
		m[d.name] = metricValue{0, d.unit}
	}
	return m
}

func set(m map[string]metricValue, name string, v float64) {
	mv := m[name]
	mv.Value = v
	m[name] = mv
}

// putFabric fills the crossbar and core metrics from the traced spans and
// the per-operation counters, summed in operation order.
func putFabric(m map[string]metricValue, rec *recorder, ops []opRecord, nOps int, root spanKind) {
	dur, calls := rec.totals()
	n := float64(nOps)
	set(m, "crossbar.settle_ms_per_op", ms(dur[spanSettle])/n)
	if calls[spanSettle] > 0 {
		set(m, "crossbar.settle_us_per_call", ms(dur[spanSettle])*1e3/float64(calls[spanSettle]))
	}
	set(m, "crossbar.sense_ms_per_op", ms(dur[spanMatVec]+dur[spanMatVecResidual])/n)
	set(m, "crossbar.program_ms_per_op", ms(dur[spanProgram])/n)
	set(m, "crossbar.refresh_ms_per_op", ms(dur[spanUpdateRow]+dur[spanUpdateCell])/n)
	var fabric time.Duration
	for k := spanProgram; k < numSpanKinds; k++ {
		fabric += dur[k]
	}
	set(m, "core.self_ms_per_op", ms(dur[root]-fabric)/n)
	set(m, "core.programs_per_op", float64(calls[spanProgram])/n)
	putCounters(m, ops, n)
	var iters int
	for _, op := range ops {
		iters += op.iterations
	}
	set(m, "core.iters_per_op", float64(iters)/n)
}

func putCounters(m map[string]metricValue, ops []opRecord, n float64) {
	var writes, skips, analog, conv int64
	for _, op := range ops {
		writes += op.writes
		skips += op.skips
		analog += op.analogOps
		conv += op.conversions
	}
	set(m, "crossbar.cell_writes_per_op", float64(writes)/n)
	set(m, "crossbar.cells_skipped_per_op", float64(skips)/n)
	if writes+skips > 0 {
		set(m, "crossbar.skip_frac", float64(skips)/float64(writes+skips))
	}
	set(m, "crossbar.analog_ops_per_op", float64(analog)/n)
	set(m, "crossbar.conversions_per_op", float64(conv)/n)
}

func putRuntime(m map[string]metricValue, a allocDelta, n float64) {
	set(m, "runtime.alloc_kb_per_op", float64(a.bytes)/1024/n)
	set(m, "runtime.mallocs_per_op", float64(a.mallocs)/n)
}

func tracedRun(ctx context.Context, w workload, cfg runConfig) (*result, error) {
	rec := newRecorder()
	var res *result
	var err error
	if w.name == serveCoalesce {
		res, err = tracedServe(ctx, w, cfg, rec)
	} else {
		res, err = tracedClosed(ctx, w, cfg, rec)
	}
	if res != nil && cfg.spansDir != "" {
		path := filepath.Join(cfg.spansDir, fmt.Sprintf("%s-seed%d.jsonl", w.name, cfg.seed))
		if werr := rec.write(path); werr != nil {
			return nil, fmt.Errorf("writing spans: %w", werr)
		}
	}
	return res, err
}

func tracedClosed(ctx context.Context, w workload, cfg runConfig, rec *recorder) (*result, error) {
	n := w.closedOps(cfg.seconds)
	warm, probs, err := closedInputs(w, cfg.seed, n)
	if err != nil {
		return nil, err
	}
	base, err := runClosed(ctx, w, warm, probs)
	if err != nil {
		return nil, err
	}
	var ops []opRecord
	var extra []pdhgExtra
	root := spanCoreSolve
	if w.name == pdhgTiled {
		root = spanPDHGSolve
		ops, extra, err = tracedPDHG(ctx, w, rec, warm, probs)
	} else {
		ops, err = tracedNewton(ctx, w, rec, warm, probs)
	}
	if err != nil {
		return nil, err
	}

	res := closedResult(w, cfg, true, base)
	res.Metrics = layerMetrics()
	q, checkErr := checkAnswers(ctx, w, probs, base.ops)
	res.Failed = q.failed
	for i := range ops {
		if checkErr == nil && !sameOutcome(base.ops[i], ops[i]) {
			checkErr = fmt.Errorf("%w: traced run diverged from the timed run at operation %d", errCheck, i)
		}
	}
	res.Correct = checkErr == nil

	m := res.Metrics
	nf := float64(n)
	var facade, untraced time.Duration
	for _, op := range base.ops {
		facade += op.latency - op.wallTime
		untraced += op.latency
	}
	dur, _ := rec.totals()
	set(m, "memlp.facade_us_per_op", ms(facade)*1e3/nf)
	set(m, "trace.overhead_frac", float64(dur[root])/float64(untraced)-1)
	putRuntime(m, base.allocs, nf)
	if w.name == pdhgTiled {
		putCounters(m, ops, nf)
		var iters, restarts int
		var tiles, transfers, hops int64
		var wall time.Duration
		for i, op := range ops {
			iters += op.iterations
			restarts += extra[i].restarts
			tiles += extra[i].tilesRefreshed
			transfers += extra[i].noc.Transfers
			hops += extra[i].noc.ElementHops
			wall += base.ops[i].wallTime
		}
		set(m, "pdhg.iters_per_op", float64(iters)/nf)
		set(m, "pdhg.restarts_per_op", float64(restarts)/nf)
		set(m, "pdhg.tiles_refreshed_per_op", float64(tiles)/nf)
		set(m, "noc.transfers_per_op", float64(transfers)/nf)
		set(m, "noc.element_hops_per_op", float64(hops)/nf)
		if iters > 0 {
			set(m, "pdhg.us_per_iter", ms(wall)*1e3/float64(iters))
		}
	} else {
		putFabric(m, rec, ops, n, root)
	}
	return res, checkErr
}

func tracedServe(ctx context.Context, w workload, cfg runConfig, rec *recorder) (*result, error) {
	warm, bursts, err := serveInputs(w, cfg.seed, bursts(cfg.seconds))
	if err != nil {
		return nil, err
	}
	pass, err := runServe(w, warm, bursts)
	if err != nil {
		return nil, err
	}
	base, checkErr := serveResult(ctx, w, cfg, pass, bursts)
	res := &result{Attempted: base.Attempted, Failed: base.Failed, Metrics: layerMetrics(), host: base.host}
	res.host.Traced = true
	direct, err := solveDirect(ctx, w, bursts)
	if err != nil {
		return nil, err
	}
	if checkErr == nil {
		checkErr = checkServed(pass, bursts, direct)
	}

	// Replay every batch on a traced Algorithm 1 solver, in canonical order.
	s, err := tracedCoreSolver(w, rec, 1)
	if err != nil {
		return nil, err
	}
	var ops []opRecord
	for j, b := range bursts {
		order := canonical(b)
		probs := make([]*lp.Problem, len(order))
		for i, r := range order {
			probs[i] = b[r].inner
		}
		k := rec.openRoot(j, spanCoreBatch)
		results, err := s.SolveBatchContext(ctx, probs)
		rec.closeRoot(k)
		if err != nil {
			return nil, fmt.Errorf("traced batch %d: %w", j, err)
		}
		for pos, r := range results {
			op := coreRecord(r)
			if checkErr == nil && !sameOutcome(op, solutionRecord(direct[j].sols[pos])) {
				checkErr = fmt.Errorf("%w: traced batch %d member %d diverged from the served answer", errCheck, j, pos)
			}
			ops = append(ops, op)
		}
	}
	res.Correct = checkErr == nil

	m := res.Metrics
	nf := float64(len(ops))
	putFabric(m, rec, ops, len(ops), spanCoreBatch)
	var facade, untraced time.Duration
	for _, d := range direct {
		untraced += d.span
		facade += d.span
		for _, sol := range d.sols {
			facade -= sol.WallTime
		}
	}
	dur, _ := rec.totals()
	set(m, "memlp.facade_us_per_op", ms(facade)*1e3/nf)
	set(m, "trace.overhead_frac", float64(dur[spanCoreBatch])/float64(untraced)-1)
	putRuntime(m, pass.allocs, nf)

	var self []float64
	var batches float64 // Σ 1/batch size over answered requests
	var coalesced, partial, rejected int
	for j := range pass.reqs {
		var batchWall time.Duration
		for _, rq := range pass.reqs[j] {
			batchWall += time.Duration(rq.resp.WallNS)
		}
		for _, rq := range pass.reqs[j] {
			switch {
			case rq.code == http.StatusTooManyRequests:
				rejected++
				continue
			case rq.code != http.StatusOK:
				continue
			}
			self = append(self, ms(rq.rec.latency-batchWall))
			if rq.resp.Coalesced {
				coalesced++
			}
			if rq.resp.BatchSize > 0 {
				batches += 1 / float64(rq.resp.BatchSize)
				if rq.resp.BatchSize < burstSize && rq.resp.BatchIndex == 0 {
					partial++
				}
			}
		}
	}
	if len(self) > 0 {
		set(m, "serve.self_ms_p50", percentile(self, 0.5))
	}
	if batches > 0 {
		set(m, "serve.batch_size_mean", float64(len(self))/batches)
		set(m, "serve.partial_batch_frac", float64(partial)/batches)
	}
	set(m, "serve.coalesced_frac", float64(coalesced)/nf)
	set(m, "serve.rejected_frac", float64(rejected)/nf)
	set(m, "loadgen.late_ms_p95", percentile(pass.late, 0.95))
	return res, checkErr
}

// solutionRecord reads the seed-fixed fields of a façade Solution.
func solutionRecord(sol *memlp.Solution) opRecord {
	var r opRecord
	r.fill(sol, nil)
	return r
}
