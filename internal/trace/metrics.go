package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"sync"
)

// Histogram bucket bounds. Iteration buckets cover the O(√N) range the
// paper reports; gap buckets are log-spaced around the optimality
// tolerances; latency buckets cover the memlpd serving range from
// sub-millisecond cache-warm solves to multi-second cold batches.
var (
	iterBuckets    = []float64{1, 2, 5, 10, 20, 50, 100, 200, 500}
	gapBuckets     = []float64{1e-9, 1e-7, 1e-5, 1e-3, 1e-1, 10}
	latencyBuckets = []float64{0.001, 0.005, 0.025, 0.1, 0.5, 2.5, 10}
)

// hist is a fixed-bucket cumulative histogram.
type hist struct {
	bounds []float64
	counts []int64
	sum    float64
	n      int64
}

func newHist(bounds []float64) *hist {
	return &hist{bounds: bounds, counts: make([]int64, len(bounds))}
}

func (h *hist) observe(v float64) {
	if math.IsNaN(v) { // failed attempts fill residuals with NaN
		return
	}
	h.sum += v
	h.n++
	for i, b := range h.bounds {
		if v <= b {
			h.counts[i]++
		}
	}
}

// Metrics aggregates trace records into Prometheus-style counters and
// histograms, labeled by engine, status, recovery event and batch-pool
// shard. It is safe for concurrent use, implements Sink, and its String
// method satisfies expvar.Var so one instance serves both exposition
// styles.
type Metrics struct {
	mu           sync.Mutex
	records      int64              //memlp:guardedby mu
	solves       map[string]int64   //memlp:guardedby mu — "engine|status"
	iterations   map[string]int64   //memlp:guardedby mu — engine
	retries      map[string]int64   //memlp:guardedby mu — engine
	cellsWritten map[string]int64   //memlp:guardedby mu — engine
	cellsSkipped map[string]int64   //memlp:guardedby mu — engine
	energy       map[string]float64 //memlp:guardedby mu
	events       map[string]int64   //memlp:guardedby mu — recovery event name
	iterHist     map[string]*hist   //memlp:guardedby mu — engine
	gapHist      map[string]*hist   //memlp:guardedby mu — engine
	batches      int64              //memlp:guardedby mu
	shardSolves  map[int]int64      //memlp:guardedby mu
	shardBusy    map[int]float64    //memlp:guardedby mu — seconds

	// Serving counters (cmd/memlpd): per-status-code request counts, request
	// latency, the coalescer's batch/hit split, and admission rejections.
	serveReqs      map[string]int64 //memlp:guardedby mu — HTTP status code, as a string label
	serveLatency   *hist            //memlp:guardedby mu — seconds
	serveBatches   int64            //memlp:guardedby mu — SolveBatch launches by the coalescer
	serveCoalesced int64            //memlp:guardedby mu — requests that shared a batch with >= 1 other
	serveRejected  int64            //memlp:guardedby mu — requests refused by admission control (429)
	serveWarm      int64            //memlp:guardedby mu — solo solves seeded from the warm-start cache
}

// NewMetrics returns an empty aggregator.
func NewMetrics() *Metrics {
	return &Metrics{
		solves:       make(map[string]int64),
		iterations:   make(map[string]int64),
		retries:      make(map[string]int64),
		cellsWritten: make(map[string]int64),
		cellsSkipped: make(map[string]int64),
		energy:       make(map[string]float64),
		events:       make(map[string]int64),
		iterHist:     make(map[string]*hist),
		gapHist:      make(map[string]*hist),
		shardSolves:  make(map[int]int64),
		shardBusy:    make(map[int]float64),
		serveReqs:    make(map[string]int64),
	}
}

// Emit implements Sink. Per-iteration records bump the record counter
// only; done records fold the whole solve into the engine-labeled
// counters and histograms; recovery events count by rung.
func (m *Metrics) Emit(rec Record) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.records++
	engine := rec.Engine
	if engine == "" {
		engine = "unknown"
	}
	switch rec.Event {
	case EventDone, EventTrial:
		m.solves[engine+"|"+rec.Status]++
		m.iterations[engine] += int64(rec.Iteration)
		m.retries[engine] += rec.WriteRetries
		m.cellsWritten[engine] += rec.CellsWritten
		m.cellsSkipped[engine] += rec.CellsSkipped
		m.energy[engine] += rec.EnergyJoules
		ih := m.iterHist[engine]
		if ih == nil {
			ih = newHist(iterBuckets)
			m.iterHist[engine] = ih
		}
		ih.observe(float64(rec.Iteration))
		gh := m.gapHist[engine]
		if gh == nil {
			gh = newHist(gapBuckets)
			m.gapHist[engine] = gh
		}
		gh.observe(rec.DualityGap)
	case EventResolve, EventSoftware:
		m.events[rec.Event]++
	}
}

// ObserveBatch folds one batch-pool roll-up into the per-shard counters:
// solves per shard and busy wall time per shard, in seconds.
func (m *Metrics) ObserveBatch(shardSolves []int, shardBusySeconds []float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.batches++
	for i, n := range shardSolves {
		m.shardSolves[i] += int64(n)
	}
	for i, s := range shardBusySeconds {
		m.shardBusy[i] += s
	}
}

// ObserveServeRequest counts one served solver request: the HTTP status code
// it answered with and its end-to-end latency (admission to response) in
// seconds.
func (m *Metrics) ObserveServeRequest(code int, seconds float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.serveReqs[strconv.Itoa(code)]++
	if m.serveLatency == nil {
		m.serveLatency = newHist(latencyBuckets)
	}
	m.serveLatency.observe(seconds)
}

// ObserveServeBatch counts one coalescer SolveBatch launch of the given
// size. Sizes above one additionally count every member as a coalesced
// request — the numerator of the hit rate whose denominator is
// memlp_serve_requests_total.
func (m *Metrics) ObserveServeBatch(size int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.serveBatches++
	if size > 1 {
		m.serveCoalesced += int64(size)
	}
}

// ObserveServeRejection counts one request refused by admission control.
func (m *Metrics) ObserveServeRejection() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.serveRejected++
}

// ObserveServeWarmStart counts one solo solve seeded from the server's
// fingerprint-keyed warm-start cache.
func (m *Metrics) ObserveServeWarmStart() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.serveWarm++
}

// WriteProm writes the Prometheus text exposition format. Output is fully
// sorted so repeated scrapes of the same state are byte-identical.
func (m *Metrics) WriteProm(w io.Writer) error {
	m.mu.Lock()
	defer m.mu.Unlock()

	var err error
	p := func(format string, args ...interface{}) {
		if err == nil {
			_, err = fmt.Fprintf(w, format, args...)
		}
	}

	p("# HELP memlp_trace_records_total Trace records received by this sink.\n")
	p("# TYPE memlp_trace_records_total counter\n")
	p("memlp_trace_records_total %d\n", m.records)

	p("# HELP memlp_solves_total Completed solves by engine and final status.\n")
	p("# TYPE memlp_solves_total counter\n")
	for _, k := range sortedKeys(m.solves) {
		engine, status := splitKey(k)
		p("memlp_solves_total{engine=%q,status=%q} %d\n", engine, status, m.solves[k])
	}

	p("# HELP memlp_iterations_total Interior-point iterations (or simplex pivots) by engine.\n")
	p("# TYPE memlp_iterations_total counter\n")
	for _, k := range sortedKeys(m.iterations) {
		p("memlp_iterations_total{engine=%q} %d\n", k, m.iterations[k])
	}

	p("# HELP memlp_write_retries_total Write-verify corrective pulses by engine.\n")
	p("# TYPE memlp_write_retries_total counter\n")
	for _, k := range sortedKeys(m.retries) {
		p("memlp_write_retries_total{engine=%q} %d\n", k, m.retries[k])
	}

	p("# HELP memlp_cells_written_total Crossbar device programming operations by engine.\n")
	p("# TYPE memlp_cells_written_total counter\n")
	for _, k := range sortedKeys(m.cellsWritten) {
		p("memlp_cells_written_total{engine=%q} %d\n", k, m.cellsWritten[k])
	}

	p("# HELP memlp_cells_skipped_total Cell writes avoided by delta-programming by engine.\n")
	p("# TYPE memlp_cells_skipped_total counter\n")
	for _, k := range sortedKeys(m.cellsSkipped) {
		p("memlp_cells_skipped_total{engine=%q} %d\n", k, m.cellsSkipped[k])
	}

	p("# HELP memlp_energy_joules_total Modeled crossbar energy by engine.\n")
	p("# TYPE memlp_energy_joules_total counter\n")
	for _, k := range sortedKeys(m.energy) {
		p("memlp_energy_joules_total{engine=%q} %s\n", k, formatProm(m.energy[k]))
	}

	p("# HELP memlp_recovery_events_total Recovery-ladder escalations by rung event.\n")
	p("# TYPE memlp_recovery_events_total counter\n")
	for _, k := range sortedKeys(m.events) {
		p("memlp_recovery_events_total{event=%q} %d\n", k, m.events[k])
	}

	p("# HELP memlp_solve_iterations Iterations to termination by engine.\n")
	p("# TYPE memlp_solve_iterations histogram\n")
	for _, k := range sortedHistKeys(m.iterHist) {
		writeHist(p, "memlp_solve_iterations", k, m.iterHist[k])
	}

	p("# HELP memlp_final_gap Final duality gap by engine.\n")
	p("# TYPE memlp_final_gap histogram\n")
	for _, k := range sortedHistKeys(m.gapHist) {
		writeHist(p, "memlp_final_gap", k, m.gapHist[k])
	}

	p("# HELP memlp_batches_total Batch solves observed.\n")
	p("# TYPE memlp_batches_total counter\n")
	p("memlp_batches_total %d\n", m.batches)

	p("# HELP memlp_shard_solves_total Problems solved per fabric-pool shard.\n")
	p("# TYPE memlp_shard_solves_total counter\n")
	for _, k := range sortedIntKeys(m.shardSolves) {
		p("memlp_shard_solves_total{shard=\"%d\"} %d\n", k, m.shardSolves[k])
	}

	p("# HELP memlp_shard_busy_seconds_total Busy wall time per fabric-pool shard.\n")
	p("# TYPE memlp_shard_busy_seconds_total counter\n")
	for _, k := range sortedIntKeys(m.shardBusy) {
		p("memlp_shard_busy_seconds_total{shard=\"%d\"} %s\n", k, formatProm(m.shardBusy[k]))
	}

	p("# HELP memlp_serve_requests_total Solver requests served by HTTP status code.\n")
	p("# TYPE memlp_serve_requests_total counter\n")
	for _, k := range sortedKeys(m.serveReqs) {
		p("memlp_serve_requests_total{code=%q} %d\n", k, m.serveReqs[k])
	}

	p("# HELP memlp_serve_latency_seconds Request latency, admission to response.\n")
	p("# TYPE memlp_serve_latency_seconds histogram\n")
	if h := m.serveLatency; h != nil {
		for i, b := range h.bounds {
			p("memlp_serve_latency_seconds_bucket{le=%q} %d\n", formatProm(b), h.counts[i])
		}
		p("memlp_serve_latency_seconds_bucket{le=\"+Inf\"} %d\n", h.n)
		p("memlp_serve_latency_seconds_sum %s\n", formatProm(h.sum))
		p("memlp_serve_latency_seconds_count %d\n", h.n)
	}

	p("# HELP memlp_serve_batches_total Coalescer SolveBatch launches.\n")
	p("# TYPE memlp_serve_batches_total counter\n")
	p("memlp_serve_batches_total %d\n", m.serveBatches)

	p("# HELP memlp_serve_coalesced_requests_total Requests folded into a shared-matrix batch with at least one other request.\n")
	p("# TYPE memlp_serve_coalesced_requests_total counter\n")
	p("memlp_serve_coalesced_requests_total %d\n", m.serveCoalesced)

	p("# HELP memlp_serve_rejected_total Requests refused by admission control (HTTP 429).\n")
	p("# TYPE memlp_serve_rejected_total counter\n")
	p("memlp_serve_rejected_total %d\n", m.serveRejected)

	p("# HELP memlp_serve_warm_starts_total Solo solves seeded from the warm-start cache.\n")
	p("# TYPE memlp_serve_warm_starts_total counter\n")
	p("memlp_serve_warm_starts_total %d\n", m.serveWarm)
	return err
}

func writeHist(p func(string, ...interface{}), name, engine string, h *hist) {
	for i, b := range h.bounds {
		p("%s_bucket{engine=%q,le=%q} %d\n", name, engine, formatProm(b), h.counts[i])
	}
	p("%s_bucket{engine=%q,le=\"+Inf\"} %d\n", name, engine, h.n)
	p("%s_sum{engine=%q} %s\n", name, engine, formatProm(h.sum))
	p("%s_count{engine=%q} %d\n", name, engine, h.n)
}

func formatProm(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func sortedHistKeys(m map[string]*hist) []string { return sortedKeys(m) }

func sortedIntKeys[V any](m map[int]V) []int {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys
}

func splitKey(k string) (string, string) {
	for i := 0; i < len(k); i++ {
		if k[i] == '|' {
			return k[:i], k[i+1:]
		}
	}
	return k, ""
}

// String renders a compact JSON summary; it satisfies expvar.Var so a
// Metrics can be published directly with expvar.Publish.
func (m *Metrics) String() string {
	m.mu.Lock()
	defer m.mu.Unlock()
	summary := struct {
		Records    int64              `json:"records"`
		Solves     map[string]int64   `json:"solves"`
		Iterations map[string]int64   `json:"iterations"`
		Retries    map[string]int64   `json:"write_retries"`
		Written    map[string]int64   `json:"cells_written"`
		Skipped    map[string]int64   `json:"cells_skipped"`
		Energy     map[string]float64 `json:"energy_joules"`
		Events     map[string]int64   `json:"recovery_events"`
		Batches    int64              `json:"batches"`
		ServeReqs  map[string]int64   `json:"serve_requests,omitempty"`
		ServeBatch int64              `json:"serve_batches,omitempty"`
		ServeCoal  int64              `json:"serve_coalesced,omitempty"`
		ServeRej   int64              `json:"serve_rejected,omitempty"`
		ServeWarm  int64              `json:"serve_warm_starts,omitempty"`
	}{m.records, m.solves, m.iterations, m.retries, m.cellsWritten, m.cellsSkipped,
		m.energy, m.events, m.batches,
		m.serveReqs, m.serveBatches, m.serveCoalesced, m.serveRejected, m.serveWarm}
	b, err := json.Marshal(summary)
	if err != nil {
		return "{}"
	}
	return string(b)
}
