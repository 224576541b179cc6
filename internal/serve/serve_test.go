package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/memlp/memlp"
	"github.com/memlp/memlp/internal/trace"
)

// newTestServer boots a Server behind httptest and tears both down with the
// test.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

// dietText is the canonical tiny LP, with the first bound varied per index
// so same-matrix submissions have distinct right-hand sides.
func dietText(i int) string {
	return fmt.Sprintf("name req%d\nmaximize 3 2\nsubject 1 1 <= %g\nsubject 1 3 <= 6\nsubject 2 1 <= 5\n", i, 4+float64(i))
}

func postSolve(t *testing.T, client *http.Client, url string, req Request, header http.Header) (int, Response) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatalf("marshal request: %v", err)
	}
	hreq, err := http.NewRequest(http.MethodPost, url+"/solve", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("new request: %v", err)
	}
	hreq.Header.Set("Content-Type", "application/json")
	for k, vs := range header {
		for _, v := range vs {
			hreq.Header.Add(k, v)
		}
	}
	if client == nil {
		client = http.DefaultClient
	}
	hresp, err := client.Do(hreq)
	if err != nil {
		t.Fatalf("POST /solve: %v", err)
	}
	defer hresp.Body.Close()
	var resp Response
	if err := json.NewDecoder(hresp.Body).Decode(&resp); err != nil {
		t.Fatalf("decode response (HTTP %d): %v", hresp.StatusCode, err)
	}
	return hresp.StatusCode, resp
}

// poolStats sums handle counts across every pool: quiesced, created == idle
// (the no-leaked-replicas invariant the tests assert).
func (s *Server) poolStats() (created, idle int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, ent := range s.entries {
		c, i := ent.pool.stats()
		created += c
		idle += i
	}
	return created, idle
}

// waitQuiesced polls until every pooled solver handle is idle again — the
// no-leaked-replicas invariant.
func waitQuiesced(t *testing.T, s *Server) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		created, idle := s.poolStats()
		if created == idle {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("pool did not quiesce: created %d handles, %d idle", created, idle)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestSolveEveryEngine round-trips the same LP through every engine and
// checks the JSON response shape.
func TestSolveEveryEngine(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, eng := range []string{"crossbar", "crossbar-large-scale", "pdip", "pdip-reduced", "simplex", "conic", "pdhg"} {
		t.Run(eng, func(t *testing.T) {
			code, resp := postSolve(t, nil, ts.URL, Request{Problem: dietText(0), Engine: eng}, nil)
			if code != http.StatusOK {
				t.Fatalf("HTTP %d: %+v", code, resp)
			}
			if resp.Status != "optimal" {
				t.Fatalf("status = %q (%s), want optimal", resp.Status, resp.Error)
			}
			if resp.Engine != eng {
				t.Errorf("engine echoed as %q", resp.Engine)
			}
			if resp.Name != "req0" {
				t.Errorf("name echoed as %q", resp.Name)
			}
			if len(resp.X) != 2 {
				t.Fatalf("len(x) = %d, want 2", len(resp.X))
			}
			if got := float64(resp.Objective); math.Abs(got-8.2) > 0.5 {
				t.Errorf("objective = %v, want ≈ 8.2", got)
			}
			analog := eng == "crossbar" || eng == "crossbar-large-scale" || eng == "conic" || eng == "pdhg"
			if (resp.Hardware != nil) != analog {
				t.Errorf("hardware block present = %v, want %v", resp.Hardware != nil, analog)
			}
			// Algorithm 1 (crossbar, conic) computes its residual digitally
			// and reports the multiply-adds; the other analog engines do
			// no such work.
			if mixed := eng == "crossbar" || eng == "conic"; resp.Hardware != nil && (resp.Hardware.DigitalMACs > 0) != mixed {
				t.Errorf("digital_macs = %d, want non-zero %v", resp.Hardware.DigitalMACs, mixed)
			}
			if eng == "simplex" && resp.Pivots == 0 {
				t.Error("simplex response missing pivot count")
			}
		})
	}
}

// TestPDHGTilesOption submits the same LP at two worker grids: the tiles
// knob joins the pool key (distinct solver handles) but — per the D18
// determinism contract — must not change any numerical field of the reply.
func TestPDHGTilesOption(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	var ref Response
	for i, tiles := range []int{1, 2} {
		code, resp := postSolve(t, nil, ts.URL,
			Request{Problem: dietText(0), Engine: "pdhg", Options: Options{Tiles: tiles}}, nil)
		if code != http.StatusOK {
			t.Fatalf("tiles=%d: HTTP %d: %+v", tiles, code, resp)
		}
		if resp.Status != "optimal" {
			t.Fatalf("tiles=%d: status %q (%s)", tiles, resp.Status, resp.Error)
		}
		if i == 0 {
			ref = resp
			continue
		}
		if resp.Objective != ref.Objective || resp.Iterations != ref.Iterations {
			t.Errorf("tiles=%d: (objective, iterations) = (%v, %d), want bit-identical (%v, %d)",
				tiles, resp.Objective, resp.Iterations, ref.Objective, ref.Iterations)
		}
		for j := range ref.X {
			if resp.X[j] != ref.X[j] {
				t.Errorf("tiles=%d: x[%d] = %v, want bit-identical %v", tiles, j, resp.X[j], ref.X[j])
			}
		}
	}
}

// TestSOCPSubmission submits a second-order cone program through the text
// format's cone directives.
func TestSOCPSubmission(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	p, err := memlp.GenerateFeasibleSOCP(9, 0, 1, 3, 5)
	if err != nil {
		t.Fatalf("GenerateFeasibleSOCP: %v", err)
	}
	var b bytes.Buffer
	if err := p.WriteText(&b); err != nil {
		t.Fatalf("WriteText: %v", err)
	}
	if !strings.Contains(b.String(), "cone soc") {
		t.Fatalf("serialized SOCP lacks cone directive:\n%s", b.String())
	}
	code, resp := postSolve(t, nil, ts.URL, Request{Problem: b.String(), Engine: "conic"}, nil)
	if code != http.StatusOK {
		t.Fatalf("HTTP %d: %+v", code, resp)
	}
	if resp.Status != "optimal" {
		t.Fatalf("status = %q (%s), want optimal", resp.Status, resp.Error)
	}
	if resp.Hardware == nil {
		t.Error("conic solve missing hardware estimate")
	}

	// The same SOCP on an LP-only engine is an invalid submission, not a 500.
	code, resp = postSolve(t, nil, ts.URL, Request{Problem: b.String(), Engine: "crossbar"}, nil)
	if code != http.StatusBadRequest {
		t.Errorf("SOCP on crossbar: HTTP %d (%+v), want 400", code, resp)
	}
}

// TestBadSubmissions covers the 4xx surface: malformed body, unknown engine,
// unparsable problem, incompatible options, wrong method, bad deadline.
func TestBadSubmissions(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	hresp, err := http.Post(ts.URL+"/solve", "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed body: HTTP %d, want 400", hresp.StatusCode)
	}

	for name, req := range map[string]Request{
		"unknown engine":      {Problem: dietText(0), Engine: "quantum"},
		"bad problem":         {Problem: "maximize spam", Engine: "crossbar"},
		"incompatible option": {Problem: dietText(0), Engine: "simplex", Options: Options{MaxIterations: 5}},
		"seed on software":    {Problem: dietText(0), Engine: "pdip", Options: Options{Seed: 7}},
		"tiles on non-pdhg":   {Problem: dietText(0), Engine: "crossbar", Options: Options{Tiles: 2}},
	} {
		code, resp := postSolve(t, nil, ts.URL, req, nil)
		if code != http.StatusBadRequest {
			t.Errorf("%s: HTTP %d (%+v), want 400", name, code, resp)
		}
	}

	hresp, err = http.Get(ts.URL + "/solve")
	if err != nil {
		t.Fatalf("GET /solve: %v", err)
	}
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /solve: HTTP %d, want 405", hresp.StatusCode)
	}

	code, _ := postSolve(t, nil, ts.URL, Request{Problem: dietText(0)},
		http.Header{"X-Deadline": []string{"yesterday-ish"}})
	if code != http.StatusBadRequest {
		t.Errorf("bad X-Deadline: HTTP %d, want 400", code)
	}
}

// TestDeadlineHeaderCancels proves X-Deadline expiry surfaces as the
// canceled status (HTTP 200) on both the solo and the coalesced path, and
// that no pool replica leaks.
func TestDeadlineHeaderCancels(t *testing.T) {
	s, ts := newTestServer(t, Config{CoalesceWindow: 20 * time.Millisecond})
	header := http.Header{"X-Deadline": []string{"1ns"}}
	for _, req := range []Request{
		{Problem: dietText(0), Engine: "crossbar", NoCoalesce: true},
		{Problem: dietText(0), Engine: "crossbar"},
	} {
		code, resp := postSolve(t, nil, ts.URL, req, header)
		if code != http.StatusOK {
			t.Fatalf("HTTP %d: %+v", code, resp)
		}
		if resp.Status != "canceled" {
			t.Errorf("no_coalesce=%v: status = %q, want canceled", req.NoCoalesce, resp.Status)
		}
		if resp.Error == "" {
			t.Errorf("no_coalesce=%v: canceled response missing error detail", req.NoCoalesce)
		}
	}
	waitQuiesced(t, s)
}

// TestClientDisconnectCancels aborts the HTTP request mid-solve and checks
// the server releases its solver handle (no leaked replica).
func TestClientDisconnectCancels(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	big, err := memlp.GenerateFeasible(90, 0, 3)
	if err != nil {
		t.Fatalf("GenerateFeasible: %v", err)
	}
	var b bytes.Buffer
	if err := big.WriteText(&b); err != nil {
		t.Fatalf("WriteText: %v", err)
	}
	body, err := json.Marshal(Request{Problem: b.String(), Engine: "crossbar", NoCoalesce: true})
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Millisecond)
	defer cancel()
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/solve", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("new request: %v", err)
	}
	if resp, err := http.DefaultClient.Do(hreq); err == nil {
		resp.Body.Close()
		t.Log("solve finished before the disconnect; leak check still applies")
	}
	waitQuiesced(t, s)
}

// TestAdmissionControl fills the admission queue and expects 429 for the
// overflow request, plus the rejection counter on /metrics.
func TestAdmissionControl(t *testing.T) {
	_, ts := newTestServer(t, Config{QueueLimit: 1, CoalesceWindow: 400 * time.Millisecond})

	first := make(chan Response, 1)
	go func() {
		_, resp := postSolve(t, nil, ts.URL, Request{Problem: dietText(0), Engine: "crossbar"}, nil)
		first <- resp
	}()
	time.Sleep(100 * time.Millisecond) // the first request now holds the only admission slot

	code, resp := postSolve(t, nil, ts.URL, Request{Problem: dietText(1), Engine: "crossbar"}, nil)
	if code != http.StatusTooManyRequests {
		t.Fatalf("overflow request: HTTP %d (%+v), want 429", code, resp)
	}

	select {
	case resp := <-first:
		if resp.Status != "optimal" {
			t.Errorf("admitted request: status %q, want optimal", resp.Status)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("admitted request never completed")
	}

	hresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer hresp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(hresp.Body)
	if !strings.Contains(buf.String(), "memlp_serve_rejected_total 1") {
		t.Errorf("/metrics missing rejection counter:\n%s", buf.String())
	}
}

// TestObservabilityEndpoints checks /healthz, /metrics and /vars content
// after a solve has flowed through.
func TestObservabilityEndpoints(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	if code, resp := postSolve(t, nil, ts.URL, Request{Problem: dietText(0), Engine: "crossbar"}, nil); code != http.StatusOK || resp.Status != "optimal" {
		t.Fatalf("warm-up solve failed: HTTP %d, %+v", code, resp)
	}

	hresp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatalf("GET /healthz: %v", err)
	}
	var buf bytes.Buffer
	buf.ReadFrom(hresp.Body)
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK || strings.TrimSpace(buf.String()) != "ok" {
		t.Errorf("/healthz: HTTP %d body %q", hresp.StatusCode, buf.String())
	}

	hresp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	buf.Reset()
	buf.ReadFrom(hresp.Body)
	hresp.Body.Close()
	if ct := hresp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("/metrics Content-Type = %q", ct)
	}
	for _, want := range []string{
		"memlp_serve_requests_total{code=\"200\"} 1",
		"memlp_serve_latency_seconds_bucket",
		"memlp_serve_batches_total 1",
		"memlp_solves_total", // engine counters flow in through the trace records
	} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("/metrics missing %q:\n%s", want, buf.String())
		}
	}

	hresp, err = http.Get(ts.URL + "/vars")
	if err != nil {
		t.Fatalf("GET /vars: %v", err)
	}
	defer hresp.Body.Close()
	var vars map[string]interface{}
	if err := json.NewDecoder(hresp.Body).Decode(&vars); err != nil {
		t.Fatalf("/vars is not JSON: %v", err)
	}
	if _, ok := vars["serve_requests"]; !ok {
		t.Errorf("/vars missing serve_requests: %v", vars)
	}
}

// TestCoalescingDeterminism is the serving-layer extension of the PR 4
// width-determinism contract: N concurrent same-matrix requests, folded into
// one batch, must return results bit-identical to a direct SolveBatch of the
// same problems in the server's canonical order at the same seed.
func TestCoalescingDeterminism(t *testing.T) {
	const n = 6
	opts := Options{Variation: 0.05, Seed: 7}
	s, ts := newTestServer(t, Config{CoalesceWindow: 250 * time.Millisecond, MaxBatch: 64})

	var wg sync.WaitGroup
	resps := make([]Response, n)
	codes := make([]int, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			codes[i], resps[i] = postSolve(t, nil, ts.URL, Request{
				Problem: dietText(i),
				Engine:  "crossbar",
				Options: opts,
			}, nil)
		}(i)
	}
	wg.Wait()

	// Reference: the same problems, sorted by the canonical rule (serialized
	// text bytes), solved as one direct batch.
	type ref struct {
		text string
		prob *memlp.Problem
	}
	refs := make([]ref, n)
	for i := 0; i < n; i++ {
		p, err := memlp.ReadProblem(strings.NewReader(dietText(i)))
		if err != nil {
			t.Fatalf("ReadProblem: %v", err)
		}
		var b bytes.Buffer
		if err := p.WriteText(&b); err != nil {
			t.Fatalf("WriteText: %v", err)
		}
		if i > 0 && !p.AdoptMatrixOf(refs[0].prob) {
			t.Fatal("reference problems do not share a matrix")
		}
		refs[i] = ref{text: b.String(), prob: p}
	}
	sort.SliceStable(refs, func(i, j int) bool { return refs[i].text < refs[j].text })
	probs := make([]*memlp.Problem, n)
	for i := range refs {
		probs[i] = refs[i].prob
	}
	solver, err := memlp.NewSolver(memlp.EngineCrossbar,
		memlp.WithSeed(opts.Seed), memlp.WithVariation(opts.Variation), memlp.WithTrace(0))
	if err != nil {
		t.Fatalf("NewSolver: %v", err)
	}
	want, err := solver.SolveBatch(context.Background(), probs)
	if err != nil {
		t.Fatalf("SolveBatch: %v", err)
	}

	for i := 0; i < n; i++ {
		if codes[i] != http.StatusOK {
			t.Fatalf("request %d: HTTP %d", i, codes[i])
		}
		r := resps[i]
		if !r.Coalesced || r.BatchSize != n {
			t.Fatalf("request %d: coalesced=%v batch_size=%d, want one batch of %d (raise the window?)",
				i, r.Coalesced, r.BatchSize, n)
		}
		w := want[r.BatchIndex]
		if r.Status != w.Status.String() {
			t.Errorf("request %d: status %q, want %q", i, r.Status, w.Status)
		}
		if math.Float64bits(float64(r.Objective)) != math.Float64bits(w.Objective) {
			t.Errorf("request %d: objective %x, want %x (not bit-identical)",
				i, math.Float64bits(float64(r.Objective)), math.Float64bits(w.Objective))
		}
		x := floats(r.X)
		if len(x) != len(w.X) {
			t.Fatalf("request %d: len(x) = %d, want %d", i, len(x), len(w.X))
		}
		for j := range x {
			if math.Float64bits(x[j]) != math.Float64bits(w.X[j]) {
				t.Errorf("request %d: x[%d] = %x, want %x (not bit-identical)",
					i, j, math.Float64bits(x[j]), math.Float64bits(w.X[j]))
			}
		}
	}
	waitQuiesced(t, s)
}

// TestGoldenTraceThroughServe is the regression guard that the serving layer
// can never perturb iterates: a traced solve over HTTP must match the same
// problem solved in-process field-for-field at 1e-9.
func TestGoldenTraceThroughServe(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	code, resp := postSolve(t, nil, ts.URL, Request{
		Problem:    dietText(0),
		Engine:     "crossbar",
		Options:    Options{Variation: 0.08, Seed: 3, Trace: true},
		NoCoalesce: true,
	}, nil)
	if code != http.StatusOK || resp.Status != "optimal" {
		t.Fatalf("HTTP %d, status %q (%s)", code, resp.Status, resp.Error)
	}
	if resp.TraceJSONL == "" {
		t.Fatal("response missing trace_jsonl")
	}
	served, err := memlp.ReadTraceJSONL(strings.NewReader(resp.TraceJSONL))
	if err != nil {
		t.Fatalf("ReadTraceJSONL: %v", err)
	}

	p, err := memlp.ReadProblem(strings.NewReader(dietText(0)))
	if err != nil {
		t.Fatalf("ReadProblem: %v", err)
	}
	solver, err := memlp.NewSolver(memlp.EngineCrossbar,
		memlp.WithSeed(3), memlp.WithVariation(0.08), memlp.WithTrace(0))
	if err != nil {
		t.Fatalf("NewSolver: %v", err)
	}
	sol, err := solver.Solve(context.Background(), p)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}

	got := make([]trace.Record, len(served))
	for i, r := range served {
		got[i] = trace.Record(r)
	}
	local := sol.Trace()
	want := make([]trace.Record, len(local))
	for i, r := range local {
		want[i] = trace.Record(r)
	}
	if diffs := trace.Diff(got, want, 1e-9); len(diffs) > 0 {
		t.Errorf("served trace diverges from in-process solve:\n%s", strings.Join(diffs, "\n"))
	}
}

// TestNoCoalesceIsolation checks the opt-out: two concurrent same-matrix
// requests with no_coalesce stay batch-of-none.
func TestNoCoalesceIsolation(t *testing.T) {
	_, ts := newTestServer(t, Config{CoalesceWindow: 100 * time.Millisecond})
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			code, resp := postSolve(t, nil, ts.URL, Request{
				Problem: dietText(i), Engine: "crossbar", NoCoalesce: true,
			}, nil)
			if code != http.StatusOK || resp.Status != "optimal" {
				t.Errorf("request %d: HTTP %d status %q", i, code, resp.Status)
			}
			if resp.Coalesced || resp.BatchSize != 0 {
				t.Errorf("request %d: coalesced despite no_coalesce: %+v", i, resp)
			}
		}(i)
	}
	wg.Wait()
}

// TestServerCoalescingDisabled checks the server-wide switch used as the
// benchmark baseline.
func TestServerCoalescingDisabled(t *testing.T) {
	_, ts := newTestServer(t, Config{DisableCoalescing: true, CoalesceWindow: 100 * time.Millisecond})
	code, resp := postSolve(t, nil, ts.URL, Request{Problem: dietText(0), Engine: "crossbar"}, nil)
	if code != http.StatusOK || resp.Status != "optimal" {
		t.Fatalf("HTTP %d status %q", code, resp.Status)
	}
	if resp.Coalesced {
		t.Errorf("request coalesced with coalescing disabled: %+v", resp)
	}
}

// TestWarmStartCacheThroughServe posts the same LP twice on a warm-capable
// engine and checks the second solve is seeded from the warm-start cache:
// fewer iterations end-to-end, the same optimum, and the
// memlp_serve_warm_starts_total counter ticking.
func TestWarmStartCacheThroughServe(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	req := Request{Problem: dietText(0), Engine: "pdip-reduced"}
	code, cold := postSolve(t, nil, ts.URL, req, nil)
	if code != http.StatusOK || cold.Status != "optimal" {
		t.Fatalf("cold solve: HTTP %d, %+v", code, cold)
	}
	code, warm := postSolve(t, nil, ts.URL, req, nil)
	if code != http.StatusOK || warm.Status != "optimal" {
		t.Fatalf("warm solve: HTTP %d, %+v", code, warm)
	}
	if warm.Iterations >= cold.Iterations {
		t.Errorf("warm repeat took %d iterations, cold took %d; want a drop",
			warm.Iterations, cold.Iterations)
	}
	if math.Abs(float64(warm.Objective)-float64(cold.Objective)) > 1e-6 {
		t.Errorf("warm objective %v, cold %v", warm.Objective, cold.Objective)
	}
	var summary struct {
		ServeWarm int64 `json:"serve_warm_starts"`
	}
	if err := json.Unmarshal([]byte(s.metrics.String()), &summary); err != nil {
		t.Fatalf("metrics summary: %v", err)
	}
	if summary.ServeWarm != 1 {
		t.Errorf("serve_warm_starts = %d, want 1", summary.ServeWarm)
	}
}

// TestPoolEntriesBounded posts one LP under 3·maxEntries distinct seeds (one
// pool key each): the server keeps at most maxEntries entries, and a repeat
// of the first, long-evicted key still answers 200 with its first answer bit
// for bit. A live entry would have seeded the repeat from its warm-start
// cache instead.
func TestPoolEntriesBounded(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	req := func(seed int64) Request {
		return Request{Problem: dietText(0), NoCoalesce: true, Options: Options{Variation: 0.05, Seed: seed}}
	}
	code, first := postSolve(t, nil, ts.URL, req(1), nil)
	if code != http.StatusOK || first.Status != "optimal" {
		t.Fatalf("first solve: HTTP %d, %+v", code, first)
	}
	for seed := int64(2); seed <= 3*maxEntries; seed++ {
		if code, resp := postSolve(t, nil, ts.URL, req(seed), nil); code != http.StatusOK {
			t.Fatalf("seed %d: HTTP %d, %+v", seed, code, resp)
		}
	}
	s.mu.Lock()
	entries, order := len(s.entries), len(s.order)
	s.mu.Unlock()
	if entries > maxEntries || order != entries {
		t.Errorf("%d entries (%d in eviction order), want at most %d", entries, order, maxEntries)
	}
	code, again := postSolve(t, nil, ts.URL, req(1), nil)
	if code != http.StatusOK {
		t.Fatalf("evicted key: HTTP %d, %+v", code, again)
	}
	if math.Float64bits(float64(again.Objective)) != math.Float64bits(float64(first.Objective)) || again.Iterations != first.Iterations {
		t.Errorf("evicted key answered %v in %d iterations, first answer %v in %d",
			again.Objective, again.Iterations, first.Objective, first.Iterations)
	}
}
