package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// exactEndToEnd are the end-to-end metrics that must repeat bit for bit for
// a seed; the others are host measurements.
var exactEndToEnd = []string{"hw_us_per_op", "hw_uj_per_op", "obj_rel_err", "ok_frac"}

// countLayer are the count-type per-layer metrics: functions of the
// operations alone, so exact for a seed like the modeled ones.
var countLayer = []string{
	"crossbar.cell_writes_per_op", "crossbar.cells_skipped_per_op", "crossbar.skip_frac",
	"crossbar.analog_ops_per_op", "crossbar.conversions_per_op",
	"core.iters_per_op", "core.programs_per_op",
	"pdhg.iters_per_op", "pdhg.restarts_per_op", "pdhg.tiles_refreshed_per_op",
	"noc.transfers_per_op", "noc.element_hops_per_op",
	"serve.batch_size_mean", "serve.coalesced_frac", "serve.partial_batch_frac", "serve.rejected_frac",
}

// testSeconds keeps the op budget small: 22 and 17 closed-loop solves, or
// 8 bursts.
const testSeconds = 1

func mustRun(t *testing.T, w workload, seed int64, traced bool) *result {
	t.Helper()
	cfg := runConfig{seed: seed, seconds: testSeconds}
	run := timedRun
	if traced {
		run = tracedRun
	}
	res, err := run(context.Background(), w, cfg)
	if err != nil {
		t.Fatalf("%s seed %d traced=%v: %v", w.name, seed, traced, err)
	}
	if !res.Correct || res.Attempted < 1 {
		t.Fatalf("%s seed %d traced=%v: correct=%v attempted=%d", w.name, seed, traced, res.Correct, res.Attempted)
	}
	return res
}

func requireSame(t *testing.T, w workload, names []string, a, b *result) {
	t.Helper()
	for _, name := range names {
		va, ok := a.Metrics[name]
		if !ok {
			t.Fatalf("%s: metric %s missing", w.name, name)
		}
		if vb := b.Metrics[name]; math.Float64bits(va.Value) != math.Float64bits(vb.Value) {
			t.Errorf("%s: %s differs between runs of one seed: %v vs %v", w.name, name, va.Value, vb.Value)
		}
	}
}

// TestExactRepeat runs every workload twice, timed and traced, with one
// seed: the exact end-to-end metrics and the count-type per-layer metrics
// must be bit-identical, and each traced run must reproduce its untraced
// operations (tracedRun fails otherwise).
func TestExactRepeat(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload four times")
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			requireSame(t, w, exactEndToEnd, mustRun(t, w, 7, false), mustRun(t, w, 7, false))
			requireSame(t, w, countLayer, mustRun(t, w, 7, true), mustRun(t, w, 7, true))
		})
	}
}

func metricSet(r *result) []string {
	var names []string
	for name, v := range r.Metrics {
		names = append(names, name+" "+v.Unit)
	}
	sort.Strings(names)
	return names
}

// TestSeedsDiffer shows that another seed regenerates every workload's
// inputs at the same shapes, and that the run reports the same metric set.
func TestSeedsDiffer(t *testing.T) {
	for _, w := range workloads {
		var texts [2]string
		for k, seed := range []int64{1, 2} {
			var buf strings.Builder
			if w.name == serveCoalesce {
				_, bs, err := serveInputs(w, seed, 2)
				if err != nil {
					t.Fatal(err)
				}
				for _, in := range bs[1] {
					buf.WriteString(in.text)
				}
			} else {
				_, probs, err := closedInputs(w, seed, 2)
				if err != nil {
					t.Fatal(err)
				}
				if err := probs[1].pub.WriteText(&buf); err != nil {
					t.Fatal(err)
				}
				if m, n := probs[1].pub.NumConstraints(), probs[1].pub.NumVariables(); m != w.m || n != w.n {
					t.Fatalf("%s seed %d: problem is %dx%d, want %dx%d", w.name, seed, m, n, w.m, w.n)
				}
			}
			texts[k] = buf.String()
		}
		if texts[0] == texts[1] {
			t.Errorf("%s: seeds 1 and 2 generated the same problems", w.name)
		}
	}
	if testing.Short() {
		return
	}
	w, _ := workloadByName(newtonFresh)
	a, b := mustRun(t, w, 1, false), mustRun(t, w, 2, false)
	if sa, sb := strings.Join(metricSet(a), ","), strings.Join(metricSet(b), ","); sa != sb {
		t.Errorf("metric sets differ between seeds:\n%s\n%s", sa, sb)
	}
	if a.Metrics["hw_uj_per_op"] == b.Metrics["hw_uj_per_op"] {
		t.Errorf("seeds 1 and 2 gave the same modeled energy; the inputs did not change")
	}
	if got, want := strings.Join(metricSet(a), ","), strings.Join(declared(t).endToEnd, ","); got != want {
		t.Errorf("timed run reports %s, BENCHMARK.json declares %s", got, want)
	}
	if a.ungated["latency_ms_p95"].Value <= 0 {
		t.Errorf("timed run did not report latency_ms_p95: %v", a.ungated)
	}
}

type declaredSets struct{ workloads, endToEnd, perLayer []string }

// declared reads the metric and workload names BENCHMARK.json declares,
// each metric as "name unit", sorted.
func declared(t *testing.T) declaredSets {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type metric struct{ Name, Unit string }
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	var d declaredSets
	for _, w := range b.Workloads {
		d.workloads = append(d.workloads, w.Name)
	}
	for _, m := range b.EndToEnd {
		d.endToEnd = append(d.endToEnd, m.Name+" "+m.Unit)
	}
	for _, m := range b.PerLayer {
		d.perLayer = append(d.perLayer, m.Name+" "+m.Unit)
	}
	sort.Strings(d.endToEnd)
	sort.Strings(d.perLayer)
	return d
}

// TestDeclaredMetrics keeps BENCHMARK.json and the program in step: the
// declared workloads are the ones the program runs, and the traced run
// reports exactly the declared per-layer metrics.
func TestDeclaredMetrics(t *testing.T) {
	d := declared(t)
	if got, want := strings.Join(workloadNames(), ","), strings.Join(d.workloads, ","); got != want {
		t.Errorf("program runs %s, BENCHMARK.json declares %s", got, want)
	}
	if got, want := strings.Join(metricSet(&result{Metrics: layerMetrics()}), ","), strings.Join(d.perLayer, ","); got != want {
		t.Errorf("traced run reports %s\nBENCHMARK.json declares %s", got, want)
	}
}

// TestSameOutcome pins the traced-run comparison: one changed counter or
// one flipped objective bit is a divergence.
func TestSameOutcome(t *testing.T) {
	a := opRecord{status: 1, objective: 1.5, iterations: 90, hwNS: 340000, energyJ: 4e-3, writes: 1300, skips: 3000, analogOps: 180, conversions: 45000}
	if !sameOutcome(a, a) {
		t.Fatal("a record differs from itself")
	}
	for name, mutate := range map[string]func(*opRecord){
		"objective": func(r *opRecord) { r.objective = math.Nextafter(r.objective, 2) },
		"skips":     func(r *opRecord) { r.skips++ },
		"status":    func(r *opRecord) { r.status++ },
		"iters":     func(r *opRecord) { r.iterations++ },
	} {
		b := a
		mutate(&b)
		if sameOutcome(a, b) {
			t.Errorf("changed %s not detected", name)
		}
	}
}

// TestCommandLine checks the flag handling and that the last output line is
// the four-key result object.
func TestCommandLine(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"--workload", "nope"}, &out, &errOut); code != 2 {
		t.Errorf("unknown workload: exit %d, want 2", code)
	}
	if code := run([]string{"--workload", newtonFresh, "--trace", "3"}, &out, &errOut); code != 2 {
		t.Errorf("bad --trace: exit %d, want 2", code)
	}
	if testing.Short() {
		return
	}
	out.Reset()
	if code := run([]string{"--workload", pdhgTiled, "--seed", "3", "--seconds", "1"}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var last map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatal(err)
	}
	var keys []string
	for k := range last {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if got := strings.Join(keys, ","); got != "attempted,correct,failed,metrics" {
		t.Errorf("result keys %s", got)
	}
	if !strings.Contains(lines[0], `"gomaxprocs"`) || !strings.Contains(lines[0], `"cpu_model"`) {
		t.Errorf("host record missing: %s", lines[0])
	}
}

func TestPercentile(t *testing.T) {
	xs := make([]float64, 200)
	for i := range xs {
		xs[i] = float64(200 - i)
	}
	p95 := percentile(xs, 0.95)
	beyond := 0
	for _, x := range xs {
		if x > p95 {
			beyond++
		}
	}
	if p95 != 190 || beyond != 10 {
		t.Errorf("p95 of 1..200 = %v with %d beyond, want 190 with 10", p95, beyond)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %v", m)
	}
}
