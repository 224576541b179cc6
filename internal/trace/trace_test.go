package trace

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"
	"time"
)

func sampleRecord(i int) Record {
	return Record{
		Engine:              "crossbar",
		Problem:             i % 3,
		Attempt:             1,
		Iteration:           i + 1,
		Event:               EventIteration,
		Mu:                  1.0 / float64(i+1),
		DualityGap:          0.5 / float64(i+1),
		PrimalInfeasibility: 1e-3,
		DualInfeasibility:   2e-3,
		Theta:               0.2,
		Objective:           -3.25,
		WriteRetries:        int64(i),
		NoiseEpoch:          int64(i % 3),
		EnergyJoules:        1e-9 * float64(i+1),
	}
}

func TestRingSnapshotOrder(t *testing.T) {
	r := NewRing(8)
	for i := 0; i < 5; i++ {
		r.Emit(sampleRecord(i))
	}
	if r.n != 5 {
		t.Fatalf("buffered %d records, want 5", r.n)
	}
	snap := r.Snapshot()
	for i, rec := range snap {
		if rec.Iteration != i+1 {
			t.Fatalf("snapshot[%d].Iteration = %d, want %d", i, rec.Iteration, i+1)
		}
	}
}

func TestRingWrapKeepsTail(t *testing.T) {
	r := NewRing(4)
	for i := 0; i < 10; i++ {
		r.Emit(sampleRecord(i))
	}
	if r.n != 4 {
		t.Fatalf("buffered %d records, want 4", r.n)
	}
	snap := r.Snapshot()
	want := []int{7, 8, 9, 10}
	for i, rec := range snap {
		if rec.Iteration != want[i] {
			t.Fatalf("snapshot[%d].Iteration = %d, want %d", i, rec.Iteration, want[i])
		}
	}
	r.Reset()
	if r.n != 0 || r.Snapshot() != nil {
		t.Fatal("Reset did not clear the ring")
	}
}

func TestRingDefaultCapacity(t *testing.T) {
	r := NewRing(0)
	if r.buf != nil {
		t.Fatalf("NewRing allocated %d records before the first Reset", len(r.buf))
	}
	r.Reset()
	if got := len(r.buf); got != DefaultCapacity {
		t.Fatalf("capacity = %d, want %d", got, DefaultCapacity)
	}
}

func TestRingEmitAllocs(t *testing.T) {
	r := NewRing(16)
	r.Reset()
	rec := sampleRecord(0)
	allocs := testing.AllocsPerRun(100, func() {
		r.Emit(rec)
	})
	if allocs != 0 {
		t.Fatalf("Ring.Emit allocates %.1f objects per call, want 0", allocs)
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	recs := []Record{sampleRecord(0), sampleRecord(1)}
	// Failed attempts carry non-finite sentinels that plain encoding/json
	// rejects; the codec must round-trip them exactly.
	recs[1].Mu = math.NaN()
	recs[1].PrimalInfeasibility = math.Inf(1)
	recs[1].DualInfeasibility = math.Inf(-1)
	recs[1].Event = EventDone
	recs[1].Status = "numerical-failure"

	var buf bytes.Buffer
	if err := Write(&buf, recs); err != nil {
		t.Fatalf("Write: %v", err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if d := Diff(got, recs, 0); len(d) != 0 {
		t.Fatalf("round trip not exact:\n%s", strings.Join(d, "\n"))
	}

	// Byte determinism: the same records always serialize identically.
	var buf2 bytes.Buffer
	if err := Write(&buf2, recs); err != nil {
		t.Fatalf("Write: %v", err)
	}
	var buf3 bytes.Buffer
	if err := Write(&buf3, got); err != nil {
		t.Fatalf("Write: %v", err)
	}
	if !bytes.Equal(buf2.Bytes(), buf3.Bytes()) {
		t.Fatal("serialization is not byte-deterministic across a round trip")
	}
}

func TestReadSkipsBlankLines(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, []Record{sampleRecord(0)}); err != nil {
		t.Fatal(err)
	}
	in := "\n" + buf.String() + "\n\n"
	got, err := Read(strings.NewReader(in))
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if len(got) != 1 {
		t.Fatalf("got %d records, want 1", len(got))
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	if _, err := Read(strings.NewReader("{not json\n")); err == nil {
		t.Fatal("Read accepted malformed input")
	}
}

func TestJSONLSink(t *testing.T) {
	var buf bytes.Buffer
	s := NewJSONL(&buf)
	s.Emit(sampleRecord(0))
	s.Emit(sampleRecord(1))
	if err := s.Err(); err != nil {
		t.Fatalf("Err: %v", err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if len(got) != 2 {
		t.Fatalf("got %d records, want 2", len(got))
	}
}

type failWriter struct{}

func (failWriter) Write([]byte) (int, error) { return 0, errClosed }

var errClosed = &writeError{}

type writeError struct{}

func (*writeError) Error() string { return "closed" }

func TestJSONLSinkLatchesError(t *testing.T) {
	s := NewJSONL(failWriter{})
	s.Emit(sampleRecord(0))
	if s.Err() == nil {
		t.Fatal("write error not reported")
	}
	s.Emit(sampleRecord(1)) // must not panic or clear the error
	if s.Err() == nil {
		t.Fatal("latched error lost")
	}
}

func TestMultiFansOut(t *testing.T) {
	a, b := NewRing(4), NewRing(4)
	m := Multi{a, b}
	m.Emit(sampleRecord(0))
	if a.n != 1 || b.n != 1 {
		t.Fatalf("fan-out failed: %d, %d", a.n, b.n)
	}
}

func doneRecord(engine, status string, iters int, gap float64) Record {
	return Record{
		Engine: engine, Event: EventDone, Status: status,
		Iteration: iters, DualityGap: gap,
		WriteRetries: 3, EnergyJoules: 2e-9, Attempt: 1,
	}
}

func TestMetricsProm(t *testing.T) {
	m := NewMetrics()
	m.Emit(sampleRecord(0)) // iteration: records only
	m.Emit(doneRecord("crossbar", "optimal", 12, 1e-8))
	m.Emit(doneRecord("crossbar", "optimal", 40, 1e-6))
	m.Emit(doneRecord("simplex", "optimal", 5, 0))
	m.Emit(Record{Event: EventResolve, Status: "numerical-failure"})
	m.Emit(Record{Event: EventSoftware})
	m.ObserveBatch([]int{3, 2}, []time.Duration{500 * time.Millisecond, 250 * time.Millisecond})

	var buf bytes.Buffer
	if err := m.WriteProm(&buf); err != nil {
		t.Fatalf("WriteProm: %v", err)
	}
	out := buf.String()
	for _, want := range []string{
		"memlp_trace_records_total 6",
		`memlp_solves_total{engine="crossbar",status="optimal"} 2`,
		`memlp_solves_total{engine="simplex",status="optimal"} 1`,
		`memlp_iterations_total{engine="crossbar"} 52`,
		`memlp_write_retries_total{engine="crossbar"} 6`,
		`memlp_recovery_events_total{event="resolve"} 1`,
		`memlp_recovery_events_total{event="software"} 1`,
		`memlp_solve_iterations_bucket{engine="crossbar",le="20"} 1`,
		`memlp_solve_iterations_bucket{engine="crossbar",le="+Inf"} 2`,
		`memlp_solve_iterations_count{engine="crossbar"} 2`,
		"memlp_batches_total 1",
		`memlp_shard_solves_total{shard="0"} 3`,
		`memlp_shard_busy_seconds_total{shard="1"} 0.25`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q\n%s", want, out)
		}
	}

	// Scrapes of unchanged state must be byte-identical (map iteration
	// order must not leak into the output).
	var buf2 bytes.Buffer
	if err := m.WriteProm(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatal("WriteProm output is not deterministic")
	}
}

func TestMetricsServeCounters(t *testing.T) {
	m := NewMetrics()
	m.ObserveServeRequest(200, 0.002)
	m.ObserveServeRequest(200, 0.3)
	m.ObserveServeRequest(429, 0.0001)
	m.ObserveServeBatch(4) // coalesced: 4 members
	m.ObserveServeBatch(1) // solo: batch counted, no coalesced members
	m.ObserveServeRejection()

	var buf bytes.Buffer
	if err := m.WriteProm(&buf); err != nil {
		t.Fatalf("WriteProm: %v", err)
	}
	out := buf.String()
	for _, want := range []string{
		`memlp_serve_requests_total{code="200"} 2`,
		`memlp_serve_requests_total{code="429"} 1`,
		`memlp_serve_latency_seconds_bucket{le="0.005"} 2`,
		`memlp_serve_latency_seconds_bucket{le="+Inf"} 3`,
		"memlp_serve_latency_seconds_count 3",
		"memlp_serve_batches_total 2",
		"memlp_serve_coalesced_requests_total 4",
		"memlp_serve_rejected_total 1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q\n%s", want, out)
		}
	}

	var parsed map[string]interface{}
	if err := json.Unmarshal([]byte(m.String()), &parsed); err != nil {
		t.Fatalf("String() is not valid JSON: %v", err)
	}
	if parsed["serve_batches"].(float64) != 2 {
		t.Fatalf("serve_batches = %v, want 2", parsed["serve_batches"])
	}
}

func TestMetricsString(t *testing.T) {
	m := NewMetrics()
	m.Emit(doneRecord("crossbar", "optimal", 12, 1e-8))
	var parsed map[string]interface{}
	if err := json.Unmarshal([]byte(m.String()), &parsed); err != nil {
		t.Fatalf("String() is not valid JSON: %v", err)
	}
	if parsed["records"].(float64) != 1 {
		t.Fatalf("records = %v, want 1", parsed["records"])
	}
}

func TestMetricsIgnoresNaNGap(t *testing.T) {
	m := NewMetrics()
	m.Emit(doneRecord("crossbar", "numerical-failure", 2, math.NaN()))
	var buf bytes.Buffer
	if err := m.WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `memlp_final_gap_count{engine="crossbar"} 0`) {
		t.Fatalf("NaN gap should not be observed:\n%s", buf.String())
	}
}

func TestDiffEqualAndPerturbed(t *testing.T) {
	a := []Record{sampleRecord(0), sampleRecord(1)}
	b := []Record{sampleRecord(0), sampleRecord(1)}
	if d := Diff(a, b, 1e-9); len(d) != 0 {
		t.Fatalf("equal traces diff: %v", d)
	}

	b[1].Theta = 0.25
	d := Diff(a, b, 1e-9)
	if len(d) != 1 || !strings.Contains(d[0], "theta") {
		t.Fatalf("want one theta mismatch, got %v", d)
	}

	b[1].Theta = a[1].Theta
	b = b[:1]
	d = Diff(a, b, 1e-9)
	if len(d) == 0 || !strings.Contains(d[0], "length") {
		t.Fatalf("want length mismatch, got %v", d)
	}
}

func TestDiffToleranceModes(t *testing.T) {
	a := []Record{sampleRecord(0)}
	b := []Record{sampleRecord(0)}
	b[0].Mu = a[0].Mu * (1 + 1e-12)
	if d := Diff(a, b, 1e-9); len(d) != 0 {
		t.Fatalf("within tolerance but flagged: %v", d)
	}
	if d := Diff(a, b, 0); len(d) != 1 {
		t.Fatalf("exact mode should flag the ULP difference, got %v", d)
	}

	// NaN residuals on a pinned failed attempt must compare equal.
	a[0].Mu = math.NaN()
	b[0].Mu = math.NaN()
	if d := Diff(a, b, 0); len(d) != 0 {
		t.Fatalf("NaN vs NaN flagged: %v", d)
	}
}

func TestDiffCapsOutput(t *testing.T) {
	var a, b []Record
	for i := 0; i < 50; i++ {
		ra, rb := sampleRecord(i), sampleRecord(i)
		rb.Mu += 1
		a, b = append(a, ra), append(b, rb)
	}
	d := Diff(a, b, 1e-9)
	if len(d) != maxDiffLines+1 {
		t.Fatalf("got %d lines, want %d + summary", len(d), maxDiffLines)
	}
	if !strings.Contains(d[len(d)-1], "more mismatches") {
		t.Fatalf("missing summary line: %q", d[len(d)-1])
	}
}
