package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/memlp/memlp/internal/lp"
)

// sameMatrixBurst returns n request bodies for one generated m=16 LP, each
// raising the right-hand side differently, so the n coalesce into one
// batch.
func sameMatrixBurst(t *testing.T, seed int64, n int) [][]byte {
	t.Helper()
	base, err := lp.GenerateFeasible(lp.GenConfig{Constraints: 16, Variables: 5, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	bodies := make([][]byte, n)
	for r := range bodies {
		b := base.B.Clone()
		for i := range b {
			b[i] *= 1 + 0.05*float64(r)
		}
		p, err := lp.New(fmt.Sprintf("burst%d-req%d", seed, r), base.C, base.A, b)
		if err != nil {
			t.Fatal(err)
		}
		var text strings.Builder
		if err := p.WriteText(&text); err != nil {
			t.Fatal(err)
		}
		if bodies[r], err = json.Marshal(Request{
			Problem: text.String(),
			Engine:  "crossbar",
			Options: Options{Variation: 0.05},
		}); err != nil {
			t.Fatal(err)
		}
	}
	return bodies
}

// TestServedRequestAllocations holds a coalesced request's heap traffic to
// its size: the reader's buffer grows only as far as the request's lines,
// and the pooled handle's single-solve trace ring, which batch traffic
// never writes, is never allocated. What a request still allocates is
// mostly its share of the per-batch replica and that replica's ring.
func TestServedRequestAllocations(t *testing.T) {
	const burst, bursts = 4, 4
	s := New(Config{MaxBatch: burst, CoalesceWindow: 10 * time.Second, Parallelism: 1})
	defer s.Close()
	h := s.Handler()
	send := func(bodies [][]byte) []*httptest.ResponseRecorder {
		recs := make([]*httptest.ResponseRecorder, len(bodies))
		var wg sync.WaitGroup
		for r, body := range bodies {
			recs[r] = httptest.NewRecorder()
			req := httptest.NewRequest(http.MethodPost, "/solve", bytes.NewReader(body))
			wg.Add(1)
			go func() {
				defer wg.Done()
				h.ServeHTTP(recs[r], req)
			}()
		}
		wg.Wait()
		return recs
	}
	check := func(recs []*httptest.ResponseRecorder) {
		for r, rec := range recs {
			var resp Response
			if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil || rec.Code != http.StatusOK {
				t.Fatalf("request %d: HTTP %d, %v: %s", r, rec.Code, err, rec.Body.Bytes())
			}
			if resp.BatchSize != burst {
				t.Fatalf("request %d: batch of %d, want %d", r, resp.BatchSize, burst)
			}
		}
	}

	check(send(sameMatrixBurst(t, 100, burst)))
	in := make([][][]byte, bursts)
	for j := range in {
		in[j] = sameMatrixBurst(t, int64(j+1), burst)
	}
	out := make([][]*httptest.ResponseRecorder, bursts)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for j, bodies := range in {
		out[j] = send(bodies)
	}
	runtime.ReadMemStats(&after)
	for _, recs := range out {
		check(recs)
	}
	per := (after.TotalAlloc - before.TotalAlloc) / (bursts * burst)
	t.Logf("%d KiB per request", per>>10)
	if per >= 384<<10 {
		t.Errorf("a served request allocates %d KiB, want < 384 KiB", per>>10)
	}
}
