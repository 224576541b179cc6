package serve

// Fuzz target for the /solve wire surface: arbitrary bytes are POSTed as the
// request body to a default Server. Whatever the body, the handler must not
// panic, must not answer 5xx, and must always answer with a body that decodes
// as a Response. An X-Deadline header bounds each input's solve.
//
// Run locally with: go test -fuzz=FuzzServeRequest -fuzztime=30s ./internal/serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"github.com/memlp/memlp"
)

func FuzzServeRequest(f *testing.F) {
	body := func(req Request) []byte {
		b, err := json.Marshal(req)
		if err != nil {
			f.Fatalf("marshal seed: %v", err)
		}
		return b
	}
	socp, err := memlp.GenerateFeasibleSOCP(9, 0, 1, 3, 5)
	if err != nil {
		f.Fatalf("GenerateFeasibleSOCP: %v", err)
	}
	var socpText bytes.Buffer
	if err := socp.WriteText(&socpText); err != nil {
		f.Fatalf("WriteText: %v", err)
	}
	valid := body(Request{Problem: dietText(0), Engine: "crossbar"})
	f.Add(valid)
	f.Add(body(Request{Problem: dietText(1), Engine: "pdhg", Options: Options{MaxIterations: 50}}))
	f.Add(valid[:len(valid)/2])
	f.Add(body(Request{Problem: dietText(2), Engine: "quantum"}))
	f.Add(body(Request{Problem: dietText(3), Engine: "crossbar", Options: Options{Variation: 7}}))
	f.Add(body(Request{Problem: socpText.String(), Engine: "crossbar"}))

	s := New(Config{})
	f.Cleanup(s.Close)
	h := s.Handler()
	f.Fuzz(func(t *testing.T, b []byte) {
		req := httptest.NewRequest(http.MethodPost, "/solve", bytes.NewReader(b))
		req.Header.Set("X-Deadline", "300ms")
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code >= 500 {
			t.Fatalf("HTTP %d for body %q: %s", rec.Code, b, rec.Body.Bytes())
		}
		var resp Response
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatalf("HTTP %d body %q does not decode as a Response: %v", rec.Code, rec.Body.Bytes(), err)
		}
	})
}
