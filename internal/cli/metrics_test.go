package cli

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"
)

// TestMetricsServerServesUntilCanceled runs the server on an ephemeral
// port, reads /metrics and /vars through the address it prints, and checks
// that canceling the context ends it with exit code 0.
func TestMetricsServerServesUntilCanceled(t *testing.T) {
	srv := MetricsServer{
		Tool:   "tool",
		Banner: "metrics:",
		Prom: func(w io.Writer) error {
			_, err := fmt.Fprintln(w, "memlp_solves_total 3")
			return err
		},
		Vars: func() string { return `{"solves":3}` },
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	out, outW := io.Pipe()
	var stderr strings.Builder
	code := make(chan int, 1)
	go func() {
		code <- srv.Serve(ctx, "127.0.0.1:0", outW, &stderr)
		outW.Close()
	}()

	line, err := bufio.NewReader(out).ReadString('\n')
	if err != nil {
		t.Fatalf("reading the banner: %v", err)
	}
	const prefix, suffix = "metrics: serving on http://", "/metrics (interrupt to exit)\n"
	if !strings.HasPrefix(line, prefix) || !strings.HasSuffix(line, suffix) {
		t.Fatalf("banner = %q, want %q…%q", line, prefix, suffix)
	}
	base := "http://" + strings.TrimSuffix(strings.TrimPrefix(line, prefix), suffix)
	for path, want := range map[string]string{
		"/metrics": "memlp_solves_total 3\n",
		"/vars":    `{"solves":3}` + "\n",
	} {
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		if resp.StatusCode != http.StatusOK || string(body) != want {
			t.Errorf("GET %s = %d %q, want 200 %q", path, resp.StatusCode, body, want)
		}
	}

	cancel()
	select {
	case c := <-code:
		if c != 0 {
			t.Errorf("Serve returned %d after cancel, want 0 (stderr %q)", c, stderr.String())
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Serve did not return after its context was canceled")
	}
}

// TestMetricsServerWithoutVars checks that /vars is served only when Vars
// is set, and that an address that cannot be listened on exits 1 with the
// tool's name on stderr.
func TestMetricsServerWithoutVars(t *testing.T) {
	srv := MetricsServer{Tool: "tool", Banner: "metrics:", Prom: func(io.Writer) error { return nil }}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	out, outW := io.Pipe()
	code := make(chan int, 1)
	go func() {
		code <- srv.Serve(ctx, "127.0.0.1:0", outW, io.Discard)
		outW.Close()
	}()
	line, err := bufio.NewReader(out).ReadString('\n')
	if err != nil {
		t.Fatalf("reading the banner: %v", err)
	}
	addr := strings.Fields(line)[3] // http://ADDR/metrics
	resp, err := http.Get(strings.TrimSuffix(addr, "/metrics") + "/vars")
	if err != nil {
		t.Fatalf("GET /vars: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("GET /vars without Vars = %d, want 404", resp.StatusCode)
	}
	cancel()
	if c := <-code; c != 0 {
		t.Errorf("Serve returned %d after cancel, want 0", c)
	}

	var stderr strings.Builder
	if c := srv.Serve(context.Background(), "127.0.0.1:-1", io.Discard, &stderr); c != 1 {
		t.Errorf("Serve on a bad address returned %d, want 1", c)
	}
	if !strings.HasPrefix(stderr.String(), "tool: ") {
		t.Errorf("stderr = %q, want the tool's name first", stderr.String())
	}
}
