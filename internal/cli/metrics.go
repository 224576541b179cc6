// Package cli holds what the command-line tools share: the metrics server
// behind their -metrics-addr flag.
package cli

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
)

// MetricsServer names what a tool serves on its -metrics-addr.
type MetricsServer struct {
	// Tool prefixes the tool's error lines; Banner starts the line that
	// names the address served.
	Tool, Banner string
	// Prom writes the Prometheus text exposition served on /metrics.
	Prom func(io.Writer) error
	// Vars, when non-nil, returns the JSON summary served on /vars.
	Vars func() string
}

// Serve serves the metrics on addr until ctx is canceled. It prints the
// address it listens on to stdout, reports a failure to listen or serve on
// stderr, and returns the tool's exit code: 0 after ctx ends the server, 1
// on a failure.
func (m MetricsServer) Serve(ctx context.Context, addr string, stdout, stderr io.Writer) int {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		_ = m.Prom(w)
	})
	if m.Vars != nil {
		mux.HandleFunc("/vars", func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			fmt.Fprintln(w, m.Vars())
		})
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		fmt.Fprintf(stderr, "%s: %v\n", m.Tool, err)
		return 1
	}
	fmt.Fprintf(stdout, "%s serving on http://%s/metrics (interrupt to exit)\n", m.Banner, ln.Addr())
	srv := &http.Server{Handler: mux}
	stop := context.AfterFunc(ctx, func() { _ = srv.Shutdown(context.Background()) })
	defer stop()
	if err := srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintf(stderr, "%s: %v\n", m.Tool, err)
		return 1
	}
	return 0
}
