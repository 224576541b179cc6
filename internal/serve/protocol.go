// Package serve implements the memlpd solver service: an HTTP front end over
// the public memlp API that pools reusable Solver handles per (engine,
// options) key and coalesces concurrent same-matrix submissions into shared
// SolveBatch calls, so replica programming cost is paid once per matrix
// rather than once per request. cmd/memlpd is a thin main over this package.
package serve

import (
	"sort"
	"strconv"
	"strings"

	"github.com/memlp/memlp"
	"github.com/memlp/memlp/internal/trace"
)

// Request is the JSON body of a POST /solve submission. The problem itself
// travels in the textual format understood by memlp.ReadProblem (the same
// format cmd/lpsolve reads), including `cone` directives for SOCP
// submissions, so any problem the CLI can solve can be submitted unchanged.
type Request struct {
	// Problem is the text-io serialization of the LP/SOCP to solve.
	Problem string `json:"problem"`
	// Engine names the backend: "crossbar" (default), "crossbar-large-scale",
	// "pdip", "pdip-reduced", "simplex", "conic", or "pdhg".
	Engine string `json:"engine,omitempty"`
	// Options carries the engine knobs; zero values mean "engine default".
	Options Options `json:"options,omitempty"`
	// NoCoalesce opts this request out of same-matrix batching; it is solved
	// alone even if identical-matrix requests are in flight.
	NoCoalesce bool `json:"no_coalesce,omitempty"`
}

// Options is the wire form of the memlp.Option set a request may configure.
// Only deterministic solver-construction knobs appear here: anything that
// changes solver identity is part of the pool key, so two requests receive
// the same Solver handle exactly when their normalized Options (plus engine)
// are equal.
type Options struct {
	Variation     float64 `json:"variation,omitempty"`
	CycleNoise    float64 `json:"cycle_noise,omitempty"`
	Seed          int64   `json:"seed,omitempty"`
	IOBits        int     `json:"io_bits,omitempty"`
	WriteBits     int     `json:"write_bits,omitempty"`
	Alpha         float64 `json:"alpha,omitempty"`
	MaxIterations int     `json:"max_iterations,omitempty"`
	ConstantStep  float64 `json:"constant_step,omitempty"`
	// Tiles is the PDHG worker-grid side (results are bit-identical for
	// every value; it still joins the pool key because it is a
	// solver-construction knob).
	Tiles int `json:"tiles,omitempty"`
	// Trace asks for the iteration trajectory in Response.TraceJSONL. Solvers
	// always record traces (the service needs them for /metrics), so Trace
	// does not participate in the pool key.
	Trace bool `json:"trace,omitempty"`
}

// normalize folds "unset" spellings onto the solver defaults so the pool key
// is canonical: a request that says nothing and a request that spells out the
// defaults share a solver.
func (o Options) normalize() Options {
	if o.Seed == 0 {
		o.Seed = 1 // defaultOptions() seed
	}
	o.Trace = false // response-shaping only; never part of solver identity
	return o
}

// key returns the canonical (engine, options) pool key.
func (o Options) key(eng memlp.Engine) string {
	n := o.normalize()
	parts := []string{
		"engine=" + eng.String(),
		"seed=" + strconv.FormatInt(n.Seed, 10),
	}
	if n.Variation != 0 {
		parts = append(parts, "variation="+formatFloat(n.Variation))
	}
	if n.CycleNoise != 0 {
		parts = append(parts, "cycle_noise="+formatFloat(n.CycleNoise))
	}
	if n.IOBits != 0 {
		parts = append(parts, "io_bits="+strconv.Itoa(n.IOBits))
	}
	if n.WriteBits != 0 {
		parts = append(parts, "write_bits="+strconv.Itoa(n.WriteBits))
	}
	if n.Alpha != 0 {
		parts = append(parts, "alpha="+formatFloat(n.Alpha))
	}
	if n.MaxIterations != 0 {
		parts = append(parts, "max_iterations="+strconv.Itoa(n.MaxIterations))
	}
	if n.ConstantStep != 0 {
		parts = append(parts, "constant_step="+formatFloat(n.ConstantStep))
	}
	if n.Tiles != 0 {
		parts = append(parts, "tiles="+strconv.Itoa(n.Tiles))
	}
	sort.Strings(parts[1:]) // engine first, knobs in stable order
	return strings.Join(parts, ",")
}

func formatFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// solverOptions translates the wire options into the memlp.Option list used
// to build the pooled solver. parallelism is the server-wide fabric-pool
// width and applies only to the batching engine. Knobs the caller set but
// that do not configure the engine (e.g. seed with a software engine) are
// passed through so NewSolver rejects them with ErrIncompatibleOption rather
// than being dropped silently.
func (o Options) solverOptions(eng memlp.Engine, parallelism int) []memlp.Option {
	n := o.normalize()
	opts := []memlp.Option{memlp.WithTrace(0)}
	if eng.Analog() {
		opts = append(opts, memlp.WithSeed(n.Seed))
	} else if o.Seed != 0 {
		opts = append(opts, memlp.WithSeed(o.Seed))
	}
	if n.Variation != 0 {
		opts = append(opts, memlp.WithVariation(n.Variation))
	}
	if n.CycleNoise != 0 {
		opts = append(opts, memlp.WithCycleNoise(n.CycleNoise))
	}
	if n.IOBits != 0 {
		opts = append(opts, memlp.WithIOBits(n.IOBits))
	}
	if n.WriteBits != 0 {
		opts = append(opts, memlp.WithWriteBits(n.WriteBits))
	}
	if n.Alpha != 0 {
		opts = append(opts, memlp.WithAlpha(n.Alpha))
	}
	if n.MaxIterations != 0 {
		opts = append(opts, memlp.WithMaxIterations(n.MaxIterations))
	}
	if n.ConstantStep != 0 {
		opts = append(opts, memlp.WithConstantStep(n.ConstantStep))
	}
	if n.Tiles != 0 {
		opts = append(opts, memlp.WithTiles(n.Tiles))
	}
	if eng.SupportsBatch() && parallelism > 0 {
		opts = append(opts, memlp.WithParallelism(parallelism))
	}
	return opts
}

// requestEngine maps a request's engine field onto an engine: the
// memlp.ParseEngine names, plus "" for the default crossbar engine and the
// "large-scale" short name.
func requestEngine(name string) (memlp.Engine, error) {
	switch name {
	case "":
		return memlp.EngineCrossbar, nil
	case "large-scale":
		return memlp.EngineCrossbarLargeScale, nil
	}
	return memlp.ParseEngine(name)
}

// jsonFloat marshals float64 the way the trace JSONL stream does: finite
// values as shortest round-trip decimals, and the non-finite values that
// encoding/json rejects (NaN, ±Inf — e.g. sentinel residual fills on failed
// analog attempts) as quoted strings that strconv.ParseFloat accepts back.
type jsonFloat = trace.JSONFloat

func toJSONFloats(v []float64) []jsonFloat {
	if v == nil {
		return nil
	}
	out := make([]jsonFloat, len(v))
	for i, x := range v {
		out[i] = jsonFloat(x)
	}
	return out
}

// HardwareInfo is the wire form of memlp.HardwareEstimate.
type HardwareInfo struct {
	LatencyNS    int64     `json:"latency_ns"`
	EnergyJoules jsonFloat `json:"energy_joules"`
	CellWrites   int64     `json:"cell_writes"`
	AnalogOps    int64     `json:"analog_ops"`
	Conversions  int64     `json:"conversions"`
	DigitalMACs  int64     `json:"digital_macs"`
}

// Response is the JSON body of a /solve reply. Solve outcomes — including
// "canceled", "infeasible" and "iteration-limit" — are HTTP 200 with the
// outcome in Status; non-2xx codes mean the request never reached a solver.
type Response struct {
	// Name echoes the submitted problem's name directive.
	Name string `json:"name,omitempty"`
	// Engine is the resolved engine name.
	Engine string `json:"engine"`
	// Status is the memlp.Status string ("optimal", "canceled", …).
	Status string `json:"status"`

	Objective  jsonFloat   `json:"objective"`
	X          []jsonFloat `json:"x,omitempty"`
	DualY      []jsonFloat `json:"dual_y,omitempty"`
	Iterations int         `json:"iterations,omitempty"`
	Pivots     int         `json:"pivots,omitempty"`
	// WallNS is the measured software solve duration in nanoseconds.
	WallNS int64 `json:"wall_ns"`

	DualityGap          jsonFloat `json:"duality_gap"`
	PrimalInfeasibility jsonFloat `json:"primal_infeasibility"`
	DualInfeasibility   jsonFloat `json:"dual_infeasibility"`
	ConeInfeasibility   jsonFloat `json:"cone_infeasibility,omitempty"`

	// Hardware is the modelled crossbar cost (absent for software engines).
	Hardware *HardwareInfo `json:"hardware,omitempty"`

	// Coalesced reports that this request was folded into a shared-matrix
	// batch of BatchSize requests and solved at canonical position BatchIndex.
	Coalesced  bool `json:"coalesced,omitempty"`
	BatchSize  int  `json:"batch_size,omitempty"`
	BatchIndex int  `json:"batch_index,omitempty"`

	// TraceJSONL holds the iteration trajectory, one trace record per line,
	// when the request set options.trace. memlp.ReadTraceJSONL parses it.
	TraceJSONL string `json:"trace_jsonl,omitempty"`

	// Error carries the solve error string accompanying a partial result
	// (e.g. the context error behind a "canceled" status).
	Error string `json:"error,omitempty"`
}
