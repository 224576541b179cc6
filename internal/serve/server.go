package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	"github.com/memlp/memlp"
	"github.com/memlp/memlp/internal/trace"
)

// Config tunes a Server. Zero values mean the documented defaults.
type Config struct {
	// QueueLimit bounds concurrently admitted /solve requests; requests
	// arriving past the bound are rejected with 429 (admission control, so a
	// traffic spike degrades by shedding instead of queueing unboundedly).
	// Default 64.
	QueueLimit int
	// CoalesceWindow is how long the first same-matrix request waits for
	// companions before its batch launches. Default 2ms.
	CoalesceWindow time.Duration
	// MaxBatch launches a pending batch early once it has this many members.
	// Default 32.
	MaxBatch int
	// SolversPerKey bounds the solver handles pooled per (engine, options)
	// key. Default 2.
	SolversPerKey int
	// Parallelism is the fabric-pool width handed to batching crossbar
	// solvers (memlp.WithParallelism). Zero means GOMAXPROCS.
	Parallelism int
	// DisableCoalescing turns same-matrix batching off server-wide; every
	// request is solved solo (the benchmark baseline).
	DisableCoalescing bool
	// MatrixCacheLimit bounds the warm-start cache per key: the number of
	// constraint matrices whose last optimal solution seeds the next solo
	// solve. Default 256.
	MatrixCacheLimit int
	// MaxBodyBytes bounds the /solve request body. Default 8 MiB.
	MaxBodyBytes int64
}

func (c Config) withDefaults() Config {
	if c.QueueLimit <= 0 {
		c.QueueLimit = 64
	}
	if c.CoalesceWindow <= 0 {
		c.CoalesceWindow = 2 * time.Millisecond
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 32
	}
	if c.SolversPerKey <= 0 {
		c.SolversPerKey = 2
	}
	if c.MatrixCacheLimit <= 0 {
		c.MatrixCacheLimit = 256
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 8 << 20
	}
	return c
}

// Server is the memlpd request handler: per-key solver pools, same-matrix
// request coalescing, admission control, and the /metrics, /vars, /healthz
// observability endpoints. Construct with New, mount Handler on an
// http.Server, and Close on shutdown to cancel in-flight batches.
type Server struct {
	cfg     Config
	metrics *trace.Metrics
	mux     *http.ServeMux
	sem     chan struct{}
	baseCtx context.Context
	stop    context.CancelFunc

	mu      sync.Mutex
	entries map[string]*poolEntry //memlp:guardedby mu
	order   []string              //memlp:guardedby mu — insertion order, for eviction
}

// maxEntries bounds the pool entries a Server keeps. Clients choose the
// key (every distinct seed is one), and each entry holds solvers with their
// fabrics plus its warm-start cache, so past the bound the oldest entry is
// evicted, first in first out, as warmCache bounds itself. In-flight
// requests keep their entry pointer; the next request for an evicted key
// builds the entry afresh.
const maxEntries = 64

// poolEntry is the per-(engine, options)-key state: the solver pool plus, on
// the batching engine, the coalescer front of it.
type poolEntry struct {
	eng  memlp.Engine
	pool *solverPool
	co   *coalescer // nil when the key's engine cannot batch or coalescing is off
	warm *warmCache // nil when the key's engine cannot warm-start
}

// warmCache remembers the last optimal solution per constraint-matrix
// fingerprint, so repeat traffic against the same matrix (the memlpd steady
// state: b and c drift, A stays) seeds each solve from the previous optimum
// instead of a cold start. Solo solves only — coalesced batches stay
// cold-started so their results depend only on the batch contents, never on
// server history. FIFO-bounded at Config.MatrixCacheLimit matrices.
type warmCache struct {
	mu    sync.Mutex
	limit int
	order []uint64                   //memlp:guardedby mu — insertion order, for eviction
	sols  map[uint64]*memlp.Solution //memlp:guardedby mu
}

func newWarmCache(limit int) *warmCache {
	return &warmCache{limit: limit, sols: make(map[uint64]*memlp.Solution)}
}

// lookup returns the cached solution usable as a warm start for prob, or nil.
// The dimension check guards against a fingerprint collision handing a
// mismatched seed to the solver (which would fail the solve instead of
// merely starting it cold).
func (c *warmCache) lookup(fp uint64, prob *memlp.Problem) *memlp.Solution {
	c.mu.Lock()
	defer c.mu.Unlock()
	sol := c.sols[fp]
	if sol == nil || len(sol.X) != prob.NumVariables() || len(sol.DualY) != prob.NumConstraints() {
		return nil
	}
	return sol
}

// store caches sol as the matrix's future warm start; non-optimal outcomes
// are not worth seeding from and are dropped.
func (c *warmCache) store(fp uint64, sol *memlp.Solution) {
	if sol == nil || sol.Status != memlp.StatusOptimal {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.sols[fp]; !ok {
		if len(c.order) >= c.limit {
			delete(c.sols, c.order[0])
			c.order = c.order[1:]
		}
		c.order = append(c.order, fp)
	}
	c.sols[fp] = sol
}

// New builds a Server from the config.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	baseCtx, stop := context.WithCancel(context.Background())
	s := &Server{
		cfg:     cfg,
		metrics: trace.NewMetrics(),
		mux:     http.NewServeMux(),
		sem:     make(chan struct{}, cfg.QueueLimit),
		baseCtx: baseCtx,
		stop:    stop,
		entries: make(map[string]*poolEntry),
	}
	s.mux.HandleFunc("/solve", s.handleSolve)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.HandleFunc("/vars", s.handleVars)
	return s
}

// Handler returns the HTTP handler to mount.
func (s *Server) Handler() http.Handler { return s.mux }

// Close cancels the server's base context: in-flight coalesced batches see
// their merged context die once their members give up, and new batches abort
// immediately.
func (s *Server) Close() { s.stop() }

// entry returns (building if needed) the pool entry for the request's
// (engine, options) key. Creation eagerly builds the first solver so option
// validation errors surface here as a 400 instead of inside a shared batch.
func (s *Server) entry(eng memlp.Engine, o Options) (*poolEntry, error) {
	key := o.key(eng)
	s.mu.Lock()
	if ent, ok := s.entries[key]; ok {
		s.mu.Unlock()
		return ent, nil
	}
	s.mu.Unlock()

	// Build outside the lock: solver construction programs fabrics.
	build := func() (*memlp.Solver, error) {
		return memlp.NewSolver(eng, o.solverOptions(eng, s.cfg.Parallelism)...)
	}
	first, err := build()
	if err != nil {
		return nil, err
	}
	ent := &poolEntry{eng: eng, pool: newSolverPool(s.cfg.SolversPerKey, build)}
	if eng.SupportsWarmStart() {
		ent.warm = newWarmCache(s.cfg.MatrixCacheLimit)
	}
	ent.pool.mu.Lock()
	ent.pool.created = 1
	ent.pool.mu.Unlock()
	ent.pool.slots <- first
	if eng.SupportsBatch() && !s.cfg.DisableCoalescing {
		run := func(ctx context.Context, probs []*memlp.Problem) ([]*memlp.Solution, error) {
			solver, err := ent.pool.acquire(ctx)
			if err != nil {
				return nil, err
			}
			defer ent.pool.release(solver)
			return solver.SolveBatch(ctx, probs)
		}
		ent.co = newCoalescer(s.baseCtx, s.cfg.CoalesceWindow, s.cfg.MaxBatch, run, s.metrics)
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if existing, ok := s.entries[key]; ok {
		// Lost the creation race; the spare solver is garbage-collected.
		return existing, nil
	}
	if len(s.order) >= maxEntries {
		delete(s.entries, s.order[0])
		s.order = s.order[1:]
	}
	s.order = append(s.order, key)
	s.entries[key] = ent
	return ent, nil
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	io.WriteString(w, "ok\n")
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.metrics.WriteProm(w)
}

func (s *Server) handleVars(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	io.WriteString(w, s.metrics.String())
	io.WriteString(w, "\n")
}

// parseDeadline reads the X-Deadline header: either a relative
// time.ParseDuration string ("250ms") or an absolute RFC 3339 timestamp.
func parseDeadline(h string, now time.Time) (time.Time, error) {
	if d, err := time.ParseDuration(h); err == nil {
		return now.Add(d), nil
	}
	if t, err := time.Parse(time.RFC3339Nano, h); err == nil {
		return t, nil
	}
	return time.Time{}, fmt.Errorf("X-Deadline %q is neither a duration nor RFC 3339", h)
}

func (s *Server) handleSolve(w http.ResponseWriter, r *http.Request) {
	start := requestClock()
	if r.Method != http.MethodPost {
		s.fail(w, start, http.StatusMethodNotAllowed, "POST required")
		return
	}

	// Admission control: shed load instead of queueing without bound.
	select {
	case s.sem <- struct{}{}:
		defer func() { <-s.sem }()
	default:
		s.metrics.ObserveServeRejection()
		s.fail(w, start, http.StatusTooManyRequests, "admission queue full")
		return
	}

	var req Request
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)).Decode(&req); err != nil {
		s.fail(w, start, http.StatusBadRequest, "bad request body: "+err.Error())
		return
	}
	eng, err := requestEngine(req.Engine)
	if err != nil {
		s.fail(w, start, http.StatusBadRequest, err.Error())
		return
	}
	prob, err := memlp.ReadProblem(strings.NewReader(req.Problem))
	if err != nil {
		s.fail(w, start, http.StatusBadRequest, "bad problem: "+err.Error())
		return
	}

	// Request context: client disconnect cancels it; X-Deadline tightens it.
	ctx := r.Context()
	if h := r.Header.Get("X-Deadline"); h != "" {
		deadline, err := parseDeadline(h, start)
		if err != nil {
			s.fail(w, start, http.StatusBadRequest, err.Error())
			return
		}
		var cancel context.CancelFunc
		ctx, cancel = context.WithDeadline(ctx, deadline)
		defer cancel()
	}

	ent, err := s.entry(eng, req.Options)
	if err != nil {
		code := http.StatusInternalServerError
		if errors.Is(err, memlp.ErrInvalid) || errors.Is(err, memlp.ErrUnknownEngine) {
			code = http.StatusBadRequest
		}
		s.fail(w, start, code, err.Error())
		return
	}

	var (
		sol        *memlp.Solution
		solveErr   error
		batchSize  int
		batchIndex int
	)
	if wtr, ok := s.trySubmit(ctx, ent, prob, req.NoCoalesce); ok {
		select {
		case <-wtr.done:
			sol, solveErr = wtr.sol, wtr.err
			batchSize, batchIndex = wtr.size, wtr.index
		case <-ctx.Done():
			// Stop waiting; the batch runs on for the remaining members.
			solveErr = ctx.Err()
		}
	} else {
		var solver *memlp.Solver
		solver, err = ent.pool.acquire(ctx)
		if err != nil {
			s.finishSolve(w, start, req, eng, prob, nil, err, 0, 0)
			return
		}
		defer ent.pool.release(solver)
		var fp uint64
		if ent.warm != nil {
			// Pooled handles retain warm state from whichever request used
			// them last, so a cache miss must explicitly clear the handle.
			fp = prob.MatrixFingerprint()
			if prev := ent.warm.lookup(fp, prob); prev != nil && solver.SetWarmStart(prev) == nil {
				s.metrics.ObserveServeWarmStart()
			} else {
				solver.SetWarmStart(nil)
			}
		}
		sol, solveErr = solver.Solve(ctx, prob)
		if ent.warm != nil && solveErr == nil {
			ent.warm.store(fp, sol)
		}
	}
	s.finishSolve(w, start, req, eng, prob, sol, solveErr, batchSize, batchIndex)
}

// trySubmit seats the request in its key's coalescer when it is eligible:
// the batching engine, coalescing on, a pure LP, and not opted out.
func (s *Server) trySubmit(ctx context.Context, ent *poolEntry, prob *memlp.Problem, noCoalesce bool) (*waiter, bool) {
	if ent.co == nil || noCoalesce || prob.IsConic() {
		return nil, false
	}
	return ent.co.submit(ctx, prob)
}

// finishSolve classifies the solve outcome and writes the response. Solve
// outcomes — including canceled partials — are 200 with the status in the
// body; only invalid submissions (400) and internal failures (500) use error
// codes.
func (s *Server) finishSolve(w http.ResponseWriter, start time.Time, req Request, eng memlp.Engine, prob *memlp.Problem, sol *memlp.Solution, solveErr error, batchSize, batchIndex int) {
	if sol == nil {
		switch {
		case solveErr == nil:
			s.fail(w, start, http.StatusInternalServerError, "no result")
		case errors.Is(solveErr, context.Canceled) || errors.Is(solveErr, context.DeadlineExceeded):
			// Canceled before the engine produced even a partial iterate.
			resp := Response{
				Name:   prob.Name(),
				Engine: eng.String(),
				Status: memlp.StatusCanceled.String(),
				Error:  solveErr.Error(),
			}
			s.respond(w, start, http.StatusOK, resp)
		case errors.Is(solveErr, memlp.ErrInvalid):
			s.fail(w, start, http.StatusBadRequest, solveErr.Error())
		default:
			s.fail(w, start, http.StatusInternalServerError, solveErr.Error())
		}
		return
	}

	s.observeSolution(sol)
	resp := Response{
		Name:                prob.Name(),
		Engine:              eng.String(),
		Status:              sol.Status.String(),
		Objective:           jsonFloat(sol.Objective),
		X:                   toJSONFloats(sol.X),
		DualY:               toJSONFloats(sol.DualY),
		Iterations:          sol.Iterations,
		Pivots:              sol.Pivots,
		WallNS:              sol.WallTime.Nanoseconds(),
		DualityGap:          jsonFloat(sol.DualityGap),
		PrimalInfeasibility: jsonFloat(sol.PrimalInfeasibility),
		DualInfeasibility:   jsonFloat(sol.DualInfeasibility),
		ConeInfeasibility:   jsonFloat(sol.ConeInfeasibility),
		Coalesced:           batchSize > 1,
		BatchSize:           batchSize,
		BatchIndex:          batchIndex,
	}
	if solveErr != nil {
		resp.Error = solveErr.Error()
	}
	if hw := sol.Hardware; hw != nil {
		resp.Hardware = &HardwareInfo{
			LatencyNS:    hw.Latency.Nanoseconds(),
			EnergyJoules: jsonFloat(hw.EnergyJoules),
			CellWrites:   hw.CellWrites,
			AnalogOps:    hw.AnalogOps,
			Conversions:  hw.Conversions,
			DigitalMACs:  hw.DigitalMACs,
		}
	}
	if req.Options.Trace {
		if recs := sol.Trace(); len(recs) > 0 {
			var b strings.Builder
			if err := memlp.WriteTraceJSONL(&b, recs); err == nil {
				resp.TraceJSONL = b.String()
			}
		}
	}
	s.respond(w, start, http.StatusOK, resp)
}

// observeSolution folds a solve into the aggregate the way the public
// memlp.Metrics.Observe does: every trace record, plus batch shard stats
// when this solution carries the roll-up.
func (s *Server) observeSolution(sol *memlp.Solution) {
	for _, r := range sol.Trace() {
		s.metrics.Emit(r)
	}
	if b := sol.Batch; b != nil {
		s.metrics.ObserveBatch(b.ShardSolves, b.ShardBusy)
	}
}

func (s *Server) respond(w http.ResponseWriter, start time.Time, code int, resp Response) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(resp)
	s.metrics.ObserveServeRequest(code, requestLatency(start))
}

// fail writes a JSON error body and records the request.
func (s *Server) fail(w http.ResponseWriter, start time.Time, code int, msg string) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(struct {
		Error string `json:"error"`
	}{msg})
	s.metrics.ObserveServeRequest(code, requestLatency(start))
}
