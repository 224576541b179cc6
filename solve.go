package memlp

import (
	"context"
	"fmt"
	"io"
	"math"
	"sort"
	"sync"

	"github.com/memlp/memlp/internal/core"
	"github.com/memlp/memlp/internal/crossbar"
	"github.com/memlp/memlp/internal/engine"
	"github.com/memlp/memlp/internal/linalg"
	"github.com/memlp/memlp/internal/lp"
	"github.com/memlp/memlp/internal/memristor"
	"github.com/memlp/memlp/internal/noc"
	"github.com/memlp/memlp/internal/pdhg"
	"github.com/memlp/memlp/internal/pdip"
	"github.com/memlp/memlp/internal/perf"
	"github.com/memlp/memlp/internal/simplex"
	"github.com/memlp/memlp/internal/trace"
	"github.com/memlp/memlp/internal/variation"
)

// Engine selects the solver implementation.
type Engine int

// Available engines.
const (
	// EngineCrossbar is the paper's Algorithm 1: the full reformulated PDIP
	// Newton system on one (possibly NoC-tiled) analog fabric.
	EngineCrossbar Engine = iota + 1
	// EngineCrossbarLargeScale is the paper's Algorithm 2: two smaller
	// systems per iteration for crossbar-size-limited deployments.
	EngineCrossbarLargeScale
	// EnginePDIP is the software primal–dual interior-point baseline
	// (dense-LU Newton solves — the O(N³)-per-iteration reference).
	EnginePDIP
	// EnginePDIPReduced is the software PDIP with the (n+m) reduced KKT
	// backend — the "efficient library" baseline (linprog-class).
	EnginePDIPReduced
	// EngineSimplex is the two-phase simplex baseline.
	EngineSimplex
	// EngineConic is Algorithm 1 extended to LP + second-order-cone problems:
	// the SOC constraint rows carry dense Nesterov–Todd scaling blocks on the
	// same extended-matrix fabric mapping (Eq. 14a). Pure LPs are accepted and
	// take the bit-identical LP iteration path.
	EngineConic
	// EnginePDHG is the distributed first-order engine: restarted primal–dual
	// hybrid gradient with both per-iteration mat-vecs tiled across a grid of
	// crossbars connected by the analog NoC. No linear-system solve means no
	// single array ever has to hold the whole extended matrix, so problems
	// past the single-fabric ceiling still solve — at first-order (ADC-floor)
	// accuracy rather than interior-point accuracy.
	EnginePDHG
)

// capability is one bit of an engine table row. Every public option names
// the capability it configures, so an option applies to an engine exactly
// when the engine's row carries that bit.
type capability uint16

const (
	// capAnalog: simulated crossbar hardware. Solutions carry a hardware
	// estimate, and the device options apply (WithVariation, WithCycleNoise,
	// WithSeed, WithIOBits, WithWriteBits, WithDeltaWriteBits,
	// WithGlobalIORange, WithNoC, WithWireResistance, WithFaultModel,
	// WithWriteVerify).
	capAnalog capability = 1 << iota
	// capAlpha: the §3.2 relaxed-feasibility check (WithAlpha), an
	// interior-point construction; PDHG solves the unrelaxed LP directly.
	capAlpha
	// capIterations: an iteration budget (WithMaxIterations); simplex
	// counts pivots instead.
	capIterations
	// capAlg2: Algorithm 2's knobs (WithConstantStep, WithLiteralFillers).
	capAlg2
	// capTiles: the PDHG worker grid (WithTiles). The Newton engines
	// parallelize across batch members, not tiles.
	capTiles
	// capBatch: SolveBatch on the shared-matrix fabric pool, and its width
	// (WithParallelism). Algorithm 2 and the software engines solve
	// strictly one problem at a time.
	capBatch
	// capWarmStart: an interior iterate seeded from a prior solution
	// (WithWarmStart, Solver.SetWarmStart). Simplex walks vertices and
	// Algorithm 2's constant-step scheme keeps no reusable interior state.
	capWarmStart
	// capConic: problems with second-order-cone blocks.
	capConic
	// capTrace: iteration traces (WithTrace, WithTraceJSONL); every engine
	// records them.
	capTrace
)

// engineSpec is one row of the engine table.
type engineSpec struct {
	name  string // String, ParseEngine, trace records, lpsolve and memlpd
	caps  capability
	build func(s *Solver, o options) (engineSolver, error)
}

// has reports whether the engine supports c (for an option's capability:
// whether the option applies).
func (spec engineSpec) has(c capability) bool { return spec.caps&c != 0 }

// engines is the engine table, indexed by Engine. EngineCrossbar and
// EngineConic are two rows over the same Algorithm 1 solver: the crossbar
// row keeps conic problems out (so its golden traces stay cone-free) and
// the conic row keeps out batching, whose shared-matrix pool is LP-only.
var engines = [...]engineSpec{
	EngineCrossbar:           {"crossbar", capAnalog | capAlpha | capIterations | capBatch | capWarmStart | capTrace, buildCore},
	EngineCrossbarLargeScale: {"crossbar-large-scale", capAnalog | capAlpha | capIterations | capAlg2 | capTrace, buildLargeScale},
	EnginePDIP:               {"pdip", capIterations | capWarmStart | capConic | capTrace, buildPDIP(pdip.NewtonFull)},
	EnginePDIPReduced:        {"pdip-reduced", capIterations | capWarmStart | capConic | capTrace, buildPDIP(pdip.NewtonReduced)},
	EngineSimplex:            {"simplex", capTrace, buildSimplex},
	EngineConic:              {"conic", capAnalog | capAlpha | capIterations | capWarmStart | capConic | capTrace, buildCore},
	EnginePDHG:               {"pdhg", capAnalog | capIterations | capTiles | capTrace, buildPDHG},
}

// spec returns e's table row; ok is false for an unknown engine.
func (e Engine) spec() (spec engineSpec, ok bool) {
	if e < 1 || int(e) >= len(engines) {
		return engineSpec{}, false
	}
	return engines[e], true
}

// String implements fmt.Stringer: the engine's name, as ParseEngine reads
// it.
func (e Engine) String() string {
	if spec, ok := e.spec(); ok {
		return spec.name
	}
	return fmt.Sprintf("Engine(%d)", int(e))
}

// Analog reports whether e simulates crossbar hardware: its Solutions carry
// a Hardware estimate, and the device options (WithVariation, WithSeed,
// WithNoC, …) apply to it.
func (e Engine) Analog() bool { spec, _ := e.spec(); return spec.has(capAnalog) }

// SupportsBatch reports whether Solver.SolveBatch, and so WithParallelism,
// works on e.
func (e Engine) SupportsBatch() bool { spec, _ := e.spec(); return spec.has(capBatch) }

// SupportsWarmStart reports whether e takes WithWarmStart and
// Solver.SetWarmStart.
func (e Engine) SupportsWarmStart() bool { spec, _ := e.spec(); return spec.has(capWarmStart) }

// ParseEngine returns the engine whose String is name. Unknown names fail
// with ErrUnknownEngine.
func ParseEngine(name string) (Engine, error) {
	for i, spec := range engines[1:] {
		if spec.name == name {
			return Engine(i + 1), nil
		}
	}
	return 0, fmt.Errorf("%w %q", ErrUnknownEngine, name)
}

// options collects the cross-engine configuration. set records which options
// the caller supplied, by exported name, with the capability each one
// configures, so NewSolver can reject settings that do not apply to the
// selected engine.
type options struct {
	variationPct   float64
	cycleNoise     float64
	seed           int64
	ioBits         int
	writeBits      int
	deltaBits      int
	globalIORange  bool
	alpha          float64
	maxIterations  int
	constantStep   float64
	wireResistance float64
	useNoC         bool
	nocTopology    noc.Topology
	nocTileSize    int
	literal        bool
	parallelism    int
	tiles          int
	faults         *FaultModel
	writeRetries   int
	writeVerifyTol float64
	traced         bool
	traceCap       int
	traceJSONL     io.Writer
	warmX, warmY   []float64

	set map[string]capability
}

func defaultOptions() options {
	return options{seed: 1, set: map[string]capability{}}
}

// validateFor rejects options that do not configure the selected engine
// (see capability), naming the first in alphabetical order. Errors match
// both ErrIncompatibleOption and ErrInvalid.
func (o *options) validateFor(e Engine) error {
	spec, ok := e.spec()
	if !ok {
		return fmt.Errorf("%w: %d", ErrUnknownEngine, int(e))
	}
	names := make([]string, 0, len(o.set))
	for name := range o.set {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if !spec.has(o.set[name]) {
			return fmt.Errorf("%s does not apply to engine %s: %w", name, e, ErrIncompatibleOption)
		}
	}
	return nil
}

// Option configures a Solver (or a one-shot Solve/SolveBatch call).
type Option func(*options) error

// WithVariation sets the process-variation magnitude (e.g. 0.10 for "up to
// 10%", the paper's Eq. 18 model) for crossbar engines.
func WithVariation(pct float64) Option {
	return func(o *options) error {
		if !(pct >= 0 && pct < 1) {
			return fmt.Errorf("%w: variation %v", ErrInvalid, pct)
		}
		o.variationPct = pct
		o.set["WithVariation"] = capAnalog
		return nil
	}
}

// WithCycleNoise adds per-write cycle-to-cycle noise as a fraction of the
// static variation magnitude.
func WithCycleNoise(frac float64) Option {
	return func(o *options) error {
		if !(frac >= 0 && frac <= 1) {
			return fmt.Errorf("%w: cycle noise %v", ErrInvalid, frac)
		}
		o.cycleNoise = frac
		o.set["WithCycleNoise"] = capAnalog
		return nil
	}
}

// WithSeed fixes the random seed for variation draws, making crossbar solves
// reproducible.
func WithSeed(seed int64) Option {
	return func(o *options) error {
		o.seed = seed
		o.set["WithSeed"] = capAnalog
		return nil
	}
}

// WithIOBits sets the DAC/ADC precision (the paper uses 8).
func WithIOBits(bits int) Option {
	return func(o *options) error {
		if bits < 1 || bits > 24 {
			return fmt.Errorf("%w: io bits %d", ErrInvalid, bits)
		}
		o.ioBits = bits
		o.set["WithIOBits"] = capAnalog
		return nil
	}
}

// WithWriteBits sets the conductance write precision.
func WithWriteBits(bits int) Option {
	return func(o *options) error {
		if bits < 1 || bits > 24 {
			return fmt.Errorf("%w: write bits %d", ErrInvalid, bits)
		}
		o.writeBits = bits
		o.set["WithWriteBits"] = capAnalog
		return nil
	}
}

// WithDeltaWriteBits sets the delta-programming level grid for per-iteration
// refreshes on the crossbar engines: a refresh whose target falls in the same
// 2^bits-level conductance bin as the cell's current epoch-compatible state is
// skipped entirely, cutting the O(N) write traffic that dominates iteration
// cost. 0 disables delta-programming; the default is 8 bits, matching the
// §4.1 I/O precision. Regardless of this setting, solves of problems with
// second-order-cone rows run with delta-programming off: the dense
// Nesterov–Todd scaling blocks are too tightly coupled for per-cell stale
// errors. Pure LPs solve bit-identically on every crossbar engine.
func WithDeltaWriteBits(bits int) Option {
	return func(o *options) error {
		if bits != 0 && (bits < 2 || bits > 24) {
			return fmt.Errorf("%w: delta write bits %d", ErrInvalid, bits)
		}
		o.deltaBits = bits
		o.set["WithDeltaWriteBits"] = capAnalog
		return nil
	}
}

// WithGlobalIORange selects a single shared DAC/ADC full-scale range per
// vector instead of the default per-line programmable-gain converters.
func WithGlobalIORange() Option {
	return func(o *options) error {
		o.globalIORange = true
		o.set["WithGlobalIORange"] = capAnalog
		return nil
	}
}

// WithAlpha sets the relaxed feasibility parameter α of §3.2 (finite, ≥ 1).
// Under variation v a solution legitimately violates the true constraints by
// up to ≈v, so α ≈ 1 + 2v is a sensible setting; the default scales
// automatically.
func WithAlpha(alpha float64) Option {
	return func(o *options) error {
		if !(alpha >= 1 && alpha <= math.MaxFloat64) {
			return fmt.Errorf("%w: alpha %v", ErrInvalid, alpha)
		}
		o.alpha = alpha
		o.set["WithAlpha"] = capAlpha
		return nil
	}
}

// WithMaxIterations bounds the PDIP iteration count.
func WithMaxIterations(n int) Option {
	return func(o *options) error {
		if n < 1 {
			return fmt.Errorf("%w: max iterations %d", ErrInvalid, n)
		}
		o.maxIterations = n
		o.set["WithMaxIterations"] = capIterations
		return nil
	}
}

// WithConstantStep sets Algorithm 2's constant step length θ ∈ (0, 1).
func WithConstantStep(theta float64) Option {
	return func(o *options) error {
		if !(theta > 0 && theta < 1) {
			return fmt.Errorf("%w: constant step %v", ErrInvalid, theta)
		}
		o.constantStep = theta
		o.set["WithConstantStep"] = capAlg2
		return nil
	}
}

// WithNoC runs the crossbar engines on a tiled multi-crossbar fabric
// coordinated by the given analog NoC topology ("hierarchical" per Fig. 3a
// or "mesh" per Fig. 3b) with the given tile size.
func WithNoC(topology string, tileSize int) Option {
	return func(o *options) error {
		switch topology {
		case "hierarchical":
			o.nocTopology = noc.Hierarchical
		case "mesh":
			o.nocTopology = noc.Mesh
		default:
			return fmt.Errorf("%w: NoC topology %q", ErrInvalid, topology)
		}
		if tileSize < 1 {
			return fmt.Errorf("%w: tile size %d", ErrInvalid, tileSize)
		}
		o.useNoC = true
		o.nocTileSize = tileSize
		o.set["WithNoC"] = capAnalog
		return nil
	}
}

// WithWireResistance enables the first-order IR-drop model: rw ohms (finite,
// ≥ 0) of metal line resistance per crossbar segment attenuate each cell's
// effective conductance along its current path.
func WithWireResistance(rw float64) Option {
	return func(o *options) error {
		if !(rw >= 0 && rw <= math.MaxFloat64) {
			return fmt.Errorf("%w: wire resistance %v", ErrInvalid, rw)
		}
		o.wireResistance = rw
		o.set["WithWireResistance"] = capAnalog
		return nil
	}
}

// WithLiteralFillers selects the paper-literal εI reading of Algorithm 2's
// Eq. 16c (see the design notes; unstable for m ≠ n — ablation use only).
func WithLiteralFillers() Option {
	return func(o *options) error {
		o.literal = true
		o.set["WithLiteralFillers"] = capAlg2
		return nil
	}
}

// WithParallelism sets the fabric-pool width for SolveBatch on EngineCrossbar:
// the batch is load-balanced across n identically-programmed fabric replicas,
// the way a multi-die deployment replicates one array and fans instances out
// across the copies. Zero (the default) uses GOMAXPROCS; the width is always
// clamped to the batch size. Results are bit-identical for every width —
// each problem's stochastic noise draws are derived from (seed, problem
// index), never from the shard that happens to run it.
func WithParallelism(n int) Option {
	return func(o *options) error {
		if n < 0 {
			return fmt.Errorf("%w: parallelism %d", ErrInvalid, n)
		}
		o.parallelism = n
		o.set["WithParallelism"] = capBatch
		return nil
	}
}

// WithTiles sets the worker-grid side g for EnginePDHG: g² goroutines sweep
// the canonical crossbar tiles each half-iteration. The grid is pure
// execution parallelism — the matrix tiling, every stochastic draw, and all
// NoC accounting are fixed by the tile size alone, so solutions and traces
// are bit-identical for every g (the PDHG determinism contract; see
// DESIGN.md D18).
func WithTiles(g int) Option {
	return func(o *options) error {
		if g < 1 {
			return fmt.Errorf("%w: tiles grid %d", ErrInvalid, g)
		}
		o.tiles = g
		o.set["WithTiles"] = capTiles
		return nil
	}
}

// WithWarmStart seeds the solver's interior iterate from a previously
// computed solution of a nearby problem (same dimensions, similar data) —
// the repeated-solve scenario where only b or c drift between calls. The
// primal point and duals are taken from prev; the slacks are re-derived from
// each new problem's data and clamped to the strict interior, so even a
// boundary-accurate previous optimum yields a usable seed, typically cutting
// the iteration count well below a cold start. The warm start persists for
// every solve on the handle until replaced or cleared via
// Solver.SetWarmStart; prev's dimensions must match each solved problem or
// that solve fails with ErrInvalid.
//
// Only the PDIP-family engines (EngineCrossbar, EngineConic, EnginePDIP,
// EnginePDIPReduced) accept warm starts; simplex and the large-scale
// constant-step engine reject the option with ErrIncompatibleOption.
func WithWarmStart(prev *Solution) Option {
	return func(o *options) error {
		if prev == nil || len(prev.X) == 0 || len(prev.DualY) == 0 {
			return fmt.Errorf("%w: warm start needs a solution with X and DualY", ErrInvalid)
		}
		o.warmX, o.warmY = prev.X, prev.DualY
		o.set["WithWarmStart"] = capWarmStart
		return nil
	}
}

// WithFaultModel injects permanent device defects (stuck-at-ON/OFF cells,
// extra write noise, retention drift) into the crossbar engines' simulated
// arrays and enables the recovery ladder: a failed solve is re-solved once,
// and when that fails too it is completed in software with StatusDegraded.
// See FaultModel and Diagnostics.
func WithFaultModel(fm FaultModel) Option {
	return func(o *options) error {
		if err := memristor.FaultModel(fm).Validate(); err != nil {
			return fmt.Errorf("%w: %v", ErrInvalid, err)
		}
		o.faults = &fm
		o.set["WithFaultModel"] = capAnalog
		return nil
	}
}

// WithWriteVerify enables closed-loop program-and-verify cell writes on the
// crossbar engines: after each write the controller reads the conductance
// back and issues up to maxRetries corrective pulses until it is within tol
// (relative; 0 means 1%) of the target. Retries are counted in the hardware
// estimate, and the recovery ladder is enabled as with WithFaultModel.
func WithWriteVerify(maxRetries int, tol float64) Option {
	return func(o *options) error {
		if maxRetries < 1 {
			return fmt.Errorf("%w: write-verify retries %d", ErrInvalid, maxRetries)
		}
		if !(tol >= 0 && tol < 1) {
			return fmt.Errorf("%w: write-verify tolerance %v", ErrInvalid, tol)
		}
		o.writeRetries = maxRetries
		o.writeVerifyTol = tol
		o.set["WithWriteVerify"] = capAnalog
		return nil
	}
}

// engineSolver is what every engine's solver has: SolveContext returning
// the shared engine.Result. The table gives capBatch and capWarmStart only
// to rows whose solvers also batch (*core.Solver) or take warm starts.
type engineSolver interface {
	SolveContext(ctx context.Context, p *lp.Problem) (*engine.Result, error)
}

// Solver is a reusable handle on one configured engine. Construction
// resolves the options, validates them against the engine, and builds the
// engine's solver once; every Solve call then reuses its iteration
// workspaces and — for crossbar engines — the persistent simulated fabric.
// A crossbar handle keeps its arrays and workspaces at the size of the
// largest system it has solved: a problem no larger, of any shape, is
// programmed onto them in place and allocates almost nothing, and a smaller
// problem does not free them.
//
// A Solver is safe for concurrent use: calls serialize on the handle (one
// simulated fabric cannot run two solves at once). Crossbar results report
// per-solve marginal hardware counters even though the fabric persists.
type Solver struct {
	engine Engine
	spec   engineSpec
	solver engineSolver
	// nocCfg is the resolved NoC configuration that prices the transfers
	// each result reports (engine.Result.NoC); zero for an engine on no NoC.
	nocCfg noc.Config

	mu sync.Mutex
	// traceJSONL streams every trace record to the WithTraceJSONL writer in
	// solve order; replay happens under s.mu, so batch output is in input
	// order regardless of pool width. Nil when not configured.
	traceJSONL *trace.JSONL
}

// NewSolver returns a reusable Solver for the given engine. Options that do
// not apply to the engine (e.g. WithIOBits with a software engine, or
// WithConstantStep outside EngineCrossbarLargeScale) are rejected with
// ErrIncompatibleOption.
func NewSolver(eng Engine, opts ...Option) (*Solver, error) {
	o := defaultOptions()
	for _, fn := range opts {
		if err := fn(&o); err != nil {
			return nil, err
		}
	}
	if err := o.validateFor(eng); err != nil {
		return nil, err
	}

	s := &Solver{engine: eng, spec: engines[eng]}
	if o.traceJSONL != nil {
		s.traceJSONL = trace.NewJSONL(o.traceJSONL)
	}
	impl, err := s.spec.build(s, o)
	if err != nil {
		return nil, err
	}
	s.solver = impl
	if o.set["WithWarmStart"] != 0 {
		s.setWarmStart(o.warmX, o.warmY)
	}
	return s, nil
}

// setWarmStart forwards a warm start to the engine's solver; validation
// admits warm starts only on capWarmStart rows, whose solvers have
// SetWarmStart.
func (s *Solver) setWarmStart(x, y []float64) {
	s.solver.(interface{ SetWarmStart(x0, y0 linalg.Vector) }).SetWarmStart(x, y)
}

// SetWarmStart replaces (or, with nil, clears) the handle's warm start: the
// next solves seed their interior iterate from prev instead of the cold
// all-ones start. See WithWarmStart for semantics and engine support. The
// typical pattern is feeding each solve's solution into the next:
//
//	sol, _ := s.Solve(ctx, p)
//	_ = s.SetWarmStart(sol)
//	sol2, _ := s.Solve(ctx, pShifted)
func (s *Solver) SetWarmStart(prev *Solution) error {
	if !s.spec.has(capWarmStart) {
		return fmt.Errorf("WithWarmStart does not apply to engine %s: %w", s.engine, ErrIncompatibleOption)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if prev == nil {
		s.setWarmStart(nil, nil)
		return nil
	}
	if len(prev.X) == 0 || len(prev.DualY) == 0 {
		return fmt.Errorf("%w: warm start needs a solution with X and DualY", ErrInvalid)
	}
	s.setWarmStart(prev.X, prev.DualY)
	return nil
}

// crossbarConfig resolves the shared analog-hardware options into a
// crossbar.Config, the per-array configuration every crossbar-backed engine
// (Algorithms 1 and 2, conic, PDHG tiles) starts from.
func (o options) crossbarConfig() (crossbar.Config, error) {
	deltaBits := o.deltaBits
	if o.set["WithDeltaWriteBits"] == 0 {
		// Delta-programming defaults on at the I/O precision. The core
		// disables it per solve for problems with SOC blocks (the conic NT
		// rows cannot tolerate per-cell stale conductances), so pure LPs take
		// the identical delta-programmed path on every crossbar engine.
		deltaBits = 8
	}
	xcfg := crossbar.Config{
		IOBits:          o.ioBits,
		WriteBits:       o.writeBits,
		DeltaWriteBits:  deltaBits,
		GlobalIORange:   o.globalIORange,
		CycleNoise:      o.cycleNoise,
		WireResistance:  o.wireResistance,
		MaxWriteRetries: o.writeRetries,
		WriteVerifyTol:  o.writeVerifyTol,
	}
	if o.variationPct > 0 {
		vm, err := variation.NewPaperModel(o.variationPct, o.seed)
		if err != nil {
			return crossbar.Config{}, err
		}
		xcfg.Variation = vm
	}
	if o.faults != nil {
		fm := memristor.FaultModel(*o.faults)
		if fm.Seed == 0 {
			fm.Seed = o.seed
		}
		xcfg.Faults = &fm
	}
	return xcfg, nil
}

// coreOptions wires the crossbar configuration into the Algorithm 1/2
// solver options, and keeps the resolved NoC configuration on s.
func (s *Solver) coreOptions(o options) (core.Options, error) {
	xcfg, err := o.crossbarConfig()
	if err != nil {
		return core.Options{}, err
	}

	var factory, replica core.FabricFactory
	if o.useNoC {
		cfg, err := noc.Config{Topology: o.nocTopology, TileSize: o.nocTileSize, Crossbar: xcfg}.Resolve()
		if err != nil {
			return core.Options{}, err
		}
		s.nocCfg = cfg
		factory = func(int) (core.Fabric, error) { return noc.New(cfg) }
		replica = func(int) (core.Fabric, error) {
			// Every replica gets its own variation model clone at the base
			// seed: independent streams, identical device-variation pattern.
			c := cfg
			if c.Crossbar.Variation != nil {
				c.Crossbar.Variation = c.Crossbar.Variation.Clone()
			}
			return noc.New(c)
		}
	} else {
		factory = core.SingleCrossbarFactory(xcfg)
		replica = func(size int) (core.Fabric, error) {
			c := xcfg
			if c.Variation != nil {
				c.Variation = c.Variation.Clone()
			}
			return core.SingleCrossbarFactory(c)(size)
		}
	}

	alpha := o.alpha
	if alpha == 0 {
		alpha = 1.05 + 2*o.variationPct
	}
	copts := core.Options{
		Fabric:         factory,
		ReplicaFabric:  replica,
		Parallelism:    o.parallelism,
		Alpha:          alpha,
		ConstantStep:   o.constantStep,
		LiteralFillers: o.literal,
	}
	if o.traced {
		copts.Trace = &core.TraceOptions{Capacity: o.traceCap}
		copts.EnergyModel = crossbarEnergy
	}
	if o.maxIterations > 0 {
		copts.Tol.MaxIterations = o.maxIterations
	}
	// Fault-aware hardware gets the recovery ladder: re-solve, then
	// software fallback (StatusDegraded), so the handle always returns an
	// honest answer.
	copts.Recovery = o.faults != nil || o.writeRetries > 0
	return copts, nil
}

// crossbarEnergy prices fabric counters for the trace records' cumulative
// energy.
func crossbarEnergy(c crossbar.Counters) float64 {
	return perf.CrossbarCost(c, memristor.DefaultTiming()).Energy
}

// buildCore builds Algorithm 1, the solver behind EngineCrossbar and
// EngineConic.
func buildCore(s *Solver, o options) (engineSolver, error) {
	copts, err := s.coreOptions(o)
	if err != nil {
		return nil, err
	}
	return core.NewSolver(copts)
}

// buildLargeScale builds Algorithm 2.
func buildLargeScale(s *Solver, o options) (engineSolver, error) {
	copts, err := s.coreOptions(o)
	if err != nil {
		return nil, err
	}
	return core.NewLargeScaleSolver(copts)
}

// buildPDIP returns the builder of the software PDIP baseline with the given
// Newton-system backend.
func buildPDIP(backend pdip.NewtonBackend) func(*Solver, options) (engineSolver, error) {
	return func(_ *Solver, o options) (engineSolver, error) {
		tol := lp.DefaultTolerances()
		if o.maxIterations > 0 {
			tol.MaxIterations = o.maxIterations
		}
		popts := []pdip.Option{pdip.WithBackend(backend), pdip.WithTolerances(tol)}
		if o.traced {
			popts = append(popts, pdip.WithTrace(o.traceCap))
		}
		return pdip.New(popts...)
	}
}

// buildSimplex builds the two-phase simplex baseline.
func buildSimplex(_ *Solver, o options) (engineSolver, error) {
	var sopts []simplex.Option
	if o.traced {
		sopts = append(sopts, simplex.WithTrace(o.traceCap))
	}
	return simplex.New(sopts...), nil
}

// buildPDHG wires the tiled PDHG engine: the same per-array crossbar
// configuration as the Newton engines, a NoC router for the canonical block
// grid, and the worker-grid width from WithTiles. The resolved NoC config is
// kept on the handle so the interconnect traffic reported by each solve can
// be priced into the hardware estimate.
func buildPDHG(s *Solver, o options) (engineSolver, error) {
	xcfg, err := o.crossbarConfig()
	if err != nil {
		return nil, err
	}
	var ncfg noc.Config
	if o.useNoC {
		ncfg.Topology = o.nocTopology
		ncfg.TileSize = o.nocTileSize
	}
	if s.nocCfg, err = ncfg.Resolve(); err != nil {
		return nil, err
	}

	grid := o.tiles
	if grid == 0 {
		grid = 1
	}
	popts := []pdhg.Option{
		pdhg.WithNoC(ncfg),
		pdhg.WithCrossbar(xcfg),
		pdhg.WithGrid(grid),
	}
	if o.maxIterations > 0 {
		tol := pdhg.DefaultTolerances()
		tol.MaxIterations = o.maxIterations
		popts = append(popts, pdhg.WithTolerances(tol))
	}
	if o.traced {
		popts = append(popts, pdhg.WithTrace(o.traceCap), pdhg.WithEnergyModel(crossbarEnergy))
	}
	return pdhg.New(popts...)
}

// Engine returns the engine this handle was built for.
func (s *Solver) Engine() Engine { return s.engine }

// Solve runs the configured engine on p. The context is honored inside the
// iteration loop of every engine: a canceled or expired ctx returns the
// partial Solution with StatusCanceled together with the wrapped context
// error. A conic problem on an engine without conic support fails with
// ErrConicUnsupported.
func (s *Solver) Solve(ctx context.Context, p *Problem) (*Solution, error) {
	if p == nil || p.inner == nil {
		return nil, fmt.Errorf("%w: nil problem", ErrInvalid)
	}
	if p.inner.IsConic() && !s.spec.has(capConic) {
		return nil, fmt.Errorf("engine %s: %w (use the conic engine)", s.engine, ErrConicUnsupported)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	res, err := s.solver.SolveContext(ctx, p.inner)
	if res == nil {
		return nil, err
	}
	return s.solution(res), err
}

// SolveBatch solves a sequence of problems sharing one constraint matrix A
// (with varying b and c) on a pool of replicated fabrics — the paper's
// high-data-rate scenario. Each replica is programmed once; each solve pays
// only the O(N)-per-iteration coefficient refresh, and the problems are
// load-balanced across the pool (WithParallelism sets the width, default
// GOMAXPROCS). Solutions are bit-identical for every pool width: noise
// draws are a function of (seed, problem index), not of scheduling. Each
// Solution's WallTime and hardware estimate are measured per solve,
// including, with WithNoC, the solve's own NoC transfers; the first
// additionally carries the pool's one-time programming cost (the replicas'
// cell writes and, with WithNoC, their programming transfers), plus the
// BatchStats roll-up. With WithFaultModel or WithWriteVerify every member
// climbs the recovery ladder on its replica, as a single solve does, and
// carries Diagnostics.
//
// On cancellation the Solutions completed before the interruption are
// returned together with the wrapped context error; the interrupted solve
// contributes its StatusCanceled partial as the last element.
//
// Only EngineCrossbar supports batching.
func (s *Solver) SolveBatch(ctx context.Context, problems []*Problem) ([]*Solution, error) {
	if len(problems) == 0 {
		return nil, fmt.Errorf("%w: empty batch", ErrInvalid)
	}
	if !s.spec.has(capBatch) {
		return nil, fmt.Errorf("%w: engine %s does not support batching", ErrInvalid, s.engine)
	}
	inner := make([]*lp.Problem, len(problems))
	for i, p := range problems {
		if p == nil || p.inner == nil {
			return nil, fmt.Errorf("%w: nil problem at %d", ErrInvalid, i)
		}
		inner[i] = p.inner
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	// Only the Algorithm 1 row has capBatch.
	results, err := s.solver.(*core.Solver).SolveBatchContext(ctx, inner)
	if len(results) == 0 && err != nil {
		return nil, err
	}
	out := make([]*Solution, len(results))
	for i, res := range results {
		out[i] = s.solution(res)
	}
	// On cancellation the Solutions completed so far accompany the wrapped
	// context error (the canceled solve's StatusCanceled partial is last),
	// matching the single-solve contract.
	return out, err
}

// solution builds the public Solution from an engine result; it is the one
// place a Solution is made. It hands over the result's own Diagnostics,
// BatchStats and trace snapshot, with the engine's name stamped on each
// record. Analog engines get the hardware estimate: the result's crossbar
// counters plus its NoC transfers, priced here for every engine, and
// Diagnostics' energy is set from it. The Solution and its estimate share
// one allocation.
func (s *Solver) solution(res *engine.Result) *Solution {
	out := new(struct {
		sol Solution
		hw  HardwareEstimate
	})
	sol := &out.sol
	*sol = Solution{
		Status:              res.Status,
		X:                   res.X,
		DualY:               res.Y,
		Objective:           res.Objective,
		Iterations:          res.Iterations,
		Pivots:              res.Pivots,
		WallTime:            res.WallTime,
		PrimalInfeasibility: res.PrimalInfeasibility,
		DualInfeasibility:   res.DualInfeasibility,
		DualityGap:          res.DualityGap,
		ConeInfeasibility:   res.ConeInfeasibility,
		Diagnostics:         res.Diagnostics,
		Batch:               res.Batch,
		trace:               res.Trace,
	}
	if s.spec.has(capAnalog) {
		est := perf.CrossbarCost(res.Counters, memristor.DefaultTiming()).Add(perf.NoCCost(res.NoC, s.nocCfg))
		sol.Hardware = &out.hw
		out.hw = HardwareEstimate{
			Latency:      est.Latency,
			EnergyJoules: est.Energy,
			CellWrites:   res.Counters.CellWrites,
			AnalogOps:    res.Counters.MatVecOps + res.Counters.SolveOps,
			Conversions:  res.Counters.IOConversions,
			DigitalMACs:  res.Counters.DigitalMACs,
			CellsSkipped: res.Counters.CellSkips,
		}
	}
	if d := res.Diagnostics; d != nil {
		// Only analog engines report Diagnostics; their energy is the
		// hardware estimate's, priced once above.
		d.EnergyJoules = out.hw.EnergyJoules
	}
	for i := range res.Trace {
		// The records are a snapshot owned by this result.
		res.Trace[i].Engine = s.spec.name
		if s.traceJSONL != nil {
			s.traceJSONL.Emit(res.Trace[i])
		}
	}
	return sol
}

// TraceErr reports the first error the WithTraceJSONL writer returned, if
// any; the stream stops at the first failure. Always nil without
// WithTraceJSONL.
func (s *Solver) TraceErr() error {
	if s.traceJSONL == nil {
		return nil
	}
	return s.traceJSONL.Err()
}

// Solve runs the selected engine on p: a one-shot convenience wrapper that
// builds a fresh Solver per call (so crossbar variation draws are
// reproducible per seed). Long-lived callers should keep a Solver.
func Solve(p *Problem, eng Engine, opts ...Option) (*Solution, error) {
	s, err := NewSolver(eng, opts...)
	if err != nil {
		return nil, err
	}
	return s.Solve(context.Background(), p)
}

// SolveBatch solves a sequence of problems sharing one constraint matrix on
// a single persistent crossbar fabric (EngineCrossbar); see
// Solver.SolveBatch. One-shot wrapper around a fresh Solver.
func SolveBatch(problems []*Problem, opts ...Option) ([]*Solution, error) {
	s, err := NewSolver(EngineCrossbar, opts...)
	if err != nil {
		return nil, err
	}
	return s.SolveBatch(context.Background(), problems)
}
