package analysis

// Default returns the production-configured memlpvet suite, in reporting
// order. The configurations pin each analyzer to the packages that own the
// corresponding invariant (see DESIGN.md D11 for the style/boundary
// analyzers and D16 for the determinism/concurrency analyzers):
//
//   - floatcmp everywhere, with internal/linalg hosting the approved
//     //memlp:tolerance-helper functions;
//   - ctxloop on the iteration engines (internal/core, internal/engine,
//     internal/pdhg);
//   - rawwrite protecting internal/crossbar's realized-conductance matrix
//     (gt) and program-and-verify cache (progTarget);
//   - nanguard on the public memlp package;
//   - hotpath wherever //memlp:hotpath annotations appear;
//   - tracesink keeping raw file/JSON/HTTP I/O out of the solver engines —
//     telemetry leaves them only through trace sinks;
//   - detorder on the packages whose iteration order feeds the determinism
//     contracts (bit-identical batches across pool widths, golden traces,
//     served == direct solves): no map-range may drive float accumulation,
//     trace emission, batch indexing, or noise-epoch derivation;
//   - wallclock on every deterministic package — the engines, the fabric
//     substrate, the noise machinery, trace, and serve — confining
//     time.Now/Since/Until to //memlp:timing funnels and banning the global
//     math/rand source outright;
//   - guardedby everywhere //memlp:guardedby annotations appear (the serve
//     coalescer/pool/server state, the trace.Metrics aggregate);
//   - spawnjoin on the engine and serving packages, where a goroutine
//     without a join or cancellation path is a leaked fabric replica.
//
// Scope note (DESIGN.md D15): the tracesink and rawwrite lists are
// allowlists of engine-side packages, so the transport layer — cmd/memlpd
// and internal/serve, whose whole job is HTTP and JSON — is deliberately
// outside them, as are the other cmd/ mains and internal/experiments.
// Serving traffic must not widen the engine boundary: internal/serve talks
// to the fabric only through the public memlp API, never by importing the
// engine packages, and TestDefaultScopes pins both the lists and that
// import boundary.
func Default() []*Analyzer {
	return []*Analyzer{
		Floatcmp(FloatcmpConfig{
			HelperPkgs: []string{"internal/linalg"},
		}),
		Ctxloop(CtxloopConfig{
			Pkgs: []string{"internal/core", "internal/engine", "internal/pdhg"},
		}),
		Rawwrite(RawwriteConfig{
			StatePkgs: []string{"internal/crossbar"},
			TypeName:  "Crossbar",
			Fields:    []string{"gt", "progTarget"},
			Mutators:  []string{"Set", "Zero", "Fill"},
		}),
		Nanguard(NanguardConfig{
			Pkgs: []string{"github.com/memlp/memlp"},
		}),
		Hotpath(),
		Tracesink(TracesinkConfig{
			Pkgs: []string{"internal/cone", "internal/core", "internal/engine", "internal/pdhg", "internal/pdip", "internal/simplex"},
		}),
		Detorder(DetorderConfig{
			Pkgs: []string{
				"internal/core", "internal/engine", "internal/linalg",
				"internal/cone", "internal/trace", "internal/serve",
				"internal/pdhg", "internal/noc",
			},
		}),
		Wallclock(WallclockConfig{
			Pkgs: []string{
				"internal/core", "internal/engine", "internal/linalg",
				"internal/cone", "internal/trace", "internal/serve",
				"internal/crossbar", "internal/variation", "internal/pdip",
				"internal/simplex", "internal/noc", "internal/memristor",
				"internal/quant", "internal/lp", "internal/pdhg",
			},
		}),
		Guardedby(),
		Spawnjoin(SpawnjoinConfig{
			Pkgs: []string{
				"internal/core", "internal/engine", "internal/serve",
				"internal/linalg", "internal/cone", "internal/trace",
				"internal/crossbar", "internal/variation", "internal/pdip",
				"internal/simplex", "internal/noc", "internal/memristor",
				"internal/quant", "cmd/memlpd", "internal/pdhg",
			},
		}),
	}
}
