// Package core implements the paper's contribution: two memristor
// crossbar-based linear-program solvers built on the primal–dual
// interior-point method.
//
//   - Solver (Algorithm 1, §3.2) reformulates the full Newton system as one
//     non-negative square system (Eq. 13–15) with compensation variables
//     Δu = −Δw, Δv = −Δz and Δp (mirrors of the negated columns of A/Aᵀ),
//     programs it on the analog fabric once, refreshes only the X/Y/Z/W
//     cells each iteration (O(N) writes), and takes each Newton step with
//     one analog settle. By default the controller computes the residual
//     digitally from the true coefficients it mirrors, O(nnz) multiply-adds
//     per iteration (mixed-precision Newton, DESIGN.md D20); with
//     Options.AnalogResidual it reads it from the fabric as the paper does,
//     one analog mat-vec plus the divide-by-2 fix-up of Eq. 15b.
//
//   - LargeScaleSolver (Algorithm 2, §3.4) splits the Newton system into the
//     two smaller systems of Eq. 16, regularizes the singular block matrix
//     with small RU/RL fillers (Eq. 16c), uses a constant step length, and
//     re-solves once when convergence fails (§4.3's "double checking").
package core

import (
	"github.com/memlp/memlp/internal/crossbar"
	"github.com/memlp/memlp/internal/engine"
	"github.com/memlp/memlp/internal/linalg"
	"github.com/memlp/memlp/internal/noc"
)

// Fabric is the analog compute substrate the solvers drive: a single
// memristor crossbar (*crossbar.Crossbar satisfies this) or a NoC-coordinated
// group of crossbars for matrices beyond a single array's size.
type Fabric interface {
	// Program writes a non-negative matrix into the fabric.
	Program(a *linalg.Matrix) error
	// UpdateRow rewrites one row's coefficients in place. The fabric reads
	// row only during the call: the solvers pass rows of their digital
	// mirrors, which they go on to rewrite.
	UpdateRow(i int, row linalg.Vector) error
	// UpdateCellInPlace rewrites one coefficient with a single device write,
	// without re-balancing the rest of its row.
	UpdateCellInPlace(i, j int, value float64) error
	// MatVecResidual computes base − factor∘(programmedMatrix·v) with the
	// subtraction in the analog domain (summing amplifiers), so only the
	// residual passes the ADC. factor nil means all ones. The result is
	// fabric-owned scratch, valid until the next MatVecResidual call.
	MatVecResidual(base, v, factor linalg.Vector) (linalg.Vector, error)
	// Solve solves programmedMatrix · x = b in the analog domain. The
	// result is fabric-owned scratch, valid until the next Solve call.
	Solve(b linalg.Vector) (linalg.Vector, error)
	// Counters reports cumulative operation counts for cost estimation.
	Counters() crossbar.Counters
}

// Compile-time check: a single crossbar is a valid fabric.
var _ Fabric = (*crossbar.Crossbar)(nil)

// nocReporter is implemented by fabrics whose tiles talk over the NoC (a
// *noc.TiledFabric). The solvers read its cumulative transfers next to each
// counter window, so every result reports the transfers of its own solve.
type nocReporter interface {
	Stats() noc.Stats
}

var _ nocReporter = (*noc.TiledFabric)(nil)

// nocStats returns fab's cumulative NoC transfers; a single crossbar moves
// nothing over a NoC and reports none.
func nocStats(fab Fabric) noc.Stats {
	if r, ok := fab.(nocReporter); ok {
		return r.Stats()
	}
	return noc.Stats{}
}

// fabricSlot keeps one fabric of a solver across solves: Algorithm 1's
// single-solve and batch-shard fabrics, and each of Algorithm 2's two. It
// builds a new fabric only when a system outgrows the one it holds, which
// changes no result: the crossbars of a handle share one variation stream
// and Program rebuilds every per-cell state. Each attempt reads the fabric
// through a counter and NoC window (begin, end), so its result reports its
// own operations however many solves the fabric has run.
type fabricSlot struct {
	fab Fabric
	// size is the system size fab was built for.
	size int
	// base and nocBase hold fab's counters and NoC transfers when the
	// current attempt began.
	base    crossbar.Counters
	nocBase noc.Stats
}

// ensure returns the slot's fabric, building one with build first when the
// slot is empty or its fabric was built for a smaller system than size.
func (sl *fabricSlot) ensure(build FabricFactory, size int) (Fabric, error) {
	if sl.fab == nil || size > sl.size {
		fab, err := build(size)
		if err != nil {
			return nil, err
		}
		sl.fab, sl.size = fab, size
	}
	return sl.fab, nil
}

// begin opens an attempt's window on the slot's fabric.
func (sl *fabricSlot) begin() {
	sl.base, sl.nocBase = sl.fab.Counters(), nocStats(sl.fab)
}

// end adds the counters and NoC transfers of the attempt's window to res.
func (sl *fabricSlot) end(res *engine.Result) {
	res.Counters = res.Counters.Add(sl.fab.Counters().Sub(sl.base))
	res.NoC = res.NoC.Add(nocStats(sl.fab).Sub(sl.nocBase))
}

// NoiseEpocher is implemented by fabrics whose stochastic write-noise state
// (cycle-noise stream, fault write-sequence counter, verify cache, drift
// clock) can be rebased to a per-problem epoch — see crossbar.SetNoiseEpoch.
// The fabric pool rebases each shard to the PROBLEM index before every batch
// member, which is what makes pooled results bit-identical regardless of the
// pool width or of which shard ran which problem. Fabrics without the method
// are assumed noise-free (the pool solves on them unrebased).
type NoiseEpocher interface {
	SetNoiseEpoch(epoch int64)
}

// Compile-time check: single crossbars support noise epochs.
var _ NoiseEpocher = (*crossbar.Crossbar)(nil)

// DeltaProgrammer is implemented by fabrics whose write path supports
// delta-programming (skipping refreshes whose coarse conductance level is
// unchanged — see crossbar.Config.DeltaWriteBits). The solver toggles it per
// problem: enabled for orthant LPs, disabled for conic problems, whose dense
// Nesterov–Todd scaling blocks cannot tolerate per-cell stale conductances.
// Fabrics without the method never skip, which is always correct.
type DeltaProgrammer interface {
	SetDeltaProgramming(on bool)
}

// Compile-time check: single crossbars support the delta toggle.
var _ DeltaProgrammer = (*crossbar.Crossbar)(nil)

// FabricFactory builds a fabric able to hold a size×size matrix. The solvers
// call it once per Solve with the extended system's dimension.
type FabricFactory func(size int) (Fabric, error)

// SingleCrossbarFactory returns a factory producing one crossbar per solve,
// configured from cfg but sized to the requested matrix.
func SingleCrossbarFactory(cfg crossbar.Config) FabricFactory {
	return func(size int) (Fabric, error) {
		c := cfg
		if c.Size < size {
			c.Size = size
		}
		return crossbar.New(c)
	}
}
