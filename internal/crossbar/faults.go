package crossbar

// This file holds fault-aware programming: stuck-cell pinning, write-verify
// retry loops, retention drift, and the post-program fault census. The
// logical matrix sits at the array's origin, so logical cell (i, j) is
// physical device (i, j) of the fault model's fixed defect map.

import (
	"math"

	"github.com/memlp/memlp/internal/linalg"
	"github.com/memlp/memlp/internal/memristor"
)

// faultAt returns the permanent defect of the device backing cell (i, j).
func (x *Crossbar) faultAt(i, j int) memristor.FaultKind {
	if x.cfg.Faults == nil {
		return memristor.FaultNone
	}
	return x.cfg.Faults.FaultAt(i, j)
}

// driftEnabled reports whether the fault model includes retention drift.
func (x *Crossbar) driftEnabled() bool {
	return x.cfg.Faults != nil && x.cfg.Faults.DriftPerCycle > 0
}

// driftFactor returns the multiplicative retention decay of cell (i, j):
// (1−d)^age where age is the number of refresh cycles since the cell was last
// programmed. Stuck cells are pinned (cellCycle = +Inf ⇒ age < 0 ⇒ factor 1).
//
//memlp:hotpath
func (x *Crossbar) driftFactor(i, j int) float64 {
	age := x.driftCycle - x.cellCycle.At(i, j)
	if age <= 0 {
		return 1
	}
	return math.Pow(1-x.cfg.Faults.DriftPerCycle, age)
}

// pinFaultCell accounts for a write aimed at a stuck device and records the
// pinned conductance. The controller cannot know the cell is defective ahead
// of time: the initial pulse is issued (and counted) whenever the target
// changed, and with write-verify enabled the verify loop burns its full retry
// budget failing to move the device — the honest energy cost of programming a
// faulty array blind.
//
//memlp:conductance-writer
func (x *Crossbar) pinFaultCell(i, j int, kind memristor.FaultKind, tq float64) {
	pinned := 0.0
	if kind == memristor.FaultStuckOn {
		pinned = memristor.GMax
	}
	if !linalg.Identical(tq, x.progTarget.At(i, j)) {
		x.progTarget.Set(i, j, tq)
		x.counters.CellWrites++
		if x.cfg.MaxWriteRetries > 0 && !x.verifyOK(pinned, tq) {
			x.counters.CellWrites += int64(x.cfg.MaxWriteRetries)
			x.counters.WriteRetries += int64(x.cfg.MaxWriteRetries)
		}
	}
	x.notePatternWrite(x.gt.At(i, j), pinned)
	x.gt.Set(i, j, pinned)
	if x.cellCycle != nil {
		// Pinned devices do not drift.
		x.cellCycle.Set(i, j, math.Inf(1))
	}
}

// verifyOK is the write-verify acceptance test: realized conductance g within
// the relative tolerance of the target. A zero target demands a (selector-
// gated) zero conductance exactly.
func (x *Crossbar) verifyOK(g, tq float64) bool {
	if tq == 0 {
		return g == 0
	}
	return math.Abs(g-tq) <= x.cfg.WriteVerifyTol*tq
}

// realizeWrite returns the conductance a healthy device settles at on write
// attempt n for quantized target tq. Attempt 0 reproduces the open-loop model
// exactly (static variation factor times cycle noise); each verify-driven
// retry halves the residual programming error (error scale 2^−n), the
// standard closed-loop program-and-verify convergence model — which is also
// why verified writes partially compensate STATIC variation, not just noise.
func (x *Crossbar) realizeWrite(i, j int, tq float64, attempt int) float64 {
	if tq == 0 {
		return 0
	}
	// shrink is 2^−attempt exactly; open-loop writes, the common case,
	// skip computing it.
	shrink := 1.0
	if attempt > 0 {
		shrink = math.Ldexp(1, -attempt)
	}
	g := tq
	if x.deviceFactor != nil {
		g *= 1 + (x.deviceFactor.At(i, j)-1)*shrink
	}
	if x.cfg.Variation != nil && x.cfg.CycleNoise > 0 {
		g *= 1 + x.cfg.CycleNoise*(x.cfg.Variation.Factor()-1)*shrink
	}
	if x.cfg.Faults != nil && x.cfg.Faults.WriteNoise > 0 {
		x.writeSeq++
		g *= 1 + (x.cfg.Faults.WriteFactor(i, j, x.writeSeq)-1)*shrink
	}
	if g < 0 {
		g = 0
	}
	return g
}

// writeDevice issues the physical write (plus verify retries when enabled)
// for a healthy device and records the realized conductance. Callers have
// already checked the progTarget cache and the fault map.
//
//memlp:conductance-writer
func (x *Crossbar) writeDevice(i, j int, tq float64) {
	x.progTarget.Set(i, j, tq)
	if x.deltaLevel != nil {
		x.deltaLevel[i*x.cols+j] = x.deltaLevelOf(tq)
	}
	x.counters.CellWrites++
	g := x.realizeWrite(i, j, tq, 0)
	if tq > 0 && x.cfg.MaxWriteRetries > 0 && !x.verifyOK(g, tq) {
		// Program-and-verify: read back, pulse again while off-target. If the
		// budget runs out the best attempt stands — the loop never makes a
		// write worse.
		best := g
		for n := 1; n <= x.cfg.MaxWriteRetries; n++ {
			x.counters.CellWrites++
			x.counters.WriteRetries++
			g = x.realizeWrite(i, j, tq, n)
			if math.Abs(g-tq) < math.Abs(best-tq) {
				best = g
			}
			if x.verifyOK(best, tq) {
				break
			}
		}
		g = best
	}
	x.notePatternWrite(x.gt.At(i, j), g)
	x.gt.Set(i, j, g)
	if x.cellCycle != nil {
		x.cellCycle.Set(i, j, x.driftCycle)
	}
}

// FaultCensus summarizes the permanent defects inside the currently mapped
// region, as discovered by a post-program read-back sweep.
type FaultCensus struct {
	// StuckOn / StuckOff count defective devices inside the mapped region.
	StuckOn  int
	StuckOff int
}

// FaultCensus reads back the mapped region and tallies its stuck cells.
// Without a fault model (or before programming) the census is all zeros.
func (x *Crossbar) FaultCensus() FaultCensus {
	if x.cfg.Faults == nil || x.rows == 0 || x.cols == 0 {
		return FaultCensus{}
	}
	on, off := x.cfg.Faults.CountFaults(x.rows, x.cols)
	return FaultCensus{StuckOn: on, StuckOff: off}
}
