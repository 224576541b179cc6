// Package perf estimates the latency and energy of crossbar-based and
// software LP solves, following the paper's estimation methodology (§4.4):
// count the physical operations actually performed (coefficient writes —
// 2.7N per iteration for n = m/3; analog settles; conversions), multiply by
// per-operation device constants from the memristor model ([23]), and for
// the software baseline multiply measured wall-clock time by the CPU's
// active power (the paper's 218.1 J / 6.23 s ratio implies ≈35 W).
package perf

import (
	"fmt"
	"time"

	"github.com/memlp/memlp/internal/crossbar"
	"github.com/memlp/memlp/internal/memristor"
	"github.com/memlp/memlp/internal/noc"
)

// CPUPowerWatts is the modelled active power of the software baseline's
// processor. 218.1 J / 6.23 s from the paper's §4.4 figures implies ≈35 W
// for their i7-6700; we use the same figure.
const CPUPowerWatts = 35.0

// Estimate is a latency/energy prediction for one solve.
type Estimate struct {
	// Latency is the predicted end-to-end solve time.
	Latency time.Duration
	// Energy is the predicted energy in joules.
	Energy float64
}

// Add returns the component-wise sum.
func (e Estimate) Add(o Estimate) Estimate {
	return Estimate{Latency: e.Latency + o.Latency, Energy: e.Energy + o.Energy}
}

// String renders the estimate compactly.
func (e Estimate) String() string {
	return fmt.Sprintf("%v / %.4g J", e.Latency, e.Energy)
}

// CrossbarCost converts fabric operation counters into a hardware estimate
// using the given device timing. Writes are serial (the half-select scheme
// programs one cell at a time — this is what makes the per-iteration update
// cost O(N)); analog ops cost one settle each; conversions happen in
// parallel banks and are folded into the settle time, but their energy is
// charged per element. The controller's digital multiply-adds run serially
// beside the array, each at the timing's per-MAC latency and energy.
func CrossbarCost(c crossbar.Counters, timing memristor.Timing) Estimate {
	lat := time.Duration(c.CellWrites)*timing.WriteLatencyPerCell +
		time.Duration(c.MatVecOps+c.SolveOps)*timing.AnalogSettleLatency +
		time.Duration(c.MatVecOps+c.SolveOps)*timing.AmplifierLatency +
		time.Duration(c.DigitalMACs)*timing.DigitalMACLatency
	energy := float64(c.CellWrites)*timing.WriteEnergyPerCell +
		float64(c.MatVecOps+c.SolveOps)*timing.AnalogOpEnergy +
		float64(c.IOConversions)*timing.AmplifierEnergyPerElement +
		float64(c.DigitalMACs)*timing.DigitalMACEnergy +
		lat.Seconds()*timing.StaticPowerWatts
	return Estimate{Latency: lat, Energy: energy}
}

// NoCCost converts interconnect statistics into the transfer overhead of a
// multi-crossbar fabric (Fig. 3), priced by the resolved NoC configuration
// (noc.Config.Resolve). Transfers are serial, each charged the hop latency
// of its grid's longest path (noc.Stats.SerialHops); energy is charged per
// element per hop actually traversed. The stats add, so the transfers of
// several fabrics, grids or attempts are priced as one sum.
func NoCCost(s noc.Stats, cfg noc.Config) Estimate {
	lat := time.Duration(s.SerialHops) * cfg.HopLatency
	energy := float64(s.ElementHops) * cfg.HopEnergyPerElement
	return Estimate{Latency: lat, Energy: energy}
}

// SoftwareCost converts a measured software solve duration into the
// baseline estimate: the wall-clock time itself plus energy at the CPU's
// active power.
func SoftwareCost(wall time.Duration) Estimate {
	return Estimate{Latency: wall, Energy: wall.Seconds() * CPUPowerWatts}
}
