package memristor

import (
	"errors"
	"fmt"
	"math"
)

// ErrBadFaultModel reports an invalid fault-model configuration.
var ErrBadFaultModel = errors.New("memristor: invalid fault model")

// FaultKind classifies a permanent device defect.
type FaultKind int

const (
	// FaultNone means the device programs normally.
	FaultNone FaultKind = iota
	// FaultStuckOff means the device is pinned at (effectively) zero
	// conductance: a broken filament or open selector. Writes have no effect.
	FaultStuckOff
	// FaultStuckOn means the device is pinned at its maximum conductance
	// GMax: a permanently formed filament. Writes have no effect.
	FaultStuckOn
)

// String implements fmt.Stringer.
func (k FaultKind) String() string {
	switch k {
	case FaultNone:
		return "none"
	case FaultStuckOff:
		return "stuck-off"
	case FaultStuckOn:
		return "stuck-on"
	default:
		return fmt.Sprintf("FaultKind(%d)", int(k))
	}
}

// FaultModel describes the permanent and progressive defects of a simulated
// memristor array beyond the paper's per-write process variation (Eq. 18):
// stuck-at-ON/OFF cells, extra per-write-attempt programming noise, and
// conductance drift between refresh cycles.
//
// Fault placement is a pure function of (Seed, physical row, physical
// column): the model holds no mutable state, so one FaultModel value can be
// shared by any number of arrays and goroutines, and every array built from
// equal configuration sees exactly the same defect map, which keeps
// concurrent solves on one handle consistent.
type FaultModel struct {
	// StuckOnDensity is the fraction of physical cells pinned at GMax.
	StuckOnDensity float64
	// StuckOffDensity is the fraction of physical cells pinned at zero
	// conductance.
	StuckOffDensity float64
	// Seed fixes the defect placement; equal seeds give equal maps.
	Seed int64
	// WriteNoise is an extra relative programming-noise magnitude applied
	// per write attempt (uniform in ±WriteNoise), on top of the array's
	// process-variation model. Write-verify retries redraw it.
	WriteNoise float64
	// DriftPerCycle is the multiplicative conductance decay a programmed
	// cell suffers per refresh cycle it is NOT rewritten (retention loss /
	// read disturb). Zero disables drift.
	DriftPerCycle float64
}

// Validate rejects out-of-range densities and magnitudes.
func (f FaultModel) Validate() error {
	switch {
	case f.StuckOnDensity < 0 || f.StuckOnDensity >= 1 || math.IsNaN(f.StuckOnDensity):
		return fmt.Errorf("%w: stuck-on density %v", ErrBadFaultModel, f.StuckOnDensity)
	case f.StuckOffDensity < 0 || f.StuckOffDensity >= 1 || math.IsNaN(f.StuckOffDensity):
		return fmt.Errorf("%w: stuck-off density %v", ErrBadFaultModel, f.StuckOffDensity)
	case f.StuckOnDensity+f.StuckOffDensity >= 1:
		return fmt.Errorf("%w: total stuck density %v", ErrBadFaultModel, f.StuckOnDensity+f.StuckOffDensity)
	case f.WriteNoise < 0 || f.WriteNoise >= 1 || math.IsNaN(f.WriteNoise):
		return fmt.Errorf("%w: write noise %v", ErrBadFaultModel, f.WriteNoise)
	case f.DriftPerCycle < 0 || f.DriftPerCycle >= 1 || math.IsNaN(f.DriftPerCycle):
		return fmt.Errorf("%w: drift per cycle %v", ErrBadFaultModel, f.DriftPerCycle)
	}
	return nil
}

// FaultAt returns the permanent defect of the physical cell (i, j).
// Deterministic per (Seed, i, j) and safe for concurrent use.
func (f FaultModel) FaultAt(i, j int) FaultKind {
	if f.StuckOnDensity == 0 && f.StuckOffDensity == 0 {
		return FaultNone
	}
	u := uniform01(hash3(uint64(f.Seed), uint64(i), uint64(j)))
	switch {
	case u < f.StuckOffDensity:
		return FaultStuckOff
	case u < f.StuckOffDensity+f.StuckOnDensity:
		return FaultStuckOn
	default:
		return FaultNone
	}
}

// CountFaults tallies the stuck cells of the rows×cols region at the
// array's origin.
func (f FaultModel) CountFaults(rows, cols int) (stuckOn, stuckOff int) {
	if f.StuckOnDensity == 0 && f.StuckOffDensity == 0 {
		return 0, 0
	}
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			switch f.FaultAt(i, j) {
			case FaultStuckOn:
				stuckOn++
			case FaultStuckOff:
				stuckOff++
			}
		}
	}
	return stuckOn, stuckOff
}

// WriteFactor returns the multiplicative programming-noise factor (1 + ε)
// for write attempt n at physical cell (i, j), |ε| ≤ WriteNoise.
// Deterministic per (Seed, i, j, n) and safe for concurrent use.
func (f FaultModel) WriteFactor(i, j, n int) float64 {
	if f.WriteNoise == 0 {
		return 1
	}
	u := uniform01(hash3(uint64(f.Seed)^0x9e3779b97f4a7c15, uint64(i)<<20|uint64(j), uint64(n)))
	return 1 + f.WriteNoise*(2*u-1)
}

// hash3 mixes three words with a splitmix64-style finalizer: a cheap,
// stateless PRF good enough for defect placement (avalanche on every input
// bit, no visible lattice structure across neighbouring cells).
func hash3(a, b, c uint64) uint64 {
	x := a*0x9e3779b97f4a7c15 ^ b*0xbf58476d1ce4e5b9 ^ c*0x94d049bb133111eb
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// uniform01 maps a hash to [0, 1) with 53 bits of precision.
func uniform01(h uint64) float64 {
	return float64(h>>11) / (1 << 53)
}
