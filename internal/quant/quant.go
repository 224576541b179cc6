// Package quant implements the uniform quantizers that model the digital
// boundary of the analog crossbar: DAC-driven input voltages, ADC-sampled
// output voltages, and the multilevel conductance write precision.
//
// The paper (§4.1) stores all voltage inputs and outputs with 8-bit
// precision; conductance writes are likewise limited to a finite number of
// programmable levels (§3.3, refs [16][17]).
package quant

import (
	"errors"
	"fmt"
	"math"
)

// ErrInvalidBits is returned for bit widths outside [1, 24].
var ErrInvalidBits = errors.New("quant: bits must be in [1, 24]")

// ErrInvalidRange is returned when the quantizer range is empty or not finite.
var ErrInvalidRange = errors.New("quant: invalid range")

// Quantizer maps real values onto a uniform grid of 2^bits levels spanning
// [min, max]. Values outside the range saturate.
type Quantizer struct {
	min, max float64
	levels   int
	step     float64
}

// New returns a quantizer with the given bit width over [min, max].
func New(bits int, min, max float64) (*Quantizer, error) {
	q, err := newQuantizer(bits, min, max)
	if err != nil {
		return nil, err
	}
	return &q, nil
}

// newQuantizer is New returning the quantizer by value, so a caller that
// builds one per vector keeps it off the heap.
func newQuantizer(bits int, min, max float64) (Quantizer, error) {
	if bits < 1 || bits > 24 {
		return Quantizer{}, fmt.Errorf("%w: %d", ErrInvalidBits, bits)
	}
	if !(min < max) || math.IsInf(min, 0) || math.IsInf(max, 0) || math.IsNaN(min) || math.IsNaN(max) {
		return Quantizer{}, fmt.Errorf("%w: [%v, %v]", ErrInvalidRange, min, max)
	}
	levels := 1 << uint(bits)
	return Quantizer{
		min:    min,
		max:    max,
		levels: levels,
		step:   (max - min) / float64(levels-1),
	}, nil
}

// Levels returns the number of representable levels.
func (q *Quantizer) Levels() int { return q.levels }

// Quantize returns the nearest representable value, saturating at the range
// edges. NaN maps to the range minimum.
func (q *Quantizer) Quantize(x float64) float64 {
	if math.IsNaN(x) || x <= q.min {
		return q.min
	}
	if x >= q.max {
		return q.max
	}
	k := math.Round((x - q.min) / q.step)
	return q.min + k*q.step
}

// Index returns the level index of the nearest representable value in
// [0, Levels()-1].
func (q *Quantizer) Index(x float64) int {
	if math.IsNaN(x) || x <= q.min {
		return 0
	}
	if x >= q.max {
		return q.levels - 1
	}
	return int(math.Round((x - q.min) / q.step))
}

// QuantizeVector quantizes every element of v in place and returns v.
func (q *Quantizer) QuantizeVector(v []float64) []float64 {
	for i, x := range v {
		v[i] = q.Quantize(x)
	}
	return v
}

// SymmetricAroundZero returns a quantizer over [-amp, +amp]. This models the
// bipolar DAC/ADC voltage paths of the solver, where signals can take either
// sign within the supply rails. It returns the quantizer by value: the
// global-range converter builds one for every vector it converts, and that
// read path must not allocate.
func SymmetricAroundZero(bits int, amp float64) (Quantizer, error) {
	if !(amp > 0) || math.IsInf(amp, 0) || math.IsNaN(amp) {
		return Quantizer{}, fmt.Errorf("%w: amplitude %v", ErrInvalidRange, amp)
	}
	return newQuantizer(bits, -amp, amp)
}
