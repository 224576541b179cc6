package main

import (
	"fmt"
	"math"
	"math/rand"
	"strings"

	"github.com/memlp/memlp"
	"github.com/memlp/memlp/internal/lp"
)

// workload is one of the benchmark's three input sets. The constants below
// are the settings the package docs justify; changing any of them is a
// change of benchmark, not of the program.
type workload struct {
	name string
	// m, n are the constraint and variable counts of every generated LP.
	m, n int
	// opsPerSecond sizes a closed loop's operation budget: a run of
	// --seconds solves seconds × opsPerSecond distinct problems. It is set
	// near the rate the workload reaches on a 2-core host, so a run lasts
	// about --seconds; a fixed count keeps every exact metric a pure
	// function of the seed.
	opsPerSecond float64
	// variation is the Eq. 18 process-variation magnitude of the fabric.
	variation float64
}

// Workload names.
const (
	newtonFresh   = "newton-fresh"
	pdhgTiled     = "pdhg-tiled"
	serveCoalesce = "serve-coalesce"
)

var workloads = []workload{
	{name: newtonFresh, m: 24, n: 8, opsPerSecond: 22, variation: 0.05},
	{name: pdhgTiled, m: 48, n: 36, opsPerSecond: 17},
	{name: serveCoalesce, m: 16, n: 5, variation: 0.05},
}

// alpha is the crossbar engines' relaxed-feasibility factor, derived as
// solve.go derives its default: 1.05 + 2·variation.
func (w workload) alpha() float64 { return 1.05 + 2*w.variation }

// Settings of the tiled PDHG engine and of the serve traffic.
const (
	pdhgTileSize = 16
	// pdhgGrid is the worker-grid side: g² sweep goroutines must not exceed
	// the host's cores, and 1 keeps the engine on the caller's goroutine.
	pdhgGrid = 1

	burstSize       = 4
	burstsPerSecond = 8
	// bSpread raises each request's right-hand side entry by u·bSpread of
	// its magnitude, u uniform in [0, 1): raising b keeps the generator's
	// interior point feasible and leaves the dual bound (and so
	// boundedness) unchanged.
	bSpread = 0.5
	// setupRepeats is how many fresh set-ups setup_s takes the median of.
	setupRepeats = 15
)

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// closedOps is the operation budget of a closed-loop run.
func (w workload) closedOps(seconds int) int {
	return int(float64(seconds) * w.opsPerSecond)
}

// bursts is the number of bursts an open-loop serve run sends.
func bursts(seconds int) int { return seconds * burstsPerSecond }

// input is one generated problem in the forms the runs need: the internal
// problem the traced run hands to the engines directly, the public problem
// the timed run solves, and (serve only) the wire text.
type input struct {
	inner *lp.Problem
	pub   *memlp.Problem
	text  string
}

// warmupSeed generates the warm-up problems. They do not depend on --seed,
// so setup_s times the same work for every seed; every measured problem
// does.
const warmupSeed = 0

// Streams keep the workloads' seeds disjoint.
const (
	streamNewton = iota + 1
	streamPDHG
	streamServeMatrix
	streamServeRHS
)

// deriveSeed maps (run seed, stream, index) to a generator seed with a
// splitmix64 finalizer, so neighbouring run seeds give unrelated inputs.
func deriveSeed(seed int64, stream, index int) int64 {
	z := uint64(seed)
	for _, v := range [...]uint64{uint64(stream), uint64(index)} {
		z += 0x9e3779b97f4a7c15 + v
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		z ^= z >> 31
	}
	return int64(z >> 1)
}

// newInput wraps an internal problem; the public copy holds the same
// numbers, so both solve paths see bit-identical data.
func newInput(p *lp.Problem) (input, error) {
	rows := make([][]float64, p.A.Rows())
	for i := range rows {
		rows[i] = p.A.RawRow(i)
	}
	pub, err := memlp.NewProblem(p.Name, p.C, rows, p.B)
	if err != nil {
		return input{}, err
	}
	return input{inner: p, pub: pub}, nil
}

// closedInputs generates a closed-loop workload's warm-up problem and its
// ops measured problems, every one a distinct feasible, bounded LP.
func closedInputs(w workload, seed int64, ops int) (warm input, probs []input, err error) {
	stream := streamNewton
	if w.name == pdhgTiled {
		stream = streamPDHG
	}
	gen := func(seed int64, i int) (input, error) {
		p, err := lp.GenerateFeasible(lp.GenConfig{Constraints: w.m, Variables: w.n, Seed: deriveSeed(seed, stream, i)})
		if err != nil {
			return input{}, err
		}
		p.Name = fmt.Sprintf("%s-%d", w.name, i)
		return newInput(p)
	}
	if warm, err = gen(warmupSeed, 0); err != nil {
		return input{}, nil, err
	}
	probs = make([]input, ops)
	for i := range probs {
		if probs[i], err = gen(seed, i+1); err != nil {
			return input{}, nil, err
		}
	}
	return warm, probs, nil
}

// serveInputs generates the warm-up burst and nBursts measured bursts.
// Every burst has a constraint matrix of its own, shared by its members
// with one objective; each member raises the right-hand side differently.
// Whether a crossbar solve ends optimal depends mostly on the matrix, so a
// run needs many matrices for its quality metrics to stop depending on
// which few a seed drew.
func serveInputs(w workload, seed int64, nBursts int) (warm []input, bs [][]input, err error) {
	gen := func(seed int64, burst int) ([]input, error) {
		base, err := lp.GenerateFeasible(lp.GenConfig{Constraints: w.m, Variables: w.n, Seed: deriveSeed(seed, streamServeMatrix, burst)})
		if err != nil {
			return nil, err
		}
		out := make([]input, burstSize)
		for r := range out {
			rng := rand.New(rand.NewSource(deriveSeed(seed, streamServeRHS, burst*burstSize+r)))
			b := base.B.Clone()
			for i := range b {
				b[i] += bSpread * rng.Float64() * math.Abs(b[i])
			}
			p, err := lp.New(fmt.Sprintf("burst%05d-req%d", burst, r), base.C, base.A, b)
			if err != nil {
				return nil, err
			}
			in, err := newInput(p)
			if err != nil {
				return nil, err
			}
			var buf strings.Builder
			if err := p.WriteText(&buf); err != nil {
				return nil, err
			}
			in.text = buf.String()
			out[r] = in
		}
		return out, nil
	}
	if warm, err = gen(warmupSeed, -1); err != nil {
		return nil, nil, err
	}
	bs = make([][]input, nBursts)
	for j := range bs {
		if bs[j], err = gen(seed, j); err != nil {
			return nil, nil, err
		}
	}
	return warm, bs, nil
}
