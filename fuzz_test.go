package memlp

// Fuzz targets for the validation and solve pipeline. FuzzSolve decodes
// arbitrary byte soup into problem data (naturally producing NaN/Inf
// coefficients, zero dimensions, m > n shapes, and rank-deficient matrices)
// and feeds it through NewProblem and every fast engine. FuzzOptions feeds
// arbitrary floats to the float-valued options. The contract under fuzzing is
// strict: malformed inputs fail with errors matching ErrInvalid, accepted
// inputs return a Solution with a meaningful Status — and nothing ever
// panics.
//
// Run locally with: go test -fuzz=FuzzSolve -fuzztime=30s .
// (or -run '^$' -fuzz='^FuzzOptions$'). The seed corpus of FuzzSolve lives
// in testdata/fuzz/FuzzSolve.

import (
	"context"
	"encoding/binary"
	"errors"
	"math"
	"testing"
)

// fuzzValues decodes count float64s from payload (little-endian, cycling
// from the start when the payload runs short; an empty payload yields ones).
func fuzzValues(payload []byte, count int) []float64 {
	vals := make([]float64, count)
	if len(payload) < 8 {
		for i := range vals {
			vals[i] = 1
		}
		return vals
	}
	pos := 0
	for i := range vals {
		if pos+8 > len(payload) {
			pos = 0
		}
		vals[i] = math.Float64frombits(binary.LittleEndian.Uint64(payload[pos : pos+8]))
		pos += 8
	}
	return vals
}

// listedStatus reports whether st is one of the exported Status values.
func listedStatus(st Status) bool {
	switch st {
	case StatusOptimal, StatusInfeasible, StatusUnbounded,
		StatusIterationLimit, StatusNumericalFailure,
		StatusCanceled, StatusDegraded:
		return true
	}
	return false
}

// FuzzOptions holds the float options to their ranges: NewSolver either
// rejects the values with ErrInvalid or accepts only finite, in-range ones,
// and a solver it builds answers the diet LP with a listed status.
func FuzzOptions(f *testing.F) {
	f.Add(0.0, 0.0, 0.0, 0.0, 0.0)
	f.Add(1.05, 0.05, 0.5, 0.0, 0.01)
	f.Add(1.3, 0.1, 1.0, 1e-3, 0.0)
	f.Add(math.NaN(), 0.05, 0.5, 0.0, 0.01)
	f.Add(1.05, math.NaN(), 0.0, 0.0, 0.0)
	f.Add(1.05, 0.05, math.NaN(), 0.0, 0.0)
	f.Add(1.05, 0.0, 0.0, math.NaN(), 0.0)
	f.Add(1.05, 0.0, 0.0, 0.0, math.NaN())
	f.Add(math.Inf(1), 0.0, 0.0, math.Inf(1), 0.0)
	f.Add(1e300, 0.999, 1.0, 1e300, 0.999)

	diet, err := NewProblem("diet", []float64{3, 2}, [][]float64{{1, 1}, {1, 3}}, []float64{4, 6})
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, alpha, variation, cycleNoise, wire, tol float64) {
		opts := []Option{
			WithAlpha(alpha),
			WithVariation(variation),
			WithCycleNoise(cycleNoise),
			WithWireResistance(wire),
			WithWriteVerify(2, tol),
		}
		s, err := NewSolver(EngineCrossbar, opts...)
		if err != nil {
			if !errors.Is(err, ErrInvalid) {
				t.Fatalf("NewSolver error not typed ErrInvalid: %v", err)
			}
			return
		}
		o := defaultOptions()
		for _, fn := range opts {
			if err := fn(&o); err != nil {
				t.Fatalf("NewSolver accepted an option that fails alone: %v", err)
			}
		}
		if !(o.alpha >= 1 && o.alpha <= math.MaxFloat64 && o.variationPct >= 0 && o.variationPct < 1 &&
			o.cycleNoise >= 0 && o.cycleNoise <= 1 && o.wireResistance >= 0 && o.wireResistance <= math.MaxFloat64 &&
			o.writeVerifyTol >= 0 && o.writeVerifyTol < 1) {
			t.Fatalf("accepted out-of-range options: alpha %v, variation %v, cycle noise %v, wire %v, tolerance %v",
				o.alpha, o.variationPct, o.cycleNoise, o.wireResistance, o.writeVerifyTol)
		}
		sol, err := s.Solve(context.Background(), diet)
		if err != nil {
			t.Fatalf("Solve: %v", err)
		}
		if !listedStatus(sol.Status) {
			t.Fatalf("unknown status %d", int(sol.Status))
		}
	})
}

func FuzzSolve(f *testing.F) {
	le := func(v float64) []byte {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		return b[:]
	}
	// Well-formed 2x2, NaN data, +Inf data, zero dimensions, m > n, and a
	// rank-deficient repeating payload.
	f.Add(2, 2, append(append(le(1), le(2)...), le(3)...))
	f.Add(3, 3, le(math.NaN()))
	f.Add(2, 2, le(math.Inf(1)))
	f.Add(0, 4, []byte{})
	f.Add(8, 2, le(1.5))
	f.Add(4, 4, le(2))

	f.Fuzz(func(t *testing.T, mRaw, nRaw int, payload []byte) {
		m := mRaw % 9
		n := nRaw % 9
		if m < 0 {
			m = -m
		}
		if n < 0 {
			n = -n
		}
		vals := fuzzValues(payload, m*n+m+n)
		c := vals[:n]
		b := vals[n : n+m]
		rows := make([][]float64, m)
		for i := 0; i < m; i++ {
			rows[i] = vals[n+m+i*n : n+m+(i+1)*n]
		}

		p, err := NewProblem("fuzz", c, rows, b)
		if err != nil {
			if !errors.Is(err, ErrInvalid) {
				t.Fatalf("NewProblem error not typed ErrInvalid: %v", err)
			}
			return
		}

		for _, eng := range []Engine{EnginePDIPReduced, EngineSimplex, EngineCrossbar, EnginePDHG} {
			var opts []Option
			if eng != EngineSimplex {
				opts = append(opts, WithMaxIterations(40))
			}
			sol, err := Solve(p, eng, opts...)
			if err != nil {
				continue // honest failure; only panics and lies are bugs
			}
			if sol == nil {
				t.Fatalf("%v: nil solution and nil error", eng)
			}
			if !listedStatus(sol.Status) {
				t.Fatalf("%v: unknown status %d", eng, int(sol.Status))
			}
			if sol.Status == StatusOptimal {
				if math.IsNaN(sol.Objective) {
					t.Fatalf("%v: optimal with NaN objective", eng)
				}
				for _, x := range sol.X {
					if math.IsNaN(x) {
						t.Fatalf("%v: optimal with NaN solution entry", eng)
					}
				}
			}
		}
	})
}
