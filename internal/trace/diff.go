package trace

import (
	"fmt"
	"math"
	"strconv"

	"github.com/memlp/memlp/internal/linalg"
)

// maxDiffLines caps Diff output so a wholly-divergent trace still prints a
// readable report instead of thousands of lines.
const maxDiffLines = 20

// Diff compares two traces field by field and returns one human-readable
// line per mismatch (empty means equal). Float fields compare with
// linalg.EqTol at tol when tol > 0; tol <= 0 demands bit-exact equality
// (linalg.Identical) — the mode the width-determinism tests use. NaN is
// equal to NaN in both modes: a pinned failed attempt must keep matching
// its golden NaN residuals.
//
//memlpvet:ignore deadexport the golden-trace and determinism tests of the root, pdhg and serve packages share this comparator
func Diff(got, want []Record, tol float64) []string {
	var out []string
	more := 0
	add := func(format string, args ...interface{}) {
		if len(out) < maxDiffLines {
			out = append(out, fmt.Sprintf(format, args...))
		} else {
			more++
		}
	}

	if len(got) != len(want) {
		add("trace length: got %d records, want %d", len(got), len(want))
	}
	n := len(got)
	if len(want) < n {
		n = len(want)
	}
	for i := 0; i < n; i++ {
		g, w := got[i], want[i]
		pre := fmt.Sprintf("trace[%d] (%s/%s)", i, w.Event, w.Engine)
		if g.Engine != w.Engine {
			add("%s engine: got %q want %q", pre, g.Engine, w.Engine)
		}
		if g.Problem != w.Problem {
			add("%s problem: got %d want %d", pre, g.Problem, w.Problem)
		}
		if g.Attempt != w.Attempt {
			add("%s attempt: got %d want %d", pre, g.Attempt, w.Attempt)
		}
		if g.Iteration != w.Iteration {
			add("%s iteration: got %d want %d", pre, g.Iteration, w.Iteration)
		}
		if g.Event != w.Event {
			add("%s event: got %q want %q", pre, g.Event, w.Event)
		}
		if g.Status != w.Status {
			add("%s status: got %q want %q", pre, g.Status, w.Status)
		}
		if g.Stop != w.Stop {
			add("%s stop: got %q want %q", pre, g.Stop, w.Stop)
		}
		diffFloat(add, pre, "mu", g.Mu, w.Mu, tol)
		diffFloat(add, pre, "gap", g.DualityGap, w.DualityGap, tol)
		diffFloat(add, pre, "pinf", g.PrimalInfeasibility, w.PrimalInfeasibility, tol)
		diffFloat(add, pre, "dinf", g.DualInfeasibility, w.DualInfeasibility, tol)
		diffFloat(add, pre, "cone_inf", g.ConeInfeasibility, w.ConeInfeasibility, tol)
		diffFloat(add, pre, "theta", g.Theta, w.Theta, tol)
		diffFloat(add, pre, "objective", g.Objective, w.Objective, tol)
		if g.WriteRetries != w.WriteRetries {
			add("%s write_retries: got %d want %d", pre, g.WriteRetries, w.WriteRetries)
		}
		if g.TilesRefreshed != w.TilesRefreshed {
			add("%s tiles_refreshed: got %d want %d", pre, g.TilesRefreshed, w.TilesRefreshed)
		}
		if g.NoiseEpoch != w.NoiseEpoch {
			add("%s noise_epoch: got %d want %d", pre, g.NoiseEpoch, w.NoiseEpoch)
		}
		diffFloat(add, pre, "energy_joules", g.EnergyJoules, w.EnergyJoules, tol)
	}
	if more > 0 {
		out = append(out, fmt.Sprintf("... and %d more mismatches", more))
	}
	return out
}

func diffFloat(add func(string, ...interface{}), pre, field string, got, want, tol float64) {
	if math.IsNaN(got) && math.IsNaN(want) {
		return
	}
	if tol > 0 {
		if linalg.EqTol(got, want, tol) {
			return
		}
	} else if linalg.Identical(got, want) {
		return
	}
	add("%s %s: got %s want %s", pre, field,
		strconv.FormatFloat(got, 'g', -1, 64), strconv.FormatFloat(want, 'g', -1, 64))
}
