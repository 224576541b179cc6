package core

import (
	"errors"
	"math"
	"testing"

	"github.com/memlp/memlp/internal/crossbar"
	"github.com/memlp/memlp/internal/linalg"
	"github.com/memlp/memlp/internal/lp"
	"github.com/memlp/memlp/internal/pdip"
	"github.com/memlp/memlp/internal/variation"
)

// batchProblems builds k instances sharing A with varying b and c.
func batchProblems(t *testing.T, k int) []*lp.Problem {
	t.Helper()
	base, err := lp.GenerateFeasible(lp.GenConfig{Constraints: 12, Seed: 3})
	if err != nil {
		t.Fatalf("GenerateFeasible: %v", err)
	}
	out := make([]*lp.Problem, 0, k)
	for i := 0; i < k; i++ {
		b := base.B.Clone()
		c := base.C.Clone()
		for j := range b {
			b[j] *= 1 + 0.1*float64(i)
		}
		for j := range c {
			c[j] *= 1 + 0.05*float64(i)
		}
		p, err := lp.New(base.Name, c, base.A, b)
		if err != nil {
			t.Fatalf("lp.New: %v", err)
		}
		out = append(out, p)
	}
	return out
}

func TestSolveBatchMatchesIndividualSolves(t *testing.T) {
	problems := batchProblems(t, 4)
	s, err := NewSolver(Options{Fabric: SingleCrossbarFactory(crossbar.Config{})})
	if err != nil {
		t.Fatalf("NewSolver: %v", err)
	}
	results, err := s.SolveBatch(problems)
	if err != nil {
		t.Fatalf("SolveBatch: %v", err)
	}
	if len(results) != len(problems) {
		t.Fatalf("results = %d, want %d", len(results), len(problems))
	}
	ref, err := pdip.New(pdip.WithBackend(pdip.NewtonReduced))
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range results {
		if res.Status != lp.StatusOptimal {
			t.Errorf("instance %d: status %v", i, res.Status)
			continue
		}
		want, err := ref.Solve(problems[i])
		if err != nil {
			t.Fatal(err)
		}
		if rel := math.Abs(res.Objective-want.Objective) / (1 + math.Abs(want.Objective)); rel > 0.05 {
			t.Errorf("instance %d: objective %v, want %v", i, res.Objective, want.Objective)
		}
	}
}

func TestSolveBatchAmortizesProgramming(t *testing.T) {
	// Large instance, short iteration budget: programming cost dominates,
	// so the amortization is visible in the write counters.
	base, err := lp.GenerateFeasible(lp.GenConfig{Constraints: 48, Seed: 5})
	if err != nil {
		t.Fatalf("GenerateFeasible: %v", err)
	}
	problems := make([]*lp.Problem, 3)
	for i := range problems {
		b := base.B.Clone()
		for j := range b {
			b[j] *= 1 + 0.05*float64(i)
		}
		p, err := lp.New(base.Name, base.C, base.A, b)
		if err != nil {
			t.Fatal(err)
		}
		problems[i] = p
	}
	s, err := NewSolver(Options{
		Fabric: SingleCrossbarFactory(crossbar.Config{}),
		Tol:    lp.Tolerances{MaxIterations: 5},
	})
	if err != nil {
		t.Fatalf("NewSolver: %v", err)
	}
	results, err := s.SolveBatch(problems)
	if err != nil {
		t.Fatalf("SolveBatch: %v", err)
	}
	// The counters are cumulative on the shared fabric: the marginal writes
	// of instance 3 must be far below the initial programming cost
	// (O(N) refreshes per iteration vs nnz programming).
	first := results[0].Counters.CellWrites
	marginal := results[2].Counters.CellWrites - results[1].Counters.CellWrites
	if marginal >= first/2 {
		t.Errorf("batch did not amortize: first solve %d writes, marginal %d", first, marginal)
	}
}

func TestSolveBatchValidation(t *testing.T) {
	s, err := NewSolver(Options{Fabric: newIdealFabric})
	if err != nil {
		t.Fatalf("NewSolver: %v", err)
	}
	if _, err := s.SolveBatch(nil); !errors.Is(err, lp.ErrInvalid) {
		t.Errorf("empty batch: %v", err)
	}
	problems := batchProblems(t, 2)
	other, err := lp.GenerateFeasible(lp.GenConfig{Constraints: 12, Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.SolveBatch([]*lp.Problem{problems[0], other}); !errors.Is(err, lp.ErrInvalid) {
		t.Errorf("mismatched A: %v", err)
	}
	bad := &lp.Problem{A: problems[0].A, C: linalg.VectorOf(1), B: problems[0].B}
	if _, err := s.SolveBatch([]*lp.Problem{problems[0], bad}); !errors.Is(err, lp.ErrInvalid) {
		t.Errorf("invalid problem: %v", err)
	}
}

// rowNormalized returns p with every row of [A | b] divided by the row's
// largest |a|, so the batch's row scales are exactly 1.
func rowNormalized(t *testing.T, p *lp.Problem) *lp.Problem {
	t.Helper()
	a := p.A.Clone()
	b := p.B.Clone()
	for i := range b {
		var mx float64
		for _, v := range a.RawRow(i) {
			mx = math.Max(mx, math.Abs(v))
		}
		row := a.RawRow(i)
		for j := range row {
			row[j] /= mx
		}
		b[i] /= mx
	}
	q, err := lp.New(p.Name, p.C, a, b)
	if err != nil {
		t.Fatalf("lp.New: %v", err)
	}
	return q
}

// TestBatchOfOneMatchesSingleSolve pins that the single and the batch path
// run the same Algorithm 1 arithmetic: on an LP whose rows are already
// normalized (so the batch's row scaling divides by exactly 1), a batch of
// one returns the single solve's answer bit for bit, in both residual
// modes. Each solve gets a fresh solver whose fabrics realize the same
// static device variation.
func TestBatchOfOneMatchesSingleSolve(t *testing.T) {
	fabric := func(size int) (Fabric, error) {
		vm, err := variation.NewPaperModel(0.05, 1)
		if err != nil {
			return nil, err
		}
		return crossbar.New(crossbar.Config{Size: size, Variation: vm})
	}
	opts := Options{Fabric: fabric, ReplicaFabric: fabric, Parallelism: 1}
	for _, analog := range []bool{false, true} {
		opts.AnalogResidual = analog
		for seed := int64(1); seed <= 20; seed++ {
			g, err := lp.GenerateFeasible(lp.GenConfig{Constraints: 24, Variables: 8, Seed: seed})
			if err != nil {
				t.Fatalf("GenerateFeasible: %v", err)
			}
			p := rowNormalized(t, g)
			single, err := NewSolver(opts)
			if err != nil {
				t.Fatal(err)
			}
			want, err := single.Solve(p)
			if err != nil {
				t.Fatalf("analog=%v seed %d: Solve: %v", analog, seed, err)
			}
			batch, err := NewSolver(opts)
			if err != nil {
				t.Fatal(err)
			}
			results, err := batch.SolveBatch([]*lp.Problem{p})
			if err != nil {
				t.Fatalf("analog=%v seed %d: SolveBatch: %v", analog, seed, err)
			}
			got := results[0]
			if got.Status != want.Status || got.Iterations != want.Iterations || !linalg.Identical(got.Objective, want.Objective) {
				t.Errorf("analog=%v seed %d: batch %v after %d iterations, objective %v; single %v after %d, objective %v",
					analog, seed, got.Status, got.Iterations, got.Objective, want.Status, want.Iterations, want.Objective)
				continue
			}
			for _, v := range []struct {
				name      string
				got, want linalg.Vector
			}{{"X", got.X, want.X}, {"Y", got.Y, want.Y}, {"W", got.W, want.W}, {"Z", got.Z, want.Z}} {
				if len(v.got) != len(v.want) {
					t.Fatalf("analog=%v seed %d: %s length %d, want %d", analog, seed, v.name, len(v.got), len(v.want))
				}
				for i := range v.got {
					if !linalg.Identical(v.got[i], v.want[i]) {
						t.Errorf("analog=%v seed %d: %s[%d] = %v, single solve %v", analog, seed, v.name, i, v.got[i], v.want[i])
						break
					}
				}
			}
		}
	}
}
