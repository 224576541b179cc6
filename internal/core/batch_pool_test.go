package core

import (
	"context"
	"errors"
	"testing"
	"time"

	"github.com/memlp/memlp/internal/crossbar"
	"github.com/memlp/memlp/internal/engine"
	"github.com/memlp/memlp/internal/linalg"
	"github.com/memlp/memlp/internal/lp"
	"github.com/memlp/memlp/internal/variation"
)

// noisyPoolOptions builds solver options with full stochastic hardware
// (static variation plus cycle-to-cycle write noise) and a replica factory
// that gives each shard its own variation-model clone at the base seed —
// the configuration under which pool determinism is hardest to get right.
func noisyPoolOptions(t *testing.T, parallelism int) Options {
	t.Helper()
	vm, err := variation.NewPaperModel(0.08, 42)
	if err != nil {
		t.Fatalf("NewPaperModel: %v", err)
	}
	cfg := crossbar.Config{Variation: vm, CycleNoise: 0.5}
	return Options{
		Fabric:      SingleCrossbarFactory(cfg),
		Parallelism: parallelism,
		ReplicaFabric: func(size int) (Fabric, error) {
			c := cfg
			c.Variation = vm.Clone()
			if c.Size < size {
				c.Size = size
			}
			return crossbar.New(c)
		},
	}
}

// TestSolveBatchDeterministicAcrossParallelism pins the pool's hard
// contract: with stochastic hardware enabled, batch results are bit-identical
// for every pool width, because each problem's noise draws are derived from
// (seed, problem index) rather than from whichever shard runs it.
func TestSolveBatchDeterministicAcrossParallelism(t *testing.T) {
	problems := batchProblems(t, 8)
	var ref []*engine.Result
	for _, par := range []int{1, 2, 8} {
		s, err := NewSolver(noisyPoolOptions(t, par))
		if err != nil {
			t.Fatalf("NewSolver(par=%d): %v", par, err)
		}
		results, err := s.SolveBatch(problems)
		if err != nil {
			t.Fatalf("SolveBatch(par=%d): %v", par, err)
		}
		if len(results) != len(problems) {
			t.Fatalf("par=%d: %d results, want %d", par, len(results), len(problems))
		}
		if ref == nil {
			ref = results
			continue
		}
		for i, res := range results {
			want := ref[i]
			if res.Status != want.Status {
				t.Errorf("par=%d problem %d: status %v, want %v", par, i, res.Status, want.Status)
			}
			if !linalg.Identical(res.Objective, want.Objective) {
				t.Errorf("par=%d problem %d: objective %v, want bit-identical %v", par, i, res.Objective, want.Objective)
			}
			if res.Iterations != want.Iterations {
				t.Errorf("par=%d problem %d: iterations %d, want %d", par, i, res.Iterations, want.Iterations)
			}
			for _, vec := range []struct {
				name     string
				got, ref linalg.Vector
			}{{"X", res.X, want.X}, {"Y", res.Y, want.Y}, {"W", res.W, want.W}, {"Z", res.Z, want.Z}} {
				if len(vec.got) != len(vec.ref) {
					t.Fatalf("par=%d problem %d: %s length %d, want %d", par, i, vec.name, len(vec.got), len(vec.ref))
				}
				for j := range vec.got {
					if !linalg.Identical(vec.got[j], vec.ref[j]) {
						t.Fatalf("par=%d problem %d: %s[%d] = %v, want bit-identical %v", par, i, vec.name, j, vec.got[j], vec.ref[j])
					}
				}
			}
		}
	}
}

// TestSolveBatchPoolStats checks the BatchStats roll-up: attached to the
// first result only, with the replica count and a shard-solve split that
// accounts for every problem; and that the first result's counters carry
// every replica's programming.
func TestSolveBatchPoolStats(t *testing.T) {
	problems := batchProblems(t, 6)
	solve := func(width int) []*engine.Result {
		s, err := NewSolver(noisyPoolOptions(t, width))
		if err != nil {
			t.Fatalf("NewSolver(width %d): %v", width, err)
		}
		results, err := s.SolveBatch(problems)
		if err != nil {
			t.Fatalf("SolveBatch(width %d): %v", width, err)
		}
		return results
	}
	results := solve(3)
	stats := results[0].Batch
	if stats == nil {
		t.Fatal("first result has no BatchStats")
	}
	if stats.Replicas != 3 {
		t.Errorf("Replicas = %d, want 3", stats.Replicas)
	}
	if got := len(stats.ShardSolves); got != 3 {
		t.Fatalf("len(ShardSolves) = %d, want 3", got)
	}
	total := 0
	for _, n := range stats.ShardSolves {
		total += n
	}
	if total != len(problems) {
		t.Errorf("ShardSolves sums to %d, want %d", total, len(problems))
	}
	for i, res := range results[1:] {
		if res.Batch != nil {
			t.Errorf("result %d carries BatchStats; only the first should", i+1)
		}
	}
	// The first result's counters include all replicas' programming, so two
	// more replicas add cell writes to it.
	if one := solve(1); results[0].Counters.CellWrites <= one[0].Counters.CellWrites {
		t.Errorf("first result: %d cell writes at width 3, %d at width 1; want more at width 3",
			results[0].Counters.CellWrites, one[0].Counters.CellWrites)
	}
}

// TestSolveBatchWidthClamped checks the pool never builds more replicas than
// there are problems: the programming cost of an idle shard buys nothing.
func TestSolveBatchWidthClamped(t *testing.T) {
	problems := batchProblems(t, 2)
	s, err := NewSolver(noisyPoolOptions(t, 8))
	if err != nil {
		t.Fatalf("NewSolver: %v", err)
	}
	results, err := s.SolveBatch(problems)
	if err != nil {
		t.Fatalf("SolveBatch: %v", err)
	}
	if got := results[0].Batch.Replicas; got != 2 {
		t.Errorf("Replicas = %d, want clamp to batch size 2", got)
	}
}

// TestNegativeParallelismRejected checks option validation.
func TestNegativeParallelismRejected(t *testing.T) {
	_, err := NewSolver(Options{Fabric: newIdealFabric, Parallelism: -1})
	if !errors.Is(err, lp.ErrInvalid) {
		t.Errorf("err = %v, want lp.ErrInvalid", err)
	}
}

// TestSolveBatchSharedMatrixPointer pins the validation fast path: problems
// sharing the literal matrix object must validate without an element-wise
// compare, and problems with equal-but-distinct matrices must still pass.
func TestSolveBatchSharedMatrixPointer(t *testing.T) {
	problems := batchProblems(t, 3)
	// batchProblems shares base.A across instances already; also add a
	// cloned-A instance to cover the slow path in the same batch.
	clone, err := lp.New(problems[0].Name, problems[0].C, problems[0].A.Clone(), problems[0].B)
	if err != nil {
		t.Fatal(err)
	}
	if err := validateBatch(append(problems, clone)); err != nil {
		t.Errorf("validateBatch: %v", err)
	}
}

// BenchmarkBatchValidationShared vs ...Cloned measure the satellite
// optimization: pointer-identical constraint matrices short-circuit the
// O(mn)-per-problem equality check.
func benchmarkBatchValidation(b *testing.B, share bool) {
	base, err := lp.GenerateFeasible(lp.GenConfig{Constraints: 64, Seed: 3})
	if err != nil {
		b.Fatal(err)
	}
	problems := make([]*lp.Problem, 64)
	for i := range problems {
		a := base.A
		if !share {
			a = base.A.Clone()
		}
		p, err := lp.New(base.Name, base.C, a, base.B)
		if err != nil {
			b.Fatal(err)
		}
		problems[i] = p
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := validateBatch(problems); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBatchValidationShared(b *testing.B) { benchmarkBatchValidation(b, true) }
func BenchmarkBatchValidationCloned(b *testing.B) { benchmarkBatchValidation(b, false) }

// TestSolveBatchPooledCancelShape pins the pooled cancellation contract at
// the core layer: an interrupted batch returns a prefix of completed results
// with the first interrupted problem's StatusCanceled partial last.
func TestSolveBatchPooledCancelShape(t *testing.T) {
	problems := batchProblems(t, 256)
	s, err := NewSolver(Options{Fabric: SingleCrossbarFactory(crossbar.Config{}), Parallelism: 4})
	if err != nil {
		t.Fatalf("NewSolver: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(2 * time.Millisecond)
		cancel()
	}()
	results, err := s.SolveBatchContext(ctx, problems)
	if err == nil {
		t.Skip("batch completed before cancellation landed")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(results) == len(problems) {
		t.Fatal("full batch returned despite cancellation error")
	}
	for i, res := range results {
		last := i == len(results)-1
		if last && res.Status != lp.StatusCanceled {
			t.Errorf("last result: status %v, want %v", res.Status, lp.StatusCanceled)
		}
		if !last && res.Status == lp.StatusCanceled {
			t.Errorf("result %d: canceled partial before the end of the prefix", i)
		}
	}
}
