package crossbar

import (
	"testing"

	"github.com/memlp/memlp/internal/linalg"
	"github.com/memlp/memlp/internal/memristor"
	"github.com/memlp/memlp/internal/variation"
)

// noisyPair builds two crossbars with independent variation-model clones at
// the same base seed — the fabric pool's replica construction — and programs
// the same matrix into both.
func noisyPair(t *testing.T, cfg Config, a *linalg.Matrix) (*Crossbar, *Crossbar) {
	t.Helper()
	vm, err := variation.NewPaperModel(0.1, 7)
	if err != nil {
		t.Fatalf("NewPaperModel: %v", err)
	}
	build := func() *Crossbar {
		c := cfg
		c.Variation = vm.Clone()
		x, err := New(c)
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		if err := x.Program(a); err != nil {
			t.Fatalf("Program: %v", err)
		}
		return x
	}
	return build(), build()
}

func epochTestMatrix() *linalg.Matrix {
	a := linalg.NewMatrix(4, 4)
	vals := [][]float64{
		{2, 0, 1, 0},
		{0, 3, 0, 0.5},
		{1, 0, 4, 0},
		{0, 0.5, 0, 5},
	}
	for i := range vals {
		for j, v := range vals[i] {
			a.Set(i, j, v)
		}
	}
	return a
}

// effectiveMatrix composes the matrix x realizes from its EffectiveRow
// rows.
func effectiveMatrix(x *Crossbar) *linalg.Matrix {
	out := linalg.NewMatrix(x.rows, x.cols)
	var p linalg.Pattern
	p.Start(x.rows, 0)
	for i := 0; i < x.rows; i++ {
		x.EffectiveRow(i, out.RawRow(i), 0, &p)
		p.EndRow(i)
	}
	return out
}

func requireIdenticalMatrices(t *testing.T, got, want *linalg.Matrix, label string) {
	t.Helper()
	for i := 0; i < want.Rows(); i++ {
		for j := 0; j < want.Cols(); j++ {
			if !linalg.Identical(got.At(i, j), want.At(i, j)) {
				t.Fatalf("%s: cell (%d,%d) = %v, want bit-identical %v", label, i, j, got.At(i, j), want.At(i, j))
			}
		}
	}
}

// TestSetNoiseEpochErasesHistory pins the pool's determinism mechanism: a
// crossbar with an arbitrary write history, once rebased to epoch k, realizes
// the same conductances from a row rewrite as a freshly programmed replica
// rebased to the same epoch — so the batch member's result cannot depend on
// what its shard solved before.
func TestSetNoiseEpochErasesHistory(t *testing.T) {
	a := epochTestMatrix()
	used, fresh := noisyPair(t, Config{Size: 4, CycleNoise: 0.5}, a)

	// Give one replica a divergent history: other epochs, other row writes.
	used.SetNoiseEpoch(0)
	if err := used.UpdateRow(1, linalg.VectorOf(0, 7, 0, 1)); err != nil {
		t.Fatalf("history UpdateRow: %v", err)
	}
	used.SetNoiseEpoch(1)
	if err := used.UpdateRow(2, linalg.VectorOf(2, 0, 6, 0)); err != nil {
		t.Fatalf("history UpdateRow: %v", err)
	}

	// Rebase both to the same epoch and perform the same rewrites.
	row1 := linalg.VectorOf(0, 9, 0, 2)
	row2 := linalg.VectorOf(3, 0, 8, 0)
	for _, x := range []*Crossbar{used, fresh} {
		x.SetNoiseEpoch(5)
		if err := x.UpdateRow(1, row1); err != nil {
			t.Fatalf("UpdateRow: %v", err)
		}
		if err := x.UpdateRow(2, row2); err != nil {
			t.Fatalf("UpdateRow: %v", err)
		}
	}

	requireIdenticalMatrices(t, effectiveMatrix(used), effectiveMatrix(fresh), "used vs fresh replica after shared epoch")
}

// TestSetNoiseEpochReproducible checks the same epoch always yields the same
// draws on one array: rebase, rewrite, snapshot; diverge; rebase to the same
// epoch, rewrite identically — the realized conductances must repeat.
func TestSetNoiseEpochReproducible(t *testing.T) {
	a := epochTestMatrix()
	x, _ := noisyPair(t, Config{Size: 4, CycleNoise: 0.5}, a)

	row := linalg.VectorOf(0, 9, 0, 2)
	x.SetNoiseEpoch(3)
	if err := x.UpdateRow(1, row); err != nil {
		t.Fatalf("UpdateRow: %v", err)
	}
	first := effectiveMatrix(x)

	// Diverge, then replay the epoch.
	x.SetNoiseEpoch(9)
	if err := x.UpdateRow(1, linalg.VectorOf(0, 4, 0, 1)); err != nil {
		t.Fatalf("UpdateRow: %v", err)
	}
	x.SetNoiseEpoch(3)
	if err := x.UpdateRow(1, row); err != nil {
		t.Fatalf("UpdateRow: %v", err)
	}
	requireIdenticalMatrices(t, effectiveMatrix(x), first, "replayed epoch")
}

// TestSetNoiseEpochCoversWriteNoiseFaults extends the history-erasure check
// to the fault model's write-noise path (writeSeq-hashed noise rather than
// the variation RNG stream).
func TestSetNoiseEpochCoversWriteNoiseFaults(t *testing.T) {
	a := epochTestMatrix()
	fm := &memristor.FaultModel{WriteNoise: 0.05, Seed: 3}
	build := func() *Crossbar {
		x, err := New(Config{Size: 4, Faults: fm})
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		if err := x.Program(a); err != nil {
			t.Fatalf("Program: %v", err)
		}
		return x
	}
	used, fresh := build(), build()
	used.SetNoiseEpoch(0)
	if err := used.UpdateRow(0, linalg.VectorOf(5, 0, 2, 0)); err != nil {
		t.Fatalf("history UpdateRow: %v", err)
	}

	row := linalg.VectorOf(7, 0, 3, 0)
	for _, x := range []*Crossbar{used, fresh} {
		x.SetNoiseEpoch(2)
		if err := x.UpdateRow(0, row); err != nil {
			t.Fatalf("UpdateRow: %v", err)
		}
	}
	requireIdenticalMatrices(t, effectiveMatrix(used), effectiveMatrix(fresh), "write-noise epoch rebase")
}

// TestSetNoiseEpochNoiseFreeNoop checks a deterministic crossbar (no
// variation, no fault noise) is unaffected: same effective matrix before and
// after an epoch change.
func TestSetNoiseEpochNoiseFreeNoop(t *testing.T) {
	a := epochTestMatrix()
	x, err := New(Config{Size: 4})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := x.Program(a); err != nil {
		t.Fatalf("Program: %v", err)
	}
	before := effectiveMatrix(x)
	x.SetNoiseEpoch(4)
	requireIdenticalMatrices(t, effectiveMatrix(x), before, "noise-free epoch change")
}
