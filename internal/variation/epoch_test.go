package variation

import (
	"math/rand"
	"testing"
)

// TestCloneReplaysBaseStream checks a clone restarts the base seed's draw
// sequence from the beginning — the fabric pool relies on this so every
// replica's Program-time device factors match the original's cell for cell.
func TestCloneReplaysBaseStream(t *testing.T) {
	m, err := NewPaperModel(0.1, 11)
	if err != nil {
		t.Fatalf("NewPaperModel: %v", err)
	}
	var orig []float64
	for i := 0; i < 32; i++ {
		orig = append(orig, m.Factor())
	}
	c := m.Clone()
	for i, want := range orig {
		if got := c.Factor(); got != want {
			t.Fatalf("clone draw %d = %v, want %v", i, got, want)
		}
	}
}

// TestCloneIsIndependent checks draws on a clone do not advance the original.
func TestCloneIsIndependent(t *testing.T) {
	m, err := NewPaperModel(0.1, 11)
	if err != nil {
		t.Fatalf("NewPaperModel: %v", err)
	}
	ref, err := NewPaperModel(0.1, 11)
	if err != nil {
		t.Fatal(err)
	}
	c := m.Clone()
	for i := 0; i < 16; i++ {
		c.Factor()
	}
	for i := 0; i < 16; i++ {
		if got, want := m.Factor(), ref.Factor(); got != want {
			t.Fatalf("original draw %d = %v, want %v (perturbed by clone)", i, got, want)
		}
	}
}

// TestReseedEpochDeterministic checks the epoch stream is a pure function of
// (base seed, epoch): same epoch replays, different epochs and different base
// seeds diverge.
func TestReseedEpochDeterministic(t *testing.T) {
	draw := func(seed, epoch int64, n int) []float64 {
		m, err := NewPaperModel(0.1, seed)
		if err != nil {
			t.Fatalf("NewPaperModel: %v", err)
		}
		m.ReseedEpoch(epoch)
		out := make([]float64, n)
		for i := range out {
			out[i] = m.Factor()
		}
		return out
	}
	a := draw(5, 3, 16)
	b := draw(5, 3, 16)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same (seed, epoch) diverged at draw %d", i)
		}
	}
	c := draw(5, 4, 16)
	d := draw(6, 3, 16)
	sameC, sameD := true, true
	for i := range a {
		sameC = sameC && a[i] == c[i]
		sameD = sameD && a[i] == d[i]
	}
	if sameC {
		t.Error("different epochs produced an identical stream")
	}
	if sameD {
		t.Error("different base seeds produced an identical epoch stream")
	}
}

// TestReseedEpochErasesPosition checks ReseedEpoch discards however many
// draws were already consumed — a reused replica and a fresh one land on the
// same stream position.
func TestReseedEpochErasesPosition(t *testing.T) {
	fresh, err := NewPaperModel(0.1, 9)
	if err != nil {
		t.Fatal(err)
	}
	used, err := NewPaperModel(0.1, 9)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		used.Factor()
	}
	fresh.ReseedEpoch(7)
	used.ReseedEpoch(7)
	for i := 0; i < 16; i++ {
		if got, want := used.Factor(), fresh.Factor(); got != want {
			t.Fatalf("draw %d = %v, want %v (history leaked through reseed)", i, got, want)
		}
	}
}

// TestReseedEpochInPlace checks a reseed restarts the stream in place: the
// draws after it are those of a new source seeded with mixEpoch(seed, epoch),
// for every distribution, and the call allocates nothing.
func TestReseedEpochInPlace(t *testing.T) {
	for _, dist := range []Distribution{Uniform, Gaussian, Lognormal} {
		m, err := NewModel(dist, 0.1, 17)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 37; i++ {
			m.Factor()
		}
		m.ReseedEpoch(5)
		want := &Model{dist: dist, magnitude: 0.1, seed: 17, rng: rand.New(rand.NewSource(mixEpoch(17, 5)))}
		for i := 0; i < 1000; i++ {
			if got, w := m.Factor(), want.Factor(); got != w {
				t.Fatalf("%v: draw %d = %v, want %v", dist, i, got, w)
			}
		}
		epoch := int64(0)
		if a := testing.AllocsPerRun(100, func() { epoch++; m.ReseedEpoch(epoch) }); a != 0 {
			t.Errorf("%v: ReseedEpoch allocates %v times per call, want 0", dist, a)
		}
	}
}

// TestSeedAccessor pins the stored base seed.
func TestSeedAccessor(t *testing.T) {
	m, err := NewPaperModel(0.1, 23)
	if err != nil {
		t.Fatal(err)
	}
	if m.seed != 23 {
		t.Errorf("seed = %d, want 23", m.seed)
	}
	if m.Clone().seed != 23 {
		t.Errorf("Clone().seed = %d, want 23", m.Clone().seed)
	}
}
