package perf

import (
	"math"
	"strings"
	"testing"
	"time"

	"github.com/memlp/memlp/internal/crossbar"
	"github.com/memlp/memlp/internal/memristor"
	"github.com/memlp/memlp/internal/noc"
)

func TestCrossbarCostScalesWithWrites(t *testing.T) {
	tm := memristor.DefaultTiming()
	small := CrossbarCost(crossbar.Counters{CellWrites: 100}, tm)
	big := CrossbarCost(crossbar.Counters{CellWrites: 1000}, tm)
	if big.Latency != 10*small.Latency {
		t.Errorf("latency not linear in writes: %v vs %v", small.Latency, big.Latency)
	}
	if math.Abs(big.Energy-10*small.Energy) > 1e-15 {
		t.Errorf("energy not linear in writes: %v vs %v", small.Energy, big.Energy)
	}
}

func TestCrossbarCostOpsAreO1(t *testing.T) {
	// Analog ops cost settle time regardless of matrix size — the counters
	// carry no size, so cost depends only on op count.
	tm := memristor.DefaultTiming()
	a := CrossbarCost(crossbar.Counters{MatVecOps: 3, SolveOps: 2}, tm)
	want := 5 * (tm.AnalogSettleLatency + tm.AmplifierLatency)
	if a.Latency != want {
		t.Errorf("latency = %v, want %v", a.Latency, want)
	}
}

func TestCrossbarCostZeroCounters(t *testing.T) {
	e := CrossbarCost(crossbar.Counters{}, memristor.DefaultTiming())
	if e.Latency != 0 || e.Energy != 0 {
		t.Errorf("zero counters → %v", e)
	}
}

func TestSoftwareCostUsesCPUPower(t *testing.T) {
	e := SoftwareCost(2 * time.Second)
	if e.Latency != 2*time.Second {
		t.Errorf("latency = %v", e.Latency)
	}
	if math.Abs(e.Energy-2*CPUPowerWatts) > 1e-12 {
		t.Errorf("energy = %v, want %v", e.Energy, 2*CPUPowerWatts)
	}
}

func TestNoCCost(t *testing.T) {
	cfg := noc.Config{HopLatency: 5 * time.Nanosecond, HopEnergyPerElement: 0.1e-9, TileSize: 8}
	s := noc.Stats{Transfers: 10, ElementHops: 1000, SerialHops: 10 * 3}
	e := NoCCost(s, cfg)
	if e.Latency != 10*3*5*time.Nanosecond {
		t.Errorf("latency = %v", e.Latency)
	}
	if math.Abs(e.Energy-1000*0.1e-9) > 1e-18 {
		t.Errorf("energy = %v", e.Energy)
	}
}

func TestEstimateAddAndString(t *testing.T) {
	a := Estimate{Latency: time.Millisecond, Energy: 1}
	b := Estimate{Latency: 2 * time.Millisecond, Energy: 3}
	sum := a.Add(b)
	if sum.Latency != 3*time.Millisecond || sum.Energy != 4 {
		t.Errorf("Add = %v", sum)
	}
	if !strings.Contains(sum.String(), "J") {
		t.Errorf("String = %q", sum.String())
	}
}

func TestPaperScaleSanity(t *testing.T) {
	// Reconstruct the paper's headline point: m = 1024, n = 341 ⇒ the
	// per-iteration refresh is 2(n+m) rows × ~2 cells ≈ 2.7N writes. With
	// ~90 iterations the estimated solve latency should land in the tens of
	// milliseconds — the paper reports 78 ms under no variation.
	const n, m, iters = 341, 1024, 90
	writesPerIter := int64(2 * (n + m) * 2)
	c := crossbar.Counters{
		CellWrites: writesPerIter * iters,
		MatVecOps:  iters,
		SolveOps:   iters,
	}
	e := CrossbarCost(c, memristor.DefaultTiming())
	if e.Latency < 20*time.Millisecond || e.Latency > 300*time.Millisecond {
		t.Errorf("estimated latency %v outside the paper's regime (78–239 ms)", e.Latency)
	}
	if e.Energy < 0.1 || e.Energy > 50 {
		t.Errorf("estimated energy %v J outside the paper's regime (0.9–12.1 J)", e.Energy)
	}
}
