package memlp

import (
	"context"
	"math"
	"testing"
	"time"
)

// nocPrice is one pinned hardware estimate: the latency in nanoseconds and
// the bits of the energy in joules.
type nocPrice struct {
	ns     int64
	energy uint64
}

func priceOf(hw *HardwareEstimate) nocPrice {
	return nocPrice{hw.Latency.Nanoseconds(), math.Float64bits(hw.EnergyJoules)}
}

// TestNoCPricesPinned pins, bit for bit, the hardware estimate a WithNoC
// handle reports: Algorithm 1 and 2 sequences whose problem size changes on
// one handle (so fabrics are built, reused and re-gridded), PDHG on a
// multi-block grid, and the totals of a pooled batch. The batch pins its
// total rather than each member, because how a batch's transfers are split
// among its members is an attribution, not a price.
func TestNoCPricesPinned(t *testing.T) {
	ctx := context.Background()
	var seq []*Problem
	for _, m := range []int{9, 15, 9, 9} {
		p, err := GenerateFeasible(m, 0, 5)
		if err != nil {
			t.Fatal(err)
		}
		seq = append(seq, p)
	}
	for _, tc := range []struct {
		name string
		eng  Engine
		topo string
		want []nocPrice
	}{
		{"crossbar/mesh", EngineCrossbar, "mesh", []nocPrice{
			{55109, 0x3f3f715496014c17}, {145500, 0x3f4cd0ec2e4b73c5},
			{56700, 0x3f3fde9fce8b14a6}, {56230, 0x3f3f838a6dea84bd}}},
		{"crossbar/hierarchical", EngineCrossbar, "hierarchical", []nocPrice{
			{49559, 0x3f3f76db5922a02f}, {106375, 0x3f4ccb12869712be},
			{50730, 0x3f3fe492cd5dd27f}, {50260, 0x3f3f897d6cbd4296}}},
		{"large-scale/mesh", EngineCrossbarLargeScale, "mesh", []nocPrice{
			{243005, 0x3f6491e40ada6332}, {1119445, 0x3f84c289797c47ee},
			{254505, 0x3f658281d1b1200e}, {347125, 0x3f6cd4053f1de6e0}}},
		{"large-scale/hierarchical", EngineCrossbarLargeScale, "hierarchical", []nocPrice{
			{235145, 0x3f6492470a9899c5}, {1023665, 0x3f84c51014f60657},
			{246165, 0x3f6582ead4c04e48}, {334105, 0x3f6cd4a8e28283b8}}},
	} {
		s, err := NewSolver(tc.eng, WithNoC(tc.topo, 16), WithVariation(0.05))
		if err != nil {
			t.Fatal(err)
		}
		for i, p := range seq {
			sol, err := s.Solve(ctx, p)
			if err != nil {
				t.Fatalf("%s solve %d: %v", tc.name, i, err)
			}
			if got := priceOf(sol.Hardware); got != tc.want[i] {
				t.Errorf("%s solve %d: price = %#v, want %#v", tc.name, i, got, tc.want[i])
			}
		}
	}

	pdhgProblem, err := GenerateFeasible(15, 0, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		topo string
		want nocPrice
	}{
		{"mesh", nocPrice{135925250, 0x3ff6af70e5456997}},
		{"hierarchical", nocPrice{129365250, 0x3ff6af97968a1aa1}},
	} {
		sol, err := Solve(pdhgProblem, EnginePDHG, WithNoC(tc.topo, 4), WithVariation(0.05))
		if err != nil {
			t.Fatalf("pdhg/%s: %v", tc.topo, err)
		}
		if got := priceOf(sol.Hardware); got != tc.want {
			t.Errorf("pdhg/%s: price = %#v, want %#v", tc.topo, got, tc.want)
		}
	}

	for _, tc := range []struct {
		topo   string
		ns     int64
		energy float64
	}{
		{"mesh", 197902, 0.0015283866399999999},
		{"hierarchical", 171082, 0.0015299344399999999},
	} {
		s, err := NewSolver(EngineCrossbar, WithNoC(tc.topo, 16), WithParallelism(2))
		if err != nil {
			t.Fatal(err)
		}
		sols, err := s.SolveBatch(ctx, poolBatch(t, 4, 9, 3))
		if err != nil {
			t.Fatalf("batch/%s: %v", tc.topo, err)
		}
		var lat time.Duration
		var energy float64
		for _, sol := range sols {
			lat += sol.Hardware.Latency
			energy += sol.Hardware.EnergyJoules
		}
		if lat.Nanoseconds() != tc.ns {
			t.Errorf("batch/%s: total latency = %d ns, want %d", tc.topo, lat.Nanoseconds(), tc.ns)
		}
		// Members' energies summed in another grouping round differently,
		// so the total is held to a relative 1e-12, not to its bits.
		if math.Abs(energy-tc.energy) > 1e-12*tc.energy {
			t.Errorf("batch/%s: total energy = %.17g J, want %.17g", tc.topo, energy, tc.energy)
		}
	}
}
