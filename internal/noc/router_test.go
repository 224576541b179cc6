package noc

import (
	"errors"
	"testing"
	"time"
)

func mustRouter(t *testing.T, cfg Config, gridR, gridC int) *Router {
	t.Helper()
	r, err := NewRouter(cfg, gridR, gridC)
	if err != nil {
		t.Fatalf("NewRouter: %v", err)
	}
	return r
}

// TestMeshLatencyMonotoneInManhattanDistance pins the mesh routing model:
// a transfer to block (br, bc) costs 1 + br + bc hops, so its latency
// (hops × per-hop latency) must grow strictly with Manhattan distance from
// the controller corner and be equal along every anti-diagonal.
func TestMeshLatencyMonotoneInManhattanDistance(t *testing.T) {
	const hop = 3 * time.Nanosecond
	r := mustRouter(t, Config{Topology: Mesh, HopLatency: hop}, 4, 4)

	byDistance := map[int]time.Duration{}
	for br := 0; br < 4; br++ {
		for bc := 0; bc < 4; bc++ {
			dist := br + bc
			got := time.Duration(r.Hops(br, bc)) * r.Config().HopLatency
			if want := time.Duration(1+dist) * hop; got != want {
				t.Errorf("latency(%d,%d) = %v, want %v (1+%d hops)", br, bc, got, want, dist)
			}
			if prev, ok := byDistance[dist]; ok && prev != got {
				t.Errorf("blocks at distance %d disagree: %v vs %v", dist, prev, got)
			}
			byDistance[dist] = got
		}
	}
	for dist := 1; dist <= 6; dist++ {
		if byDistance[dist] <= byDistance[dist-1] {
			t.Errorf("latency not strictly increasing: dist %d → %v, dist %d → %v",
				dist-1, byDistance[dist-1], dist, byDistance[dist])
		}
	}
}

func TestHierarchicalHopsUniform(t *testing.T) {
	// 16 blocks: quad-tree depth ⌈log₄ 16⌉ = 2, so every block is 3 hops out.
	r := mustRouter(t, Config{Topology: Hierarchical}, 4, 4)
	for br := 0; br < 4; br++ {
		for bc := 0; bc < 4; bc++ {
			if got := r.Hops(br, bc); got != 3 {
				t.Errorf("Hops(%d,%d) = %d, want 3", br, bc, got)
			}
		}
	}
}

func TestRouterValidation(t *testing.T) {
	if _, err := NewRouter(Config{}, 0, 1); !errors.Is(err, ErrBadConfig) {
		t.Errorf("grid 0x1: %v, want ErrBadConfig", err)
	}
	if _, err := NewRouter(Config{}, 1, -1); !errors.Is(err, ErrBadConfig) {
		t.Errorf("grid 1x-1: %v, want ErrBadConfig", err)
	}
	if _, err := NewRouter(Config{Topology: Topology(9)}, 1, 1); !errors.Is(err, ErrBadConfig) {
		t.Errorf("bad topology: %v, want ErrBadConfig", err)
	}
}

func TestRouterAppliesDefaults(t *testing.T) {
	r := mustRouter(t, Config{}, 1, 1)
	cfg := r.Config()
	if cfg.Topology != Hierarchical || cfg.TileSize != 512 || cfg.HopLatency <= 0 {
		t.Errorf("defaults not applied: %+v", cfg)
	}
}

func TestRouterScatterGatherAccounting(t *testing.T) {
	r := mustRouter(t, Config{Topology: Mesh}, 2, 2)
	r.Scatter(0, 0, 10) // 1 hop
	r.Gather(1, 1, 5)   // 3 hops
	s := r.Stats()
	if s.Transfers != 2 {
		t.Errorf("Transfers = %d, want 2", s.Transfers)
	}
	if want := int64(10*1 + 5*3); s.ElementHops != want {
		t.Errorf("ElementHops = %d, want %d", s.ElementHops, want)
	}
	// Both transfers are charged the grid's worst case, 3 hops to (1, 1).
	if s.SerialHops != 2*3 {
		t.Errorf("SerialHops = %d, want 6", s.SerialHops)
	}
}
