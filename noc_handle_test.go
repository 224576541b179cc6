package memlp

import (
	"context"
	"sync"
	"testing"
)

// capturedFabrics reports how many tiled fabrics a WithNoC handle holds for
// transfer pricing.
func capturedFabrics(s *Solver) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.nocFabrics)
}

// TestNoCHandleKeepsOnlyLiveFabrics pins the NoC bookkeeping of a reusable
// handle: it holds only the tiled fabrics its engine can still drive (one
// for Algorithm 1, two for Algorithm 2), so repeated batches and size
// changes do not grow it, while identical work is still priced identically.
func TestNoCHandleKeepsOnlyLiveFabrics(t *testing.T) {
	ctx := context.Background()
	small, err := GenerateFeasible(9, 0, 5)
	if err != nil {
		t.Fatal(err)
	}
	large, err := GenerateFeasible(15, 0, 5)
	if err != nil {
		t.Fatal(err)
	}

	s, err := NewSolver(EngineCrossbar, WithNoC("mesh", 16), WithParallelism(2))
	if err != nil {
		t.Fatal(err)
	}
	batch := poolBatch(t, 4, 9, 3)
	var first HardwareEstimate
	for i := 0; i < 5; i++ {
		sols, err := s.SolveBatch(ctx, batch)
		if err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
		hw := *sols[0].Hardware
		if i == 0 {
			first = hw
		} else if hw != first {
			t.Errorf("batch %d: first Hardware = %+v, want %+v", i, hw, first)
		}
		if n := capturedFabrics(s); n > 1 {
			t.Errorf("after batch %d: %d fabrics captured, want at most 1", i, n)
		}
	}

	for _, tc := range []struct {
		engine Engine
		live   int
	}{{EngineCrossbar, 1}, {EngineCrossbarLargeScale, 2}} {
		s := s
		if tc.engine != EngineCrossbar {
			if s, err = NewSolver(tc.engine, WithNoC("mesh", 16)); err != nil {
				t.Fatal(err)
			}
		}
		priced := map[*Problem]HardwareEstimate{}
		for i, p := range []*Problem{small, large, small, large, small} {
			sol, err := s.Solve(ctx, p)
			if err != nil {
				t.Fatalf("%v solve %d: %v", tc.engine, i, err)
			}
			if want, ok := priced[p]; ok && *sol.Hardware != want {
				t.Errorf("%v solve %d: Hardware = %+v, want %+v", tc.engine, i, *sol.Hardware, want)
			}
			priced[p] = *sol.Hardware
			if n := capturedFabrics(s); n > tc.live {
				t.Errorf("%v after solve %d: %d fabrics captured, want at most %d", tc.engine, i, n, tc.live)
			}
		}
	}
}

// TestNoCHandleConcurrent mixes solves of two sizes and batches on one NoC
// handle from several goroutines: under -race it pins that the fabric
// bookkeeping is safe behind the handle's lock, and the bound still holds.
func TestNoCHandleConcurrent(t *testing.T) {
	ctx := context.Background()
	small, err := GenerateFeasible(9, 0, 5)
	if err != nil {
		t.Fatal(err)
	}
	large, err := GenerateFeasible(15, 0, 5)
	if err != nil {
		t.Fatal(err)
	}
	batch := poolBatch(t, 3, 9, 3)
	s, err := NewSolver(EngineCrossbar, WithNoC("mesh", 16), WithParallelism(2))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 3; i++ {
				var err error
				switch (g + i) % 3 {
				case 0:
					_, err = s.Solve(ctx, small)
				case 1:
					_, err = s.Solve(ctx, large)
				default:
					_, err = s.SolveBatch(ctx, batch)
				}
				if err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if n := capturedFabrics(s); n > 1 {
		t.Errorf("%d fabrics captured after concurrent use, want at most 1", n)
	}
}
