package serve

import (
	"context"
	"sync"

	"github.com/memlp/memlp"
)

// solverPool hands out reusable *memlp.Solver handles for one (engine,
// options) key. Handles are built lazily up to max and then recycled through
// a buffered channel; acquire blocks (context-aware) once the pool is at
// capacity with every handle checked out. A Solver serializes solves on its
// own mutex, so pooling N handles is what actually lets N requests with the
// same key make progress concurrently.
type solverPool struct {
	build func() (*memlp.Solver, error)
	slots chan *memlp.Solver

	mu      sync.Mutex
	created int //memlp:guardedby mu
	max     int // immutable after construction
}

func newSolverPool(max int, build func() (*memlp.Solver, error)) *solverPool {
	if max < 1 {
		max = 1
	}
	return &solverPool{build: build, slots: make(chan *memlp.Solver, max), max: max}
}

// acquire returns an idle handle, builds a fresh one while under capacity,
// or waits for a release. The ctx error is returned if the caller gives up
// first.
func (p *solverPool) acquire(ctx context.Context) (*memlp.Solver, error) {
	select {
	case s := <-p.slots:
		return s, nil
	default:
	}
	p.mu.Lock()
	if p.created < p.max {
		p.created++
		p.mu.Unlock()
		s, err := p.build()
		if err != nil {
			p.mu.Lock()
			p.created--
			p.mu.Unlock()
			return nil, err
		}
		return s, nil
	}
	p.mu.Unlock()
	select {
	case s := <-p.slots:
		return s, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// release returns a handle to the pool. Every successful acquire must be
// paired with exactly one release (deferred, so cancellations cannot leak
// replicas).
func (p *solverPool) release(s *memlp.Solver) {
	if s == nil {
		return
	}
	p.slots <- s
}
