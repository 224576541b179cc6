package noc

import (
	"fmt"
	"math"
)

// Router is the NoC's transfer ledger: it prices each vector scatter and
// gather on a tile grid and accumulates them as Stats. Every TiledFabric
// keeps one for its tiles.
//
// Accounting is keyed by canonical block coordinates (the block's position
// in the tile grid of the matrix), NOT by which worker goroutine happens to
// execute the block. That makes the modeled latency and energy a pure
// function of the problem's tiling, so trace records stay bit-identical
// across worker-grid shapes (the PDHG determinism contract).
type Router struct {
	cfg Config
	// worst is the longest controller-to-block path of the grid, in hops,
	// fixed when the grid is set.
	worst int
	stats Stats
}

// NewRouter returns a router for a gridR×gridC canonical block grid.
func NewRouter(cfg Config, gridR, gridC int) (*Router, error) {
	cfg, err := cfg.Resolve()
	if err != nil {
		return nil, err
	}
	if gridR < 1 || gridC < 1 {
		return nil, fmt.Errorf("%w: router grid %dx%d", ErrBadConfig, gridR, gridC)
	}
	r := &Router{cfg: cfg}
	r.setGrid(gridR, gridC)
	return r, nil
}

// setGrid moves the router onto a gridR×gridC grid; its stats carry over.
func (r *Router) setGrid(gridR, gridC int) {
	switch tiles := gridR * gridC; {
	case r.cfg.Topology == Mesh:
		r.worst = r.Hops(gridR-1, gridC-1)
	case tiles <= 1:
		r.worst = 1
	default:
		// Quad-tree: depth levels from root to leaf.
		r.worst = 1 + int(math.Ceil(math.Log(float64(tiles))/math.Log(4)))
	}
}

// Config returns the (defaulted) configuration.
func (r *Router) Config() Config { return r.cfg }

// Hops returns the transfer distance between the controller and canonical
// block (br, bc) under the configured topology: 1+⌈log₄ blocks⌉ for the
// quad-tree, whose blocks are all leaves, and 1 + Manhattan distance from
// (0, 0) for the mesh.
func (r *Router) Hops(br, bc int) int {
	if r.cfg.Topology == Mesh {
		return 1 + br + bc
	}
	return r.worst
}

// Scatter accounts a controller→block transfer of elements vector entries
// (an input-segment broadcast before a per-block mat-vec).
func (r *Router) Scatter(br, bc, elements int) {
	r.stats.track(elements, r.Hops(br, bc), r.worst)
}

// Gather accounts a block→controller transfer of elements vector entries
// (a partial-result collection after a per-block mat-vec).
func (r *Router) Gather(br, bc, elements int) {
	r.stats.track(elements, r.Hops(br, bc), r.worst)
}

// Stats returns the cumulative scatter/gather activity. Feed it to
// perf.NoCCost for the modeled latency/energy figures.
func (r *Router) Stats() Stats { return r.stats }
