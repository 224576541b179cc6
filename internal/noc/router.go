package noc

import "fmt"

// Router models the NoC's vector scatter/gather traffic for engines that
// own their per-block crossbars directly instead of going through a
// TiledFabric — the distributed PDHG engine tiles A into canonical blocks
// and moves primal/dual vector segments to and from each block every
// half-iteration.
//
// Accounting is keyed by canonical block coordinates (the block's position
// in the tile grid of the matrix), NOT by which worker goroutine happens to
// execute the block. That makes the modeled latency and energy a pure
// function of the problem's tiling, so trace records stay bit-identical
// across worker-grid shapes (the PDHG determinism contract).
type Router struct {
	cfg   Config
	gridR int
	gridC int
	stats Stats
}

// NewRouter returns a router for a gridR×gridC canonical block grid.
func NewRouter(cfg Config, gridR, gridC int) (*Router, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if gridR < 1 || gridC < 1 {
		return nil, fmt.Errorf("%w: router grid %dx%d", ErrBadConfig, gridR, gridC)
	}
	if gridR*gridC > cfg.MaxTiles {
		return nil, fmt.Errorf("%w: %dx%d blocks need %d tiles, have %d",
			ErrTooLarge, gridR, gridC, gridR*gridC, cfg.MaxTiles)
	}
	return &Router{cfg: cfg, gridR: gridR, gridC: gridC}, nil
}

// Config returns the (defaulted) configuration.
func (r *Router) Config() Config { return r.cfg }

// Hops returns the transfer distance between the controller and canonical
// block (br, bc) under the configured topology: 1+⌈log₄ blocks⌉ for the
// quad-tree, 1 + Manhattan distance from (0, 0) for the mesh.
func (r *Router) Hops(br, bc int) int {
	return hopCount(r.cfg.Topology, r.gridR*r.gridC, br, bc)
}

// Scatter accounts a controller→block transfer of elements vector entries
// (an input-segment broadcast before a per-block mat-vec).
func (r *Router) Scatter(br, bc, elements int) {
	r.stats.track(elements, r.Hops(br, bc))
}

// Gather accounts a block→controller transfer of elements vector entries
// (a partial-result collection after a per-block mat-vec).
func (r *Router) Gather(br, bc, elements int) {
	r.stats.track(elements, r.Hops(br, bc))
}

// Stats returns the cumulative scatter/gather activity. Feed it to
// perf.NoCCost for the modeled latency/energy figures.
func (r *Router) Stats() Stats { return r.stats }
