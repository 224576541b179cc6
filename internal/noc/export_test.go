package noc

import "github.com/memlp/memlp/internal/linalg"

// DenseSolve is the settle as the fabric computed it before it kept its
// network: a dense matrix composed from the tiles' realized rows, solved on
// a fresh workspace that scans it. It counts and prices nothing.
func (f *TiledFabric) DenseSolve(b linalg.Vector) (linalg.Vector, error) {
	dense := linalg.NewMatrix(f.rows, f.cols)
	var p linalg.Pattern
	for k, tl := range f.tiles {
		rlo, rhi, clo, _ := f.span(k/f.gridC, k%f.gridC)
		p.Start(rhi-rlo, 0)
		for r := rlo; r < rhi; r++ {
			tl.xb[0].EffectiveRow(r-rlo, dense.RawRow(r), clo, &p)
			p.EndRow(r - rlo)
		}
	}
	rhs := b.Clone()
	if err := f.quantizeIO(rhs); err != nil {
		return nil, err
	}
	var w linalg.StructuredWorkspace
	x, err := w.Solve(dense, rhs)
	if err != nil {
		return nil, err
	}
	return x, f.quantizeIO(x)
}
