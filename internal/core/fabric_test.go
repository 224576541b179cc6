package core

import (
	"github.com/memlp/memlp/internal/crossbar"
	"github.com/memlp/memlp/internal/linalg"
)

// idealFabric performs exact digital linear algebra; it isolates algorithm
// behaviour from analog non-idealities in tests.
type idealFabric struct {
	matrix   *linalg.Matrix
	counters crossbar.Counters
}

func newIdealFabric(int) (Fabric, error) { return &idealFabric{}, nil }

func (f *idealFabric) Program(a *linalg.Matrix) error {
	f.matrix = a.Clone()
	f.counters.CellWrites += int64(a.Rows() * a.Cols())
	return nil
}

func (f *idealFabric) UpdateRow(i int, row linalg.Vector) error {
	if f.matrix == nil {
		return crossbar.ErrNotProgrammed
	}
	if i < 0 || i >= f.matrix.Rows() || len(row) != f.matrix.Cols() {
		return linalg.ErrDimensionMismatch
	}
	for j, v := range row {
		f.matrix.Set(i, j, v)
	}
	f.counters.CellWrites += int64(len(row))
	return nil
}

func (f *idealFabric) UpdateCellInPlace(i, j int, value float64) error {
	if f.matrix == nil {
		return crossbar.ErrNotProgrammed
	}
	if i < 0 || i >= f.matrix.Rows() || j < 0 || j >= f.matrix.Cols() {
		return linalg.ErrDimensionMismatch
	}
	f.matrix.Set(i, j, value)
	f.counters.CellWrites++
	return nil
}

func (f *idealFabric) MatVec(v linalg.Vector) (linalg.Vector, error) {
	if f.matrix == nil {
		return nil, crossbar.ErrNotProgrammed
	}
	f.counters.MatVecOps++
	return f.matrix.MatVec(v)
}

func (f *idealFabric) MatVecResidual(base, v, factor linalg.Vector) (linalg.Vector, error) {
	t, err := f.MatVec(v)
	if err != nil {
		return nil, err
	}
	out := linalg.NewVector(len(base))
	for i := range out {
		ti := t[i]
		if factor != nil {
			ti *= factor[i]
		}
		out[i] = base[i] - ti
	}
	return out, nil
}

func (f *idealFabric) Solve(b linalg.Vector) (linalg.Vector, error) {
	if f.matrix == nil {
		return nil, crossbar.ErrNotProgrammed
	}
	f.counters.SolveOps++
	var w linalg.StructuredWorkspace
	out, err := w.Solve(f.matrix, b)
	if err != nil {
		return nil, crossbar.ErrSingular
	}
	return out, nil
}

func (f *idealFabric) Counters() crossbar.Counters { return f.counters }
