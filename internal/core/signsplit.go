package core

import (
	"slices"

	"github.com/memlp/memlp/internal/linalg"
)

// signSplit is Eq. 13's elimination of A's negative entries, shared by
// Algorithm 1's extended system (Eq. 14a) and Algorithm 2's M1 (Eq. 16d).
// Both systems put Δx in columns [0, n) and Δy in [n, n+m), the primal rows
// in [0, m) and the dual rows in [m, m+n), and a block of q mirror columns
// Δp, each with one consistency row, from index p0 on both axes. A′ and Aᵀ′
// keep A's non-negative entries on the Δx and Δy columns; A″ and Aᵀ″ carry
// the negatives' absolute values on the mirror columns, which the
// consistency rows Δx_j + Δp_k = 0 and Δy_k′ + Δp_k = 0 hold at −Δx_j and
// −Δy_k′. The two systems differ only in p0 and in which rows get a
// y-mirror.
type signSplit struct {
	n, m int
	// p0 is the first Δp column and consistency row, q the number of Δp
	// columns and size = p0 + q the system's dimension.
	p0, q, size int
	// pOfX[j] is the Δp index mirroring −Δx_j, or -1; pOfY likewise for y.
	pOfX, pOfY []int
}

func (s *signSplit) colX(j int) int  { return j }
func (s *signSplit) colY(k int) int  { return s.n + k }
func (s *signSplit) colP(k int) int  { return s.p0 + k }
func (s *signSplit) rowA(i int) int  { return i }
func (s *signSplit) rowAT(j int) int { return s.m + j }
func (s *signSplit) rowP(k int) int  { return s.p0 + k }

// assign numbers the Δp columns for a from p0, reusing the index slices'
// capacity: one x-mirror per column of a with a negative entry, then one
// y-mirror per row (row k of A is column k of Aᵀ) that has a negative entry
// or for which mirrorY reports true.
func (s *signSplit) assign(a *linalg.Matrix, p0 int, mirrorY func(k int) bool) {
	s.n, s.m, s.p0 = a.Cols(), a.Rows(), p0
	s.pOfX = linalg.Resize(s.pOfX, s.n)
	s.pOfY = linalg.Resize(s.pOfY, s.m)
	q := 0
	for j := range s.pOfX {
		s.pOfX[j] = -1
		for i := 0; i < s.m; i++ {
			if a.At(i, j) < 0 {
				s.pOfX[j] = q
				q++
				break
			}
		}
	}
	for k := range s.pOfY {
		s.pOfY[k] = -1
		if mirrorY(k) || slices.ContainsFunc(a.RawRow(k), isNegative) {
			s.pOfY[k] = q
			q++
		}
	}
	s.q, s.size = q, p0+q
}

func isNegative(v float64) bool { return v < 0 }

// write puts A′ and A″ into the primal rows of mtx, Aᵀ′ and Aᵀ″ into its
// dual rows, and the Δp consistency rows. mtx must be size×size and zero in
// those cells.
func (s *signSplit) write(mtx, a *linalg.Matrix) {
	for i := 0; i < s.m; i++ {
		for j, v := range a.RawRow(i) {
			if v >= 0 {
				mtx.Set(s.rowA(i), s.colX(j), v)
				mtx.Set(s.rowAT(j), s.colY(i), v)
			} else {
				mtx.Set(s.rowA(i), s.colP(s.pOfX[j]), -v)
				mtx.Set(s.rowAT(j), s.colP(s.pOfY[i]), -v)
			}
		}
	}
	for j, k := range s.pOfX {
		if k >= 0 {
			mtx.Set(s.rowP(k), s.colX(j), 1)
			mtx.Set(s.rowP(k), s.colP(k), 1)
		}
	}
	for i, k := range s.pOfY {
		if k >= 0 {
			mtx.Set(s.rowP(k), s.colY(i), 1)
			mtx.Set(s.rowP(k), s.colP(k), 1)
		}
	}
}

// stateVector returns a new size-long state vector holding x, y and their
// mirrors −x and −y on the Δp entries; the caller fills any other block.
func (s *signSplit) stateVector(x, y linalg.Vector) linalg.Vector {
	st := linalg.NewVector(s.size)
	copy(st[s.colX(0):], x)
	copy(st[s.colY(0):], y)
	for j, k := range s.pOfX {
		if k >= 0 {
			st[s.colP(k)] = -x[j]
		}
	}
	for i, k := range s.pOfY {
		if k >= 0 {
			st[s.colP(k)] = -y[i]
		}
	}
	return st
}
