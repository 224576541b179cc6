package linalg

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSolveStructuredMatchesDenseOnRandom(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	for trial := 0; trial < 10; trial++ {
		n := 3 + trial*2
		a := randomMatrix(r, n, n)
		for i := 0; i < n; i++ {
			a.Set(i, i, a.At(i, i)+25)
		}
		b := randomVec(r, n)
		want, err := SolveDense(a, b)
		if err != nil {
			t.Fatalf("SolveDense: %v", err)
		}
		got, err := SolveStructured(a, b)
		if err != nil {
			t.Fatalf("SolveStructured: %v", err)
		}
		for i := range want {
			if math.Abs(got[i]-want[i]) > 1e-8*(1+math.Abs(want[i])) {
				t.Errorf("n=%d x[%d] = %v, want %v", n, i, got[i], want[i])
			}
		}
	}
}

// buildPDIPLikeMatrix mimics the sparsity of the paper's extended matrix
// (Eq. 14a): a dense m×n block plus many two-non-zero coupling rows.
func buildPDIPLikeMatrix(r *rand.Rand, m, n int) (*Matrix, Vector) {
	// Layout: cols [x(n) | y(m) | w(m) | z(n)], rows:
	//   [A  0  I  0]   m rows
	//   [0  Aᵀ 0 -I]   n rows
	//   [Z  0  0  X]   n rows (two non-zeros each)
	//   [0  W  Y  0]   m rows (two non-zeros each)
	size := 2 * (n + m)
	a := NewMatrix(size, size)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			a.Set(i, j, r.NormFloat64())
		}
		a.Set(i, n+m+i, 1)
	}
	for i := 0; i < n; i++ {
		for j := 0; j < m; j++ {
			a.Set(m+i, n+j, r.NormFloat64())
		}
		a.Set(m+i, n+2*m+i, -1)
	}
	for i := 0; i < n; i++ {
		a.Set(m+n+i, i, 0.5+r.Float64())
		a.Set(m+n+i, n+2*m+i, 0.5+r.Float64())
	}
	for i := 0; i < m; i++ {
		a.Set(m+2*n+i, n+i, 0.5+r.Float64())
		a.Set(m+2*n+i, n+m+i, 0.5+r.Float64())
	}
	b := randomVec(r, size)
	return a, b
}

func TestSolveStructuredPDIPShape(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	a, b := buildPDIPLikeMatrix(r, 12, 4)
	want, err := SolveDense(a, b)
	if err != nil {
		t.Fatalf("SolveDense: %v", err)
	}
	got, err := SolveStructured(a, b)
	if err != nil {
		t.Fatalf("SolveStructured: %v", err)
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-7*(1+math.Abs(want[i])) {
			t.Errorf("x[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestSolveStructuredDiagonal(t *testing.T) {
	// Pure diagonal systems are fully handled by the presolve (no core).
	d := Diagonal(VectorOf(2, 4, 8))
	got, err := SolveStructured(d, VectorOf(2, 4, 8))
	if err != nil {
		t.Fatalf("SolveStructured: %v", err)
	}
	for i := range got {
		if math.Abs(got[i]-1) > 1e-12 {
			t.Errorf("x[%d] = %v, want 1", i, got[i])
		}
	}
}

func TestSolveStructuredSingular(t *testing.T) {
	a := mustMatrix(t, [][]float64{{1, 2}, {2, 4}})
	if _, err := SolveStructured(a, VectorOf(1, 1)); !errors.Is(err, ErrSingular) {
		t.Errorf("singular: %v, want ErrSingular", err)
	}
	zero := NewMatrix(3, 3)
	if _, err := SolveStructured(zero, VectorOf(1, 1, 1)); !errors.Is(err, ErrSingular) {
		t.Errorf("zero matrix: %v, want ErrSingular", err)
	}
}

func TestSolveStructuredValidation(t *testing.T) {
	if _, err := SolveStructured(NewMatrix(2, 3), VectorOf(1, 1)); !errors.Is(err, ErrNotSquare) {
		t.Errorf("non-square: %v", err)
	}
	if _, err := SolveStructured(Identity(3), VectorOf(1, 1)); !errors.Is(err, ErrDimensionMismatch) {
		t.Errorf("bad rhs: %v", err)
	}
}

func TestSolveStructuredIdentity(t *testing.T) {
	got, err := SolveStructured(Identity(5), VectorOf(1, 2, 3, 4, 5))
	if err != nil {
		t.Fatalf("SolveStructured: %v", err)
	}
	for i := range got {
		if got[i] != float64(i+1) {
			t.Errorf("x[%d] = %v", i, got[i])
		}
	}
}

func TestSolveStructuredPermutation(t *testing.T) {
	// A permutation matrix is all one-non-zero rows.
	p := NewMatrix(4, 4)
	p.Set(0, 2, 1)
	p.Set(1, 0, 1)
	p.Set(2, 3, 1)
	p.Set(3, 1, 1)
	b := VectorOf(10, 20, 30, 40)
	got, err := SolveStructured(p, b)
	if err != nil {
		t.Fatalf("SolveStructured: %v", err)
	}
	want := VectorOf(20, 40, 10, 30)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("x[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestPropertyStructuredEqualsDense(t *testing.T) {
	f := func(seed int64, sz uint8, sparsity uint8) bool {
		n := int(sz%10) + 2
		r := rand.New(rand.NewSource(seed))
		a := NewMatrix(n, n)
		keepProb := 0.2 + float64(sparsity%80)/100
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if r.Float64() < keepProb {
					a.Set(i, j, r.NormFloat64())
				}
			}
			a.Set(i, i, a.At(i, i)+30)
		}
		b := randomVec(r, n)
		want, err1 := SolveDense(a, b)
		got, err2 := SolveStructured(a, b)
		if err1 != nil || err2 != nil {
			return errors.Is(err2, ErrSingular) == errors.Is(err1, ErrSingular)
		}
		for i := range want {
			if math.Abs(got[i]-want[i]) > 1e-6*(1+math.Abs(want[i])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestStructuredDeterministicAcrossWorkspaces pins the elimination order: two
// independent workspaces solving the same system must produce bit-identical
// results. The column-occupancy tracking iterates slices in insertion order;
// a map here would randomize the elimination sequence per workspace and
// perturb the floating-point result — which would break the fabric pool's
// bit-identical-across-replicas contract (each replica owns a workspace).
func TestStructuredDeterministicAcrossWorkspaces(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	a, b := buildPDIPLikeMatrix(r, 24, 8)
	var w1, w2 StructuredWorkspace
	x1, err := w1.Solve(a, b)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	ref := x1.Clone()
	// Desynchronize the second workspace's history before the comparison
	// solve: prior solves must not influence later results either.
	r2 := rand.New(rand.NewSource(99))
	a2, b2 := buildPDIPLikeMatrix(r2, 24, 8)
	if _, err := w2.Solve(a2, b2); err != nil {
		t.Fatalf("history Solve: %v", err)
	}
	x2, err := w2.Solve(a, b)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	for i := range ref {
		if !Identical(x2[i], ref[i]) {
			t.Fatalf("x[%d] = %v, want bit-identical %v across workspaces", i, x2[i], ref[i])
		}
	}
}

// TestStructuredWorkspaceReuseAllocs pins the slice-backed occupancy sets:
// same-shape re-solves on a warmed workspace must not allocate (the map
// version allocated per fill-in insert and on every clear).
func TestStructuredWorkspaceReuseAllocs(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	a, b := buildPDIPLikeMatrix(r, 24, 8)
	var w StructuredWorkspace
	if _, err := w.Solve(a, b); err != nil {
		t.Fatalf("warmup Solve: %v", err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := w.Solve(a, b); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Errorf("warmed workspace allocates %.1f/solve, want 0", allocs)
	}
}

func BenchmarkSolveStructuredPDIPShape(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	a, rhs := buildPDIPLikeMatrix(r, 60, 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SolveStructured(a, rhs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSolveStructuredPDIPShapeReused measures the workspace-reuse path
// the solvers actually run (each crossbar keeps one workspace hot).
func BenchmarkSolveStructuredPDIPShapeReused(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	a, rhs := buildPDIPLikeMatrix(r, 60, 20)
	var w StructuredWorkspace
	if _, err := w.Solve(a, rhs); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := w.Solve(a, rhs); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSolveDensePDIPShape(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	a, rhs := buildPDIPLikeMatrix(r, 60, 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SolveDense(a, rhs); err != nil {
			b.Fatal(err)
		}
	}
}

// denseStructuredSolve is the presolve elimination as it stood before it
// walked a pattern: dense row scans in pivot selection, elimination and
// back-substitution, over a dense copy of a. The pattern-driven workspace
// must reproduce it bit for bit, errors included.
func denseStructuredSolve(a *Matrix, b Vector) (Vector, error) {
	n := a.Rows()
	work := a.Clone()
	rhs := b.Clone()
	rowNNZ := make([]int, n)
	liveRow := make([]bool, n)
	liveCol := make([]bool, n)
	colRows := make([][]int32, n)
	var order []structuredStep
	var queue []int

	for i := 0; i < n; i++ {
		liveRow[i], liveCol[i] = true, true
		for _, v := range work.RawRow(i) {
			if v != 0 {
				rowNNZ[i]++
			}
		}
	}
	for i := 0; i < n; i++ {
		for j, v := range work.RawRow(i) {
			if v != 0 {
				colRows[j] = append(colRows[j], int32(i))
			}
		}
	}
	for i := 0; i < n; i++ {
		if rowNNZ[i] <= 2 {
			queue = append(queue, i)
		}
	}
	for len(queue) > 0 {
		r := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		if !liveRow[r] || rowNNZ[r] > 2 {
			continue
		}
		pc := -1
		var pv float64
		row := work.RawRow(r)
		for j, v := range row {
			if v != 0 && liveCol[j] && math.Abs(v) > math.Abs(pv) {
				pc, pv = j, v
			}
		}
		if pc < 0 {
			return nil, fmt.Errorf("%w: empty row %d in presolve", ErrSingular, r)
		}
		for _, o := range colRows[pc] {
			other := int(o)
			if other == r || !liveRow[other] || work.At(other, pc) == 0 {
				continue
			}
			factor := work.At(other, pc) / pv
			orow := work.RawRow(other)
			for j, v := range row {
				if v == 0 || !liveCol[j] {
					continue
				}
				if j == pc {
					orow[j] = 0
					rowNNZ[other]--
					continue
				}
				old := orow[j]
				nw := old - factor*v
				orow[j] = nw
				if old != 0 && nw == 0 {
					rowNNZ[other]--
				} else if old == 0 && nw != 0 {
					rowNNZ[other]++
					colRows[j] = append(colRows[j], o)
				}
			}
			rhs[other] -= factor * rhs[r]
			if rowNNZ[other] <= 2 {
				queue = append(queue, other)
			}
		}
		liveRow[r] = false
		liveCol[pc] = false
		order = append(order, structuredStep{row: r, col: pc})
	}

	var coreRows, coreCols []int
	for i := 0; i < n; i++ {
		if liveRow[i] {
			coreRows = append(coreRows, i)
		}
		if liveCol[i] {
			coreCols = append(coreCols, i)
		}
	}
	if len(coreRows) != len(coreCols) {
		return nil, fmt.Errorf("%w: presolve core is %dx%d", ErrSingular, len(coreRows), len(coreCols))
	}
	x := make(Vector, n)
	if k := len(coreRows); k > 0 {
		core := NewMatrix(k, k)
		cb := make(Vector, k)
		for ci, i := range coreRows {
			for cj, j := range coreCols {
				core.Set(ci, cj, work.At(i, j))
			}
			cb[ci] = rhs[i]
		}
		f, err := FactorizeInto(nil, core)
		if err != nil {
			return nil, err
		}
		if err := f.SolveInPlace(cb); err != nil {
			return nil, err
		}
		for cj, j := range coreCols {
			x[j] = cb[cj]
		}
	}
	for k := len(order) - 1; k >= 0; k-- {
		st := order[k]
		row := work.RawRow(st.row)
		s := rhs[st.row]
		for j, v := range row {
			if v != 0 && j != st.col {
				s -= v * x[j]
			}
		}
		x[st.col] = s / row[st.col]
	}
	return x, nil
}

// requireSameSolve compares a workspace result with the dense reference:
// the same error text, or the same solution bit for bit (NaNs included).
func requireSameSolve(t *testing.T, got Vector, gotErr error, want Vector, wantErr error, label string) {
	t.Helper()
	if (gotErr != nil) != (wantErr != nil) {
		t.Fatalf("%s: error %v, reference error %v", label, gotErr, wantErr)
	}
	if wantErr != nil {
		if gotErr.Error() != wantErr.Error() || errors.Is(gotErr, ErrSingular) != errors.Is(wantErr, ErrSingular) {
			t.Fatalf("%s: error %q, reference %q", label, gotErr, wantErr)
		}
		return
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: x[%d] = %v, reference %v", label, i, got[i], want[i])
		}
	}
}

// revivalMatrix is hand-built so that cell (0,3) is cancelled exactly, then
// revived by fill-in, and row 0 finally pivots between two equal-magnitude
// candidates with the revived column listed twice in its fill-in chain:
//
//	row 7 eliminates col 0: (0,6) fills in with -1;
//	row 6 eliminates col 1: (0,3) = 1 − 0.5·2 cancels to exactly 0;
//	row 5 eliminates col 2: (0,3) revives as −1;
//	row 4 eliminates col 4: row 0 drops to {3: −1, 6: −1} and pivots on 3.
func revivalMatrix(t *testing.T) *Matrix {
	return mustMatrix(t, [][]float64{
		{4, 2, 4, 1, 1, 0, 0, 0},
		{0, 0, 0, 0, 0, 3, 1, 1},
		{0, 0, 0, 0, 0, 1, 4, 1},
		{0, 0, 0, 0, 0, 1, 1, 5},
		{0, 0, 0, 0, 4, 0, 0, 0},
		{0, 0, 4, 1, 0, 0, 0, 0},
		{0, 4, 0, 2, 0, 0, 0, 0},
		{4, 0, 0, 0, 0, 0, 1, 0},
	})
}

// TestStructuredMatchesDenseReference pins the pattern-driven elimination to
// the dense one it replaced, bit for bit, on PDIP-shaped systems with
// fill-in, exact cancellations and revivals, equal-magnitude pivot
// candidates, NaN entries, and singular and empty-row failures. One
// workspace serves every case, so the cleanup between shapes and patterns
// is exercised too, and a second one solves through a superset pattern.
func TestStructuredMatchesDenseReference(t *testing.T) {
	var w, wSuper StructuredWorkspace
	var super Pattern
	check := func(a *Matrix, b Vector, label string) {
		t.Helper()
		want, wantErr := denseStructuredSolve(a, b)
		got, err := w.Solve(a, b)
		requireSameSolve(t, got, err, want, wantErr, label)
		// A pattern that also lists zero cells (here: every diagonal cell and
		// every cell of row 0) must give the same answer.
		mask := a.Clone()
		for i := 0; i < a.Rows(); i++ {
			mask.Set(i, i, 1)
			mask.Set(0, i, 1)
		}
		super.Scan(mask)
		got, err = wSuper.SolvePattern(a, &super, b)
		requireSameSolve(t, got, err, want, wantErr, label+" (superset pattern)")
	}

	a := revivalMatrix(t)
	check(a, VectorOf(1, 2, 3, 4, 5, 6, 7, 8), "revival")
	if _, err := denseStructuredSolve(a, VectorOf(1, 2, 3, 4, 5, 6, 7, 8)); err != nil {
		t.Fatalf("revival matrix must be solvable: %v", err)
	}

	r := rand.New(rand.NewSource(41))
	for trial := 0; trial < 300; trial++ {
		m, n := 1+r.Intn(12), 1+r.Intn(6)
		a, b := buildPDIPLikeMatrix(r, m, n)
		size := a.Rows()
		switch trial % 5 {
		case 1:
			// Small integers make exact cancellations (and revivals) common.
			for i := 0; i < size; i++ {
				for j, v := range a.RawRow(i) {
					if v != 0 {
						a.Set(i, j, float64(r.Intn(5)-2))
					}
				}
			}
		case 2:
			// Equal-magnitude pivot candidates in the complementarity rows.
			for i := m + n; i < size; i++ {
				row := a.RawRow(i)
				var first float64
				for j, v := range row {
					if v == 0 {
						continue
					}
					if first == 0 {
						first = v
					} else {
						row[j] = math.Copysign(first, float64(r.Intn(2)*2-1))
					}
				}
			}
		case 3:
			// NaN entries anywhere, pivot candidates included.
			for k := 0; k < 1+r.Intn(3); k++ {
				i, j := r.Intn(size), r.Intn(size)
				if a.At(i, j) != 0 || r.Intn(2) == 0 {
					a.Set(i, j, math.NaN())
				}
			}
		case 4:
			// Empty rows and dependent rows.
			if r.Intn(2) == 0 {
				i := r.Intn(size)
				for j := range a.RawRow(i) {
					a.Set(i, j, 0)
				}
			} else {
				i, k := r.Intn(size), r.Intn(size)
				copy(a.RawRow(k), a.RawRow(i))
			}
		}
		check(a, b, fmt.Sprintf("trial %d (m=%d, n=%d)", trial, m, n))
	}

	check(NewMatrix(4, 4), VectorOf(1, 1, 1, 1), "zero matrix")
	check(mustMatrix(t, [][]float64{{1, 0, 0}, {2, 0, 0}, {0, 1, 1}}), VectorOf(1, 1, 1), "empty row after elimination")
	check(mustMatrix(t, [][]float64{{1, 2, 3}, {2, 4, 6}, {1, 1, 1}}), VectorOf(1, 1, 1), "singular core")
	check(mustMatrix(t, [][]float64{{math.NaN(), 0}, {1, 1}}), VectorOf(1, 1), "NaN-only row")
	check(mustMatrix(t, [][]float64{{-3, 3}, {3, 3}}), VectorOf(1, 2), "equal magnitudes")
	check(NewMatrix(0, 0), Vector{}, "empty system")
}
