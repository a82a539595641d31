package basis

import (
	"math"
	"math/rand"
	"testing"
)

// colMatrix is a simple Columns fixture: column j as parallel slices.
type colMatrix struct {
	m    int
	rows [][]int
	vals [][]float64
}

func (c *colMatrix) NumRows() int                 { return c.m }
func (c *colMatrix) Col(j int) ([]int, []float64) { return c.rows[j], c.vals[j] }
func (c *colMatrix) add(rows []int, vals []float64) {
	c.rows = append(c.rows, rows)
	c.vals = append(c.vals, vals)
}
func (c *colMatrix) n() int { return len(c.rows) }

// denseFactor is the reference implementation: dense LU with partial
// pivoting over the basis matrix whose slot-i column is cols[i].
type denseFactor struct {
	m   int
	a   []float64 // row-major
	piv []int
}

func denseFactorize(a Columns, cols []int) (*denseFactor, bool) {
	m := a.NumRows()
	d := &denseFactor{m: m, a: make([]float64, m*m), piv: make([]int, m)}
	for i, j := range cols {
		rows, vals := a.Col(j)
		for k, r := range rows {
			d.a[r*m+i] += vals[k]
		}
	}
	for k := 0; k < m; k++ {
		best, bestAbs := k, math.Abs(d.a[k*m+k])
		for i := k + 1; i < m; i++ {
			if v := math.Abs(d.a[i*m+k]); v > bestAbs {
				best, bestAbs = i, v
			}
		}
		if bestAbs < 1e-11 {
			return nil, false
		}
		d.piv[k] = best
		if best != k {
			for j := 0; j < m; j++ {
				d.a[k*m+j], d.a[best*m+j] = d.a[best*m+j], d.a[k*m+j]
			}
		}
		pv := d.a[k*m+k]
		for i := k + 1; i < m; i++ {
			f := d.a[i*m+k] / pv
			d.a[i*m+k] = f
			if f == 0 {
				continue
			}
			for j := k + 1; j < m; j++ {
				d.a[i*m+j] -= f * d.a[k*m+j]
			}
		}
	}
	return d, true
}

// solve returns x with B·x = b (x in slot space).
func (d *denseFactor) solve(b []float64) []float64 {
	m := d.m
	x := append([]float64(nil), b...)
	for k := 0; k < m; k++ { // x = P·b
		x[k], x[d.piv[k]] = x[d.piv[k]], x[k]
	}
	for k := 0; k < m; k++ { // L forward (unit diagonal)
		for i := k + 1; i < m; i++ {
			x[i] -= d.a[i*m+k] * x[k]
		}
	}
	for k := m - 1; k >= 0; k-- {
		for j := k + 1; j < m; j++ {
			x[k] -= d.a[k*m+j] * x[j]
		}
		x[k] /= d.a[k*m+k]
	}
	return x
}

// solveT returns y with Bᵀ·y = b (b in slot space, y in row space).
func (d *denseFactor) solveT(b []float64) []float64 {
	m := d.m
	y := append([]float64(nil), b...)
	for k := 0; k < m; k++ { // Uᵀ forward
		for j := 0; j < k; j++ {
			y[k] -= d.a[j*m+k] * y[j]
		}
		y[k] /= d.a[k*m+k]
	}
	for k := m - 1; k >= 0; k-- { // Lᵀ backward (unit diagonal)
		for i := k + 1; i < m; i++ {
			y[k] -= d.a[i*m+k] * y[i]
		}
	}
	for k := m - 1; k >= 0; k-- { // y = Pᵀ·w
		y[k], y[d.piv[k]] = y[d.piv[k]], y[k]
	}
	return y
}

// randMatrix builds a standard-form-shaped matrix: m slack-like singleton
// columns plus extra structural columns with a few nonzeros each.
func randMatrix(rng *rand.Rand, m, extra int) *colMatrix {
	a := &colMatrix{m: m}
	for i := 0; i < m; i++ {
		a.add([]int{i}, []float64{1 + rng.Float64()})
	}
	for j := 0; j < extra; j++ {
		maxNNZ := 4
		if maxNNZ > m {
			maxNNZ = m
		}
		nnz := 1 + rng.Intn(maxNNZ)
		seen := map[int]bool{}
		var rows []int
		var vals []float64
		for len(rows) < nnz {
			r := rng.Intn(m)
			if seen[r] {
				continue
			}
			seen[r] = true
			rows = append(rows, r)
			v := rng.NormFloat64() * math.Pow(10, float64(rng.Intn(3)-1))
			if v == 0 {
				v = 1
			}
			vals = append(vals, v)
		}
		a.add(rows, vals)
	}
	return a
}

// randBasis builds a dense-verified nonsingular basis: start from the
// singleton (slack-like) identity and greedily swap in random structural
// columns wherever the replacement keeps the basis nonsingular.
func randBasis(rng *rand.Rand, a *colMatrix) []int {
	m := a.m
	cols := make([]int, m)
	for i := range cols {
		cols[i] = i
	}
	inBasis := make([]bool, a.n())
	for _, j := range cols {
		inBasis[j] = true
	}
	for tries := 0; tries < 4*m; tries++ {
		j := m + rng.Intn(a.n()-m)
		if inBasis[j] {
			continue
		}
		slot := rng.Intn(m)
		old := cols[slot]
		cols[slot] = j
		if _, ok := denseFactorize(a, cols); ok {
			inBasis[old] = false
			inBasis[j] = true
		} else {
			cols[slot] = old
		}
	}
	if _, ok := denseFactorize(a, cols); !ok {
		return nil
	}
	return cols
}

const eqTol = 1e-9

// checkAgainstDense verifies one engine's Ftran/Btran against the dense
// reference for the engine's own slot assignment.
func checkAgainstDense(t *testing.T, e Engine, a Columns, slots []int, rng *rand.Rand) {
	t.Helper()
	m := a.NumRows()
	d, ok := denseFactorize(a, slots)
	if !ok {
		t.Fatalf("%T: dense reference factorization failed", e)
	}
	for trial := 0; trial < 3; trial++ {
		b := make([]float64, m)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		got := append([]float64(nil), b...)
		e.Ftran(got)
		want := d.solve(b)
		for i := range want {
			if math.Abs(got[i]-want[i]) > eqTol*(1+math.Abs(want[i])) {
				t.Fatalf("%T ftran slot %d: got %g want %g", e, i, got[i], want[i])
			}
		}
		got = append(got[:0], b...)
		e.Btran(got)
		want = d.solveT(b)
		for i := range want {
			if math.Abs(got[i]-want[i]) > eqTol*(1+math.Abs(want[i])) {
				t.Fatalf("%T btran row %d: got %g want %g", e, i, got[i], want[i])
			}
		}
	}
}

// checkEnginesAgree compares two engines holding the same basis column SET
// under possibly different slot assignments: Ftran coefficients must agree
// per column, Btran outputs (row space) must agree for per-column inputs.
func checkEnginesAgree(t *testing.T, e1, e2 Engine, a Columns, s1, s2 []int, rng *rand.Rand) {
	t.Helper()
	m := a.NumRows()
	inv2 := map[int]int{}
	for i, j := range s2 {
		inv2[j] = i
	}
	b := make([]float64, m)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	x1 := append([]float64(nil), b...)
	x2 := append([]float64(nil), b...)
	e1.Ftran(x1)
	e2.Ftran(x2)
	for i, j := range s1 {
		k, okc := inv2[j]
		if !okc {
			t.Fatalf("engines disagree on basis columns: %d missing", j)
		}
		if math.Abs(x1[i]-x2[k]) > eqTol*(1+math.Abs(x2[k])) {
			t.Fatalf("ftran col %d: %T=%g %T=%g", j, e1, x1[i], e2, x2[k])
		}
	}
	// Per-column weights c: v[i] = c[slots[i]] makes Btran arrangement-free.
	c := make(map[int]float64, m)
	for _, j := range s1 {
		c[j] = rng.NormFloat64()
	}
	v1 := make([]float64, m)
	v2 := make([]float64, m)
	for i, j := range s1 {
		v1[i] = c[j]
	}
	for i, j := range s2 {
		v2[i] = c[j]
	}
	e1.Btran(v1)
	e2.Btran(v2)
	for i := range v1 {
		if math.Abs(v1[i]-v2[i]) > eqTol*(1+math.Abs(v2[i])) {
			t.Fatalf("btran row %d: %T=%g %T=%g", i, e1, v1[i], e2, v2[i])
		}
	}
}

func TestEnginesMatchDenseOnRandomBases(t *testing.T) {
	for _, m := range []int{3, 8, 25, 60} {
		rng := rand.New(rand.NewSource(int64(1000 + m)))
		for trial := 0; trial < 5; trial++ {
			a := randMatrix(rng, m, 2*m)
			cols := randBasis(rng, a)
			if cols == nil {
				t.Fatalf("m=%d: no nonsingular basis found", m)
			}
			for _, e := range []Engine{NewEta(m), NewLU(m)} {
				slots, ok := e.Factorize(a, cols)
				if !ok {
					t.Fatalf("m=%d %T: factorize failed on nonsingular basis", m, e)
				}
				checkAgainstDense(t, e, a, slots, rng)
			}
		}
	}
}

func TestEngineCrossEquivalenceOnRandomBases(t *testing.T) {
	for _, m := range []int{4, 12, 40} {
		rng := rand.New(rand.NewSource(int64(77 + m)))
		for trial := 0; trial < 5; trial++ {
			a := randMatrix(rng, m, 2*m)
			cols := randBasis(rng, a)
			if cols == nil {
				t.Fatalf("m=%d: no nonsingular basis found", m)
			}
			eta, lu := NewEta(m), NewLU(m)
			sE, ok1 := eta.Factorize(a, cols)
			sL, ok2 := lu.Factorize(a, cols)
			if !ok1 || !ok2 {
				t.Fatalf("m=%d: factorize eta=%v lu=%v", m, ok1, ok2)
			}
			checkEnginesAgree(t, eta, lu, a, sE, sL, rng)
		}
	}
}

// TestEnginePivotSequence replays a recorded pivot sequence — entering
// column and leaving COLUMN chosen once, mapped to each engine's own slot —
// and pins both engines against the dense reference and each other after
// every update, through a refactorization boundary.
func TestEnginePivotSequence(t *testing.T) {
	const m = 20
	rng := rand.New(rand.NewSource(4242))
	a := randMatrix(rng, m, 3*m)
	cols := randBasis(rng, a)
	if cols == nil {
		t.Fatal("no nonsingular basis found")
	}
	eta, lu := NewEta(m), NewLU(m)
	sE, ok1 := eta.Factorize(a, append([]int(nil), cols...))
	sL, ok2 := lu.Factorize(a, append([]int(nil), cols...))
	if !ok1 || !ok2 {
		t.Fatalf("initial factorize eta=%v lu=%v", ok1, ok2)
	}
	sE = append([]int(nil), sE...)
	sL = append([]int(nil), sL...)

	inBasis := func(s []int, j int) bool {
		for _, c := range s {
			if c == j {
				return true
			}
		}
		return false
	}
	pivots := 0
	for attempt := 0; attempt < 400 && pivots < 3*refactorEvery/2; attempt++ {
		q := rng.Intn(a.n())
		if inBasis(sE, q) {
			continue
		}
		// Engine-specific alpha = Ftran(column q); the coefficient of any
		// particular basis COLUMN is arrangement-independent, so a leaving
		// column viable in one engine is viable in the other.
		alphaE := make([]float64, m)
		rows, vals := a.Col(q)
		for k, r := range rows {
			alphaE[r] = vals[k]
		}
		alphaL := append([]float64(nil), alphaE...)
		eta.Ftran(alphaE)
		lu.Ftran(alphaL)
		leave := -1
		for i := range sE {
			if math.Abs(alphaE[i]) > 0.1 {
				leave = i
				break
			}
		}
		if leave < 0 {
			continue
		}
		leaveCol := sE[leave]
		rL := -1
		for i, c := range sL {
			if c == leaveCol {
				rL = i
				break
			}
		}
		// Verify the replacement basis stays dense-nonsingular before
		// committing the pivot to either engine.
		next := append([]int(nil), sE...)
		next[leave] = q
		if _, ok := denseFactorize(a, next); !ok {
			continue
		}
		eta.Update(leave, alphaE)
		lu.Update(rL, alphaL)
		sE[leave] = q
		sL[rL] = q
		pivots++

		checkAgainstDense(t, eta, a, sE, rng)
		checkAgainstDense(t, lu, a, sL, rng)
		checkEnginesAgree(t, eta, lu, a, sE, sL, rng)

		if eta.Due() != lu.Due() || eta.Updates() != lu.Updates() {
			t.Fatalf("update accounting diverged: eta %d/%v lu %d/%v",
				eta.Updates(), eta.Due(), lu.Updates(), lu.Due())
		}
		if eta.Due() {
			sE2, ok1 := eta.Factorize(a, sE)
			sL2, ok2 := lu.Factorize(a, sL)
			if !ok1 || !ok2 {
				t.Fatalf("refactorize after %d pivots: eta=%v lu=%v", pivots, ok1, ok2)
			}
			sE = append(sE[:0], sE2...)
			sL = append(sL[:0], sL2...)
			if eta.Updates() != 0 || lu.Updates() != 0 {
				t.Fatal("factorize did not clear pending updates")
			}
		}
	}
	if pivots < refactorEvery {
		t.Fatalf("pivot sequence too short to cross refactorization: %d", pivots)
	}
}

func TestSingularBasisRejected(t *testing.T) {
	const m = 6
	a := &colMatrix{m: m}
	for i := 0; i < m; i++ {
		a.add([]int{i}, []float64{1})
	}
	// Duplicate of column 0 and an all-zero-ish column.
	a.add([]int{0}, []float64{1})
	a.add([]int{2}, []float64{1e-12})

	dup := []int{0, 1, 2, 3, 4, 6}  // cols 0 and 6 identical
	tiny := []int{0, 1, 7, 3, 4, 5} // col 7 below epsFactor
	for _, e := range []Engine{NewEta(m), NewLU(m)} {
		if _, ok := e.Factorize(a, dup); ok {
			t.Errorf("%T: accepted duplicate-column basis", e)
		}
		if _, ok := e.Factorize(a, tiny); ok {
			t.Errorf("%T: accepted near-zero column basis", e)
		}
		// Engines must stay usable after a rejected factorization.
		if _, ok := e.Factorize(a, []int{0, 1, 2, 3, 4, 5}); !ok {
			t.Errorf("%T: rejected the identity basis after failure", e)
		}
	}
}

// TestLUKeepsSlotOrder pins the LU contract revised-simplex warm starts
// rely on: the slot assignment passed in is the one returned.
func TestLUKeepsSlotOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	a := randMatrix(rng, 10, 20)
	cols := randBasis(rng, a)
	lu := NewLU(10)
	slots, ok := lu.Factorize(a, cols)
	if !ok {
		t.Fatal("factorize failed")
	}
	for i := range cols {
		if slots[i] != cols[i] {
			t.Fatalf("slot %d reassigned: got %d want %d", i, slots[i], cols[i])
		}
	}
}

// TestLUThresholdRetry builds a basis the sparsity-chasing threshold pass
// mangles (huge off-diagonal magnitudes) and checks the pure partial
// pivoting retry still factors it accurately.
func TestLUThresholdRetry(t *testing.T) {
	const m = 8
	a := &colMatrix{m: m}
	for j := 0; j < m; j++ {
		rows := []int{j}
		vals := []float64{1e-6}
		if j+1 < m {
			rows = append(rows, j+1)
			vals = append(vals, 1e6)
		}
		a.add(rows, vals)
	}
	cols := make([]int, m)
	for i := range cols {
		cols[i] = i
	}
	if _, ok := denseFactorize(a, cols); !ok {
		t.Skip("fixture unexpectedly dense-singular")
	}
	lu := NewLU(m)
	slots, ok := lu.Factorize(a, cols)
	if !ok {
		t.Fatal("LU failed on ill-scaled but nonsingular basis")
	}
	checkAgainstDense(t, lu, a, slots, rand.New(rand.NewSource(5)))
}
