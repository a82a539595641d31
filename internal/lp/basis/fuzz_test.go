package basis

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// fuzzMatrix decodes fuzz bytes into an m×m basis fixture. Byte 0 picks m
// (2..24); the rest are entries, as fuzzMatrixOf reads them.
func fuzzMatrix(data []byte) (*colMatrix, []int) {
	if len(data) == 0 {
		return nil, nil
	}
	return fuzzMatrixOf(2+int(data[0])%23, data[1:])
}

// fuzzMatrixOf builds an m×m basis fixture: each 3-byte triple (r, c, v) of
// entries adds v′ = (v−128)/16 at (r mod m, c mod m). A scaled identity
// keeps the fixture mostly nonsingular so the fuzzer spends its budget
// inside the factorization rather than on trivially rejected bases.
func fuzzMatrixOf(m int, entries []byte) (*colMatrix, []int) {
	dense := make([]float64, m*m)
	for i := 0; i < m; i++ {
		dense[i*m+i] = 1 + float64(i%3)
	}
	for p := 0; p+2 < len(entries); p += 3 {
		r := int(entries[p]) % m
		c := int(entries[p+1]) % m
		dense[r*m+c] += (float64(entries[p+2]) - 128) / 16
	}
	a := &colMatrix{m: m}
	cols := make([]int, m)
	for j := 0; j < m; j++ {
		var rows []int
		var vals []float64
		for i := 0; i < m; i++ {
			if v := dense[i*m+j]; v != 0 {
				rows = append(rows, i)
				vals = append(vals, v)
			}
		}
		a.add(rows, vals)
		cols[j] = j
	}
	return a, cols
}

// proxySeed builds a seed byte string shaped like the solver's real basis
// matrices for the SP/BT/CG workload proxies: a bidiagonal event-order
// chain, block convexity rows, and a dense power row — the structures
// emitted by internal/core's LP builder.
func proxySeed(m, blocks int, powerRow bool) []byte {
	seed := []byte{byte(m)}
	add := func(r, c int, v float64) {
		seed = append(seed, byte(r), byte(c), byte(128+int(v*16)))
	}
	for i := 1; i < m; i++ { // event-order chain: -1 below the diagonal
		add(i, i-1, -1)
	}
	if blocks > 0 { // convexity rows: a few columns share each row
		w := m / blocks
		if w < 1 {
			w = 1
		}
		for b := 0; b < blocks; b++ {
			r := (b * w) % m
			for k := 0; k < w; k++ {
				add(r, (b*w+k)%m, 0.5)
			}
		}
	}
	if powerRow { // dense power-cap row
		for c := 0; c < m; c++ {
			add(m-1, c, 2)
		}
	}
	return seed
}

// fuzzProbe derives an m-vector to solve against from the fuzz bytes.
func fuzzProbe(m int, data []byte) []float64 {
	v := make([]float64, m)
	for i := range v {
		v[i] = float64((i*7)%5) - 2
		if len(data) > i+1 {
			v[i] += float64(data[i+1]%16) / 8
		}
	}
	return v
}

// FuzzLU drives the Markowitz LU engine against the dense reference:
// factor, FTRAN/BTRAN fuzz-derived vectors, compare at a residual-scaled
// tolerance. Seeds mimic the SP/BT/CG proxy basis structure.
func FuzzLU(f *testing.F) {
	f.Add(proxySeed(8, 0, false)) // SP-like pure chain
	f.Add(proxySeed(16, 4, true)) // BT-like chain + convexity + power row
	f.Add(proxySeed(24, 8, true)) // CG-like wider blocks
	f.Add(proxySeed(5, 2, false))
	f.Add([]byte{12, 0, 0, 200, 3, 3, 10, 7, 2, 255})

	f.Fuzz(func(t *testing.T, data []byte) {
		a, cols := fuzzMatrix(data)
		if a == nil {
			return
		}
		m := a.m
		d, denseOK := denseFactorize(a, cols)
		lu := NewLU(m)
		slots, ok := lu.Factorize(a, cols)
		if !ok {
			// The engine may reject bases the dense reference squeaks
			// through near the pivot tolerance; it must not accept less
			// than the dense code rejects, and rejecting is always safe.
			return
		}
		if !denseOK {
			// Dense declared (near-)singular but LU factored it: verify the
			// factorization actually reproduces B·x = v below.
			d = nil
		}
		for i := range slots {
			if slots[i] != cols[i] {
				t.Fatalf("LU reassigned slot %d: %d != %d", i, slots[i], cols[i])
			}
		}

		v := fuzzProbe(m, data)
		x := append([]float64(nil), v...)
		lu.Ftran(x)
		// Residual check B·x = v (always available, even without dense).
		resid := append([]float64(nil), v...)
		for slot, j := range slots {
			rows, vals := a.Col(j)
			for k, r := range rows {
				resid[r] -= vals[k] * x[slot]
			}
		}
		norm := 1.0
		for _, xv := range x {
			if av := math.Abs(xv); av > norm {
				norm = av
			}
		}
		for i, rv := range resid {
			if math.Abs(rv) > 1e-6*norm {
				t.Fatalf("ftran residual row %d: %g (norm %g)", i, rv, norm)
			}
		}
		if d != nil {
			want := d.solve(v)
			for i := range want {
				if math.Abs(x[i]-want[i]) > 1e-6*(1+math.Abs(want[i])) {
					t.Fatalf("ftran vs dense slot %d: got %g want %g", i, x[i], want[i])
				}
			}
		}

		y := append([]float64(nil), v...)
		lu.Btran(y)
		residT := append([]float64(nil), v...)
		for slot, j := range slots {
			rows, vals := a.Col(j)
			dot := 0.0
			for k, r := range rows {
				dot += vals[k] * y[r]
			}
			residT[slot] -= dot
		}
		norm = 1.0
		for _, yv := range y {
			if av := math.Abs(yv); av > norm {
				norm = av
			}
		}
		for i, rv := range residT {
			if math.Abs(rv) > 1e-6*norm {
				t.Fatalf("btran residual slot %d: %g (norm %g)", i, rv, norm)
			}
		}
	})
}

// FuzzLUMatchesScan pins the reach-ordered LU to the step-scan reference
// (scan_test.go) bit for bit. One pooled pair is refactorized at m, then at
// a smaller and a larger size, as the solver's arena pool reuses an LU
// across problems.
func FuzzLUMatchesScan(f *testing.F) {
	f.Add(proxySeed(8, 0, false))
	f.Add(proxySeed(16, 4, true))
	f.Add(proxySeed(24, 8, true))
	f.Add(proxySeed(5, 2, false))
	f.Add([]byte{12, 0, 0, 200, 3, 3, 10, 7, 2, 255})

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		m := 2 + int(data[0])%23
		lu, ref := NewLU(m), newScanLU(m)
		for _, size := range []int{m, 2 + m/3, m + 17} {
			a, cols := fuzzMatrixOf(size, data[1:])
			checkMatchesScan(t, lu, ref, a, cols, fuzzProbe(size, data))
		}
	})
}

// TestLUMatchesScan covers what the fuzz fixtures cannot reach: the τ = 1
// retry, rejected and accepted, and standard-form-shaped bases of a few
// hundred rows, on one pooled pair resized down and up.
func TestLUMatchesScan(t *testing.T) {
	lu, ref := NewLU(8), newScanLU(8)
	// A basis singular to the pivot tolerance: both passes reject it.
	a, cols := thresholdRetryFixture()
	if checkMatchesScan(t, lu, ref, a, cols, fuzzProbe(len(cols), nil)) || lu.health.TauRetries != 1 {
		t.Fatalf("retry fixture: want a rejection after one retry, health %+v", lu.health)
	}
	// A basis only the retry accepts.
	a, cols = edgeRetryFixture()
	if !checkMatchesScan(t, lu, ref, a, cols, fuzzProbe(5, nil)) || lu.health.TauRetries != 2 {
		t.Fatalf("edge fixture: want acceptance after a retry, health %+v", lu.health)
	}

	rng := rand.New(rand.NewSource(16))
	for _, m := range []int{300, 60, 500} {
		a, cols := sparseBasis(rng, m)
		v := make([]float64, m)
		for i := range v {
			v[i] = rng.NormFloat64()
		}
		if !checkMatchesScan(t, lu, ref, a, cols, v) {
			t.Fatalf("m=%d: basis rejected", m)
		}
	}
}

// sparseBasis builds a standard-form-shaped m-row matrix and a basis that
// offers each structural column one random slot, keeping the swaps a
// separate LU accepts (randBasis's dense check is O(m³) per swap).
func sparseBasis(rng *rand.Rand, m int) (*colMatrix, []int) {
	a := randMatrix(rng, m, 3*m)
	cols := make([]int, m)
	for i := range cols {
		cols[i] = i
	}
	lu := NewLU(m)
	for j := m; j < a.n(); j++ {
		slot := rng.Intn(m)
		old := cols[slot]
		cols[slot] = j
		if _, ok := lu.Factorize(a, cols); !ok {
			cols[slot] = old
		}
	}
	return a, cols
}

// checkMatchesScan factorizes cols with lu and with the reference and
// requires identical results to the bit: the permutations, every L and U
// entry, the health counters, and FTRAN/BTRAN of v and of every unit
// vector. It reports whether the basis factorized.
func checkMatchesScan(t *testing.T, lu *LU, ref *scanLU, a Columns, cols []int, v []float64) bool {
	t.Helper()
	slots, ok := lu.Factorize(a, cols)
	refSlots, refOK := ref.Factorize(a, cols)
	if ok != refOK || !slices.Equal(slots, refSlots) {
		t.Fatalf("factorize: ok %v slots %v, reference ok %v slots %v", ok, slots, refOK, refSlots)
	}
	if lu.health != ref.health {
		t.Fatalf("health %+v, reference %+v", lu.health, ref.health)
	}
	for _, c := range []struct {
		name     string
		got, ref []int32
	}{
		{"p", lu.p, ref.p}, {"pinv", lu.pinv, ref.pinv}, {"ord", lu.ord, ref.ord},
		{"lPtr", lu.lPtr, ref.lPtr}, {"lRow", lu.lRow, ref.lRow},
		{"uPtr", lu.uPtr, ref.uPtr}, {"uRow", lu.uRow, ref.uRow},
	} {
		if !slices.Equal(c.got, c.ref) {
			t.Fatalf("%s: %v, reference %v", c.name, c.got, c.ref)
		}
	}
	sameBits(t, "lVal", lu.lVal, ref.lVal)
	sameBits(t, "uVal", lu.uVal, ref.uVal)
	sameBits(t, "uDiag", lu.uDiag, ref.uDiag)
	if !ok {
		return false
	}
	m := a.NumRows()
	probes := [][]float64{v}
	for i := 0; i < m; i++ {
		e := make([]float64, m)
		e[i] = 1
		probes = append(probes, e)
	}
	for _, b := range probes {
		x, y := slices.Clone(b), slices.Clone(b)
		lu.Ftran(x)
		ref.Ftran(y)
		sameBits(t, "ftran", x, y)
		x, y = slices.Clone(b), slices.Clone(b)
		lu.Btran(x)
		ref.Btran(y)
		sameBits(t, "btran", x, y)
	}
	return true
}

func sameBits(t *testing.T, name string, got, ref []float64) {
	t.Helper()
	if len(got) != len(ref) {
		t.Fatalf("%s: length %d, reference %d", name, len(got), len(ref))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(ref[i]) {
			t.Fatalf("%s[%d]: %v, reference %v", name, i, got[i], ref[i])
		}
	}
}
