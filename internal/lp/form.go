package lp

import (
	"math"
	"slices"
	"sync"
)

// The form builder: every solve reaches the kernel through buildForm, which
// reads a Problem's rows once and writes the standard form's CSC and CSR
// directly, with the power-of-two equilibration folded in (DESIGN.md §14).

// scaleSpread is the max/min coefficient-magnitude ratio above which
// equilibration engages. Below it the matrix is already well conditioned
// and the form carries the stated coefficients exactly.
const scaleSpread = 1 << 12

// formScratch is buildForm's working memory, pooled across builds: the
// dense row accumulator and each row's summed terms, columns ascending.
type formScratch struct {
	acc     []float64
	seen    []bool
	touched []Var
	cols    []Var
	vals    []float64
	rowEnd  []int
	rel     []Rel
	next    []int
	logSum  []float64
	cnt     []int
	logFrac []float64 // per nonzero: logFrac of its magnitude
}

var formPool = sync.Pool{New: func() any { return new(formScratch) }}

// buildForm builds the kernel's standard form of p. rhs, when non-nil,
// replaces p's right-hand sides row for row. With scale set, the rows and
// columns are equilibrated by powers of two once the coefficient magnitudes
// spread past scaleSpread:
//
//   - row i's factor is the power of two nearest 1/geomean of its |a|, the
//     log sum taken over its columns in ascending order;
//   - column j's factor is the power of two nearest 1/geomean of its
//     row-scaled |a|, the log sum taken over its rows in ascending order;
//   - a coefficient becomes a·(rowScale·colScale), a right-hand side
//     b·rowScale and a cost c·colScale.
//
// Every factor is a power of two, so applying one is exact; the two log
// sums are the only order-sensitive arithmetic. Each row's duplicate terms
// are summed in term order and zero sums dropped, then a row with a
// negative right-hand side is negated (rowSign) so that b ≥ 0, and the
// auxiliary columns follow: slacks and surpluses in row order, then
// artificials in row order.
func buildForm(p *Problem, rhs []float64, scale bool) *spForm {
	m, nOrig := len(p.rows), len(p.names)
	sc := formPool.Get().(*formScratch)
	defer formPool.Put(sc)
	sc.acc = growFloats(sc.acc, nOrig)
	sc.seen = growBools(sc.seen, nOrig)
	sc.rowEnd = growInts(sc.rowEnd, m)
	sc.rel = slices.Grow(sc.rel[:0], m)[:m]
	clear(sc.acc)
	clear(sc.seen)
	cols, vals := sc.cols[:0], sc.vals[:0]

	// Each row's terms summed in a dense accumulator cleared through the
	// columns the row touched, zeros dropped, columns sorted.
	minA, maxA := math.Inf(1), 0.0
	for i := range p.rows {
		touched := sc.touched[:0]
		for _, t := range p.rows[i].terms {
			if !sc.seen[t.Var] {
				sc.seen[t.Var] = true
				touched = append(touched, t.Var)
			}
			sc.acc[t.Var] += t.Coef
		}
		lo := len(cols)
		for _, v := range touched {
			if sc.acc[v] != 0 {
				cols = append(cols, v)
			}
		}
		slices.Sort(cols[lo:])
		for _, v := range cols[lo:] {
			a := sc.acc[v]
			vals = append(vals, a)
			a = math.Abs(a)
			if a < minA {
				minA = a
			}
			if a > maxA {
				maxA = a
			}
		}
		for _, v := range touched {
			sc.acc[v], sc.seen[v] = 0, false
		}
		sc.touched = touched
		sc.rowEnd[i] = len(cols)
	}
	sc.cols, sc.vals = cols, vals

	f := &spForm{m: m, nOrig: nOrig, maximize: p.sense == Maximize}
	scaled := scale && maxA != 0 && finite(maxA) && finite(minA) && maxA/minA > scaleSpread
	if scaled {
		f.rowScale, f.colScale = equilibrate(sc, nOrig)
	}

	// Right-hand sides, signs and relations as the form states them.
	f.b = make([]float64, m)
	f.rowSign = make([]float64, m)
	slacks, arts := 0, 0
	for i := range p.rows {
		b := p.rows[i].rhs
		if rhs != nil {
			b = rhs[i]
		}
		if scaled {
			b *= f.rowScale[i]
		}
		sign, rel := 1.0, p.rows[i].rel
		if b < 0 {
			sign, rel = -1, flipRel(rel)
		}
		f.b[i], f.rowSign[i], sc.rel[i] = sign*b, sign, rel
		switch rel {
		case LE:
			slacks++
		case GE:
			slacks++
			arts++
		case EQ:
			arts++
		}
	}
	n := nOrig + slacks + arts
	f.n, f.nReal = n, nOrig+slacks
	f.maxIters = 200 * (m + n + 10)

	// The matrix row by row (CSR): each row's structural coefficients as
	// the form holds them, columns ascending and zeros dropped (a scaled
	// product can underflow), then its auxiliary columns, slack or surplus
	// before artificial. Columns are counted on the way.
	f.artificial = make([]bool, n)
	f.auxCol = make([]int, m)
	f.auxSign = make([]float64, m)
	f.colOwner = make([]int, n)
	f.initBasis = make([]int, m)
	f.rowPtr = make([]int, m+1)
	f.colIdx = make([]int32, 0, len(vals)+slacks+arts)
	f.rowVals = make([]float64, 0, len(vals)+slacks+arts)
	f.colPtr = make([]int, n+1)
	for j := 0; j < nOrig; j++ {
		f.colOwner[j] = -1
	}
	aux := func(i, j int, v float64) {
		f.colOwner[j] = i
		f.colIdx = append(f.colIdx, int32(j))
		f.rowVals = append(f.rowVals, v)
		f.colPtr[j+1]++
	}
	slackCol, artCol := nOrig, nOrig+slacks
	lo := 0
	for i := range p.rows {
		rs, sign := 1.0, f.rowSign[i]
		if scaled {
			rs = f.rowScale[i]
		}
		norm := 0.0
		for k := lo; k < sc.rowEnd[i]; k++ {
			j, a := cols[k], vals[k]
			if scaled {
				a *= rs * f.colScale[j]
			}
			if a *= sign; a == 0 {
				continue
			}
			f.colIdx = append(f.colIdx, int32(j))
			f.rowVals = append(f.rowVals, a)
			f.colPtr[j+1]++
			if a := math.Abs(a); a > norm {
				norm = a // unlike max, skips a NaN
			}
		}
		lo = sc.rowEnd[i]
		if norm != 0 && finite(norm) {
			f.normMax = max(f.normMax, norm)
			if f.normMin == 0 || norm < f.normMin {
				f.normMin = norm
			}
		}
		switch sc.rel[i] {
		case LE:
			f.auxCol[i], f.auxSign[i], f.initBasis[i] = slackCol, 1, slackCol
			aux(i, slackCol, 1)
			slackCol++
		case GE:
			f.auxCol[i], f.auxSign[i], f.initBasis[i] = slackCol, -1, artCol
			aux(i, slackCol, -1)
			aux(i, artCol, 1)
			f.artificial[artCol] = true
			slackCol++
			artCol++
		case EQ:
			f.auxCol[i], f.auxSign[i], f.initBasis[i] = artCol, 1, artCol
			aux(i, artCol, 1)
			f.artificial[artCol] = true
			artCol++
		}
		f.rowPtr[i+1] = len(f.colIdx)
	}

	// The same matrix by column (CSC), by counting: each column receives
	// its rows ascending.
	for j := 0; j < n; j++ {
		f.colPtr[j+1] += f.colPtr[j]
	}
	f.rowIdx = make([]int, len(f.colIdx))
	f.vals = make([]float64, len(f.colIdx))
	next := append(sc.next[:0], f.colPtr[:n]...)
	sc.next = next
	for i := 0; i < m; i++ {
		for k := f.rowPtr[i]; k < f.rowPtr[i+1]; k++ {
			j := f.colIdx[k]
			f.rowIdx[next[j]], f.vals[next[j]] = i, f.rowVals[k]
			next[j]++
		}
	}

	// Phase-2 costs, minimize-normalized.
	f.cost = make([]float64, n)
	for j, c := range p.obj {
		if scaled {
			c *= f.colScale[j]
		}
		if f.maximize {
			c = -c
		}
		f.cost[j] = c
	}
	return f
}

// equilibrate computes the power-of-two row and column factors of the
// summed rows in sc (see buildForm). Each nonzero's logarithm is taken
// once: math.Log2 takes the natural log of the Frexp fraction, and the row
// pass keeps it. A row factor is a power of two, so a row-scaled value has
// the same fraction, and the column pass reuses the log with the scaled
// value's exponent. Where the scaled value is not a normal float the
// product may have rounded, and the column pass takes math.Log2 of it
// afresh.
func equilibrate(sc *formScratch, nOrig int) (rowScale, colScale []float64) {
	m := len(sc.rowEnd)
	sc.logFrac = growFloats(sc.logFrac, len(sc.vals))
	rowScale = make([]float64, m)
	lo := 0
	for i := range rowScale {
		s, n := 0.0, 0
		for k := lo; k < sc.rowEnd[i]; k++ {
			if a := math.Abs(sc.vals[k]); a > 0 && finite(a) {
				sc.logFrac[k] = logFrac(a)
				s += log2With(a, sc.logFrac[k])
				n++
			}
		}
		g := 1.0 // the geometric mean of the row's nonzero finite magnitudes
		if n > 0 {
			g = math.Exp2(s / float64(n))
		}
		rowScale[i] = pow2Inverse(g)
		lo = sc.rowEnd[i]
	}
	sc.logSum = growFloats(sc.logSum, nOrig)
	sc.cnt = growInts(sc.cnt, nOrig)
	clear(sc.logSum)
	clear(sc.cnt)
	lo = 0
	for i, rs := range rowScale {
		frac, _ := math.Frexp(rs)
		pow2 := frac == 0.5
		for k := lo; k < sc.rowEnd[i]; k++ {
			if a := math.Abs(sc.vals[k]) * rs; a > 0 && finite(a) {
				var l float64
				if pow2 && a >= minNormal {
					l = log2With(a, sc.logFrac[k])
				} else {
					l = math.Log2(a)
				}
				c := sc.cols[k]
				sc.logSum[c] += l
				sc.cnt[c]++
			}
		}
		lo = sc.rowEnd[i]
	}
	colScale = make([]float64, nOrig)
	for j := range colScale {
		colScale[j] = 1
		if sc.cnt[j] > 0 {
			colScale[j] = math.Exp2(-math.Round(sc.logSum[j] / float64(sc.cnt[j])))
		}
	}
	return rowScale, colScale
}

// minNormal is the smallest positive normal float64.
const minNormal = 0x1p-1022

// logFrac is the one logarithm math.Log2 takes of a positive finite x: the
// natural log of its Frexp fraction (none, so 0 here, for a power of two).
func logFrac(x float64) float64 {
	frac, _ := math.Frexp(x)
	if frac == 0.5 {
		return 0
	}
	return math.Log(frac)
}

// log2With is math.Log2(x), bit for bit, given the natural log of x's Frexp
// fraction: the value logFrac returns for x or for any x·2^k in the normal
// range, which has the same fraction.
func log2With(x, logFrac float64) float64 {
	frac, exp := math.Frexp(x)
	if frac == 0.5 {
		return float64(exp - 1)
	}
	return logFrac*(1/math.Ln2) + float64(exp)
}

// pow2Inverse returns the power of two nearest to 1/g.
func pow2Inverse(g float64) float64 {
	if !(g > 0) || !finite(g) {
		return 1
	}
	return math.Exp2(-math.Round(math.Log2(g)))
}

// unscale maps a solution in the form's space back through its
// equilibration: x_j·colScale_j and y_i·rowScale_i, exact because every
// factor is a power of two.
func (f *spForm) unscale(sol *Solution) {
	if f.colScale == nil {
		return
	}
	for j := range sol.X {
		sol.X[j] *= f.colScale[j]
	}
	for i := range sol.Dual {
		sol.Dual[i] *= f.rowScale[i]
	}
}

// flipRel is the relation of a row after multiplying both sides by −1.
func flipRel(r Rel) Rel {
	switch r {
	case LE:
		return GE
	case GE:
		return LE
	default:
		return EQ
	}
}
