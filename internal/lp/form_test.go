package lp

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// The form oracle: the kernel's standard form as it was built before
// buildForm, one copy after another — neutralize (a snapshot in a neutral
// row form), row summation with equilibration (oldScaleOnly, oldScale),
// realize (back to a Problem), the per-column form (oldSpForm) and its CSR
// transpose (oldCSR). The builder must reproduce it to the bit.

// oracleRow is one constraint a·x rel rhs in the oracle's neutral form.
type oracleRow struct {
	cols []int
	vals []float64
	rel  Rel
	rhs  float64
}

// oracleProblem is the oracle's neutral snapshot of a Problem: costs in
// the problem's own sense, and its rows.
type oracleProblem struct {
	numVars int
	cost    []float64
	rows    []oracleRow
}

// neutralize snapshots p in the oracle's neutral form. Nothing is shared
// mutably: the oracle copies what it rewrites.
func neutralize(p *Problem) *oracleProblem {
	np := &oracleProblem{numVars: len(p.names), cost: p.obj, rows: make([]oracleRow, len(p.rows))}
	for i, r := range p.rows {
		nr := oracleRow{rel: r.rel, rhs: r.rhs, cols: make([]int, len(r.terms)), vals: make([]float64, len(r.terms))}
		for k, t := range r.terms {
			nr.cols[k] = int(t.Var)
			nr.vals[k] = t.Coef
		}
		np.rows[i] = nr
	}
	return np
}

// realize turns the oracle's problem np back into a Problem with p's
// sense. Its names are the defaults: nothing renders them.
func realize(p *Problem, np *oracleProblem) *Problem {
	rp := &Problem{
		sense: p.sense,
		names: make([]Name, np.numVars),
		obj:   np.cost,
		rows:  make([]constraint, len(np.rows)),
	}
	for i, row := range np.rows {
		terms := make([]Term, len(row.cols))
		for k, c := range row.cols {
			terms[k] = Term{Var: Var(c), Coef: row.vals[k]}
		}
		rp.rows[i] = constraint{terms: terms, rel: row.rel, rhs: row.rhs}
	}
	return rp
}

// oldReduction is the oracle's summed and equilibrated problem with its
// factors and row norms.
type oldReduction struct {
	p          *oracleProblem
	rowScale   []float64
	colScale   []float64
	normMax    float64
	normMin    float64
	scaledRows bool
}

// oldScaleOnly sums each row's terms in term order in a dense scratch,
// drops zeros and sorts the columns, then equilibrates (oldScale).
func oldScaleOnly(p *oracleProblem) *oldReduction {
	rp := &oracleProblem{numVars: p.numVars, cost: append([]float64(nil), p.cost...)}
	acc := make([]float64, p.numVars)
	seen := make([]bool, p.numVars)
	var touched []int
	for _, row := range p.rows {
		for k, c := range row.cols {
			if !seen[c] {
				seen[c] = true
				touched = append(touched, c)
			}
			acc[c] += row.vals[k]
		}
		nr := oracleRow{rel: row.rel, rhs: row.rhs}
		for _, c := range touched {
			if acc[c] != 0 {
				nr.cols = append(nr.cols, c)
			}
		}
		slices.Sort(nr.cols)
		nr.vals = make([]float64, len(nr.cols))
		for k, c := range nr.cols {
			nr.vals[k] = acc[c]
		}
		for _, c := range touched {
			acc[c], seen[c] = 0, false
		}
		touched = touched[:0]
		rp.rows = append(rp.rows, nr)
	}
	return oldScale(rp)
}

// oldScale equilibrates p in place with power-of-two factors when the
// coefficient spread warrants it.
func oldScale(p *oracleProblem) *oldReduction {
	r := &oldReduction{p: p}
	r.rowScale = oldOnes(len(p.rows))
	r.colScale = oldOnes(p.numVars)

	minA, maxA := math.Inf(1), 0.0
	for i := range p.rows {
		for _, v := range p.rows[i].vals {
			a := math.Abs(v)
			if a < minA {
				minA = a
			}
			if a > maxA {
				maxA = a
			}
		}
	}
	if maxA == 0 || !finite(maxA) || !finite(minA) || maxA/minA <= scaleSpread {
		r.measureRowNorms()
		return r
	}
	r.scaledRows = true

	for i := range p.rows {
		r.rowScale[i] = oldPow2Inverse(oldGeomean(p.rows[i].vals))
	}
	logSum := make([]float64, p.numVars)
	cnt := make([]int, p.numVars)
	for i := range p.rows {
		for k, c := range p.rows[i].cols {
			a := math.Abs(p.rows[i].vals[k]) * r.rowScale[i]
			if a > 0 && finite(a) {
				logSum[c] += math.Log2(a)
				cnt[c]++
			}
		}
	}
	for j := 0; j < p.numVars; j++ {
		if cnt[j] > 0 {
			r.colScale[j] = math.Exp2(-math.Round(logSum[j] / float64(cnt[j])))
		}
	}

	for i := range p.rows {
		row := &p.rows[i]
		rs := r.rowScale[i]
		for k, c := range row.cols {
			row.vals[k] *= rs * r.colScale[c]
		}
		row.rhs *= rs
	}
	for j := range p.cost {
		p.cost[j] *= r.colScale[j]
	}
	r.measureRowNorms()
	return r
}

func (r *oldReduction) measureRowNorms() {
	lo, hi := math.Inf(1), 0.0
	for i := range r.p.rows {
		n := 0.0
		for _, v := range r.p.rows[i].vals {
			if a := math.Abs(v); a > n {
				n = a
			}
		}
		if n == 0 || !finite(n) {
			continue
		}
		if n < lo {
			lo = n
		}
		if n > hi {
			hi = n
		}
	}
	if hi > 0 && finite(lo) {
		r.normMax, r.normMin = hi, lo
	}
}

func oldGeomean(vals []float64) float64 {
	s, n := 0.0, 0
	for _, v := range vals {
		a := math.Abs(v)
		if a > 0 && finite(a) {
			s += math.Log2(a)
			n++
		}
	}
	if n == 0 {
		return 1
	}
	return math.Exp2(s / float64(n))
}

func oldPow2Inverse(g float64) float64 {
	if !(g > 0) || !finite(g) {
		return 1
	}
	return math.Exp2(-math.Round(math.Log2(g)))
}

func oldOnes(n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = 1
	}
	return s
}

// oldSpForm converts a Problem to sparse standard form column by column.
func oldSpForm(p *Problem) *spForm {
	m := len(p.rows)
	nOrig := len(p.names)

	slacks, arts := 0, 0
	for _, r := range p.rows {
		rel := r.rel
		if r.rhs < 0 {
			rel = flipRel(rel)
		}
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

	f := &spForm{
		m: m, n: n,
		nOrig:      nOrig,
		nReal:      nOrig + slacks,
		b:          make([]float64, m),
		cost:       make([]float64, n),
		artificial: make([]bool, n),
		auxCol:     make([]int, m),
		auxSign:    make([]float64, m),
		rowSign:    make([]float64, m),
		colOwner:   make([]int, n),
		initBasis:  make([]int, m),
		maxIters:   200 * (m + n + 10),
		maximize:   p.sense == Maximize,
	}
	for j := range f.colOwner {
		f.colOwner[j] = -1
	}

	type rowVal struct {
		row int
		val float64
	}
	structural := make([][]rowVal, nOrig)
	slackCol := nOrig
	artCol := nOrig + slacks
	acc := make([]float64, nOrig)
	seen := make([]bool, nOrig)
	var touched []int
	for i, r := range p.rows {
		sign := 1.0
		rel := r.rel
		if r.rhs < 0 {
			sign = -1
			rel = flipRel(rel)
		}
		for _, term := range r.terms {
			v := int(term.Var)
			if !seen[v] {
				seen[v] = true
				touched = append(touched, v)
			}
			acc[v] += sign * term.Coef
		}
		for _, v := range touched {
			if c := acc[v]; c != 0 {
				structural[v] = append(structural[v], rowVal{row: i, val: c})
			}
			acc[v], seen[v] = 0, false
		}
		touched = touched[:0]
		f.b[i] = sign * r.rhs
		f.rowSign[i] = sign

		switch rel {
		case LE:
			f.auxCol[i], f.auxSign[i] = slackCol, 1
			f.colOwner[slackCol] = i
			f.initBasis[i] = slackCol
			slackCol++
		case GE:
			f.auxCol[i], f.auxSign[i] = slackCol, -1
			f.colOwner[slackCol] = i
			slackCol++
			f.artificial[artCol] = true
			f.colOwner[artCol] = i
			f.initBasis[i] = artCol
			artCol++
		case EQ:
			f.auxCol[i], f.auxSign[i] = artCol, 1
			f.artificial[artCol] = true
			f.colOwner[artCol] = i
			f.initBasis[i] = artCol
			artCol++
		}
	}

	nnz := 0
	for _, c := range structural {
		nnz += len(c)
	}
	nnz += slacks + arts
	f.colPtr = make([]int, n+1)
	f.rowIdx = make([]int, 0, nnz)
	f.vals = make([]float64, 0, nnz)
	for j := 0; j < nOrig; j++ {
		f.colPtr[j] = len(f.rowIdx)
		for _, rv := range structural[j] {
			f.rowIdx = append(f.rowIdx, rv.row)
			f.vals = append(f.vals, rv.val)
		}
	}
	for j := nOrig; j < n; j++ {
		f.colPtr[j] = len(f.rowIdx)
		i := f.colOwner[j]
		v := 1.0
		if !f.artificial[j] && f.auxCol[i] == j {
			v = f.auxSign[i]
		}
		f.rowIdx = append(f.rowIdx, i)
		f.vals = append(f.vals, v)
	}
	f.colPtr[n] = len(f.rowIdx)

	for j := 0; j < nOrig; j++ {
		c := p.obj[j]
		if p.sense == Maximize {
			c = -c
		}
		f.cost[j] = c
	}
	oldCSR(f)
	return f
}

// oldCSR transposes the CSC storage into row-major form.
func oldCSR(f *spForm) {
	f.rowPtr = make([]int, f.m+1)
	for _, r := range f.rowIdx {
		f.rowPtr[r+1]++
	}
	for i := 0; i < f.m; i++ {
		f.rowPtr[i+1] += f.rowPtr[i]
	}
	f.colIdx = make([]int32, len(f.rowIdx))
	f.rowVals = make([]float64, len(f.vals))
	next := append([]int(nil), f.rowPtr[:f.m]...)
	for j := 0; j < f.n; j++ {
		lo, hi := f.colPtr[j], f.colPtr[j+1]
		for k := lo; k < hi; k++ {
			r := f.rowIdx[k]
			f.colIdx[next[r]] = int32(j)
			f.rowVals[next[r]] = f.vals[k]
			next[r]++
		}
	}
}

// oldForm is the oracle's form of p with right-hand sides rhs (nil: p's
// own), scaled or not, with its reduction (nil unscaled).
func oldForm(p *Problem, rhs []float64, scale bool) (*spForm, *oldReduction) {
	q := p
	if rhs != nil {
		q = p.Clone()
		for i := range q.rows {
			q.rows[i].rhs = rhs[i]
		}
	}
	if !scale {
		return oldSpForm(q), nil
	}
	red := oldScaleOnly(neutralize(q))
	return oldSpForm(realize(q, red.p)), red
}

// sameBits reports the first index where two float slices differ bitwise.
func sameBits(a, b []float64) (int, bool) {
	if len(a) != len(b) {
		return -1, false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i, false
		}
	}
	return 0, true
}

// checkSameForm requires got to equal the oracle's form want, with its
// reduction red, array for array and bit for bit.
func checkSameForm(t *testing.T, what string, got, want *spForm, red *oldReduction) {
	t.Helper()
	if got.m != want.m || got.n != want.n || got.nOrig != want.nOrig || got.nReal != want.nReal ||
		got.maxIters != want.maxIters || got.maximize != want.maximize {
		t.Fatalf("%s: shape m=%d n=%d nOrig=%d nReal=%d maxIters=%d max=%v, oracle m=%d n=%d nOrig=%d nReal=%d maxIters=%d max=%v",
			what, got.m, got.n, got.nOrig, got.nReal, got.maxIters, got.maximize,
			want.m, want.n, want.nOrig, want.nReal, want.maxIters, want.maximize)
	}
	ints := []struct {
		name      string
		got, want []int
	}{
		{"colPtr", got.colPtr, want.colPtr}, {"rowIdx", got.rowIdx, want.rowIdx},
		{"rowPtr", got.rowPtr, want.rowPtr}, {"auxCol", got.auxCol, want.auxCol},
		{"colOwner", got.colOwner, want.colOwner}, {"initBasis", got.initBasis, want.initBasis},
	}
	for _, c := range ints {
		if !slices.Equal(c.got, c.want) {
			t.Fatalf("%s: %s %v, oracle %v", what, c.name, c.got, c.want)
		}
	}
	if !slices.Equal(got.colIdx, want.colIdx) {
		t.Fatalf("%s: colIdx %v, oracle %v", what, got.colIdx, want.colIdx)
	}
	if !slices.Equal(got.artificial, want.artificial) {
		t.Fatalf("%s: artificial %v, oracle %v", what, got.artificial, want.artificial)
	}
	floats := []struct {
		name      string
		got, want []float64
	}{
		{"vals", got.vals, want.vals}, {"rowVals", got.rowVals, want.rowVals},
		{"b", got.b, want.b}, {"cost", got.cost, want.cost},
		{"auxSign", got.auxSign, want.auxSign}, {"rowSign", got.rowSign, want.rowSign},
	}
	rowScale, colScale := got.rowScale, got.colScale
	if rowScale == nil {
		rowScale, colScale = oldOnes(got.m), oldOnes(got.nOrig)
	}
	normMax, normMin := 0.0, 0.0
	if red != nil {
		floats = append(floats,
			struct {
				name      string
				got, want []float64
			}{"rowScale", rowScale, red.rowScale},
			struct {
				name      string
				got, want []float64
			}{"colScale", colScale, red.colScale})
		normMax, normMin = red.normMax, red.normMin
		if (got.rowScale != nil) != red.scaledRows {
			t.Fatalf("%s: scaled %v, oracle %v", what, got.rowScale != nil, red.scaledRows)
		}
	} else if got.rowScale != nil {
		t.Fatalf("%s: an unscaled form carries scale factors", what)
	}
	for _, c := range floats {
		if k, ok := sameBits(c.got, c.want); !ok {
			t.Fatalf("%s: %s differs at %d: %v, oracle %v", what, c.name, k, c.got, c.want)
		}
	}
	if red != nil {
		if k, ok := sameBits([]float64{got.normMax, got.normMin}, []float64{normMax, normMin}); !ok {
			t.Fatalf("%s: row norm %d: %g/%g, oracle %g/%g", what, k, got.normMax, got.normMin, normMax, normMin)
		}
	}
}

// oldSolve is Solve as it ran on the oracle's forms: the same kernel,
// reached through the copy chain, on a problem with rows.
func oldSolve(p *Problem, opts ...Option) (*Solution, error) {
	var o Options
	for _, opt := range opts {
		opt(&o)
	}
	if o.StallWindow == 0 {
		o.StallWindow = stallWindow
	}
	if o.NoScaling {
		return oldSolveStated(p, &o, false)
	}
	sol, err := oldSolveStated(p, &o, true)
	if _, ok := err.(*NumericalError); ok {
		o.NoScaling, o.WarmBasis = true, nil
		if sol, err = oldSolveStated(p, &o, false); err == nil {
			sol.Stats.Rescues = 1
		}
	}
	return sol, err
}

// oldSolveStated solves the oracle's form of p, scaled or not, and maps an
// optimum back through the reduction's factors.
func oldSolveStated(p *Problem, o *Options, scale bool) (*Solution, error) {
	f, red := oldForm(p, nil, scale)
	sol, err := solveSparse(f, o)
	if err != nil {
		return nil, err
	}
	if red != nil {
		sol.Stats.RowNormMax, sol.Stats.RowNormMin = red.normMax, red.normMin
	}
	if sol.Status != Optimal {
		return sol, nil
	}
	if red != nil {
		for j := range sol.X {
			sol.X[j] *= red.colScale[j]
		}
		for i := range sol.Dual {
			sol.Dual[i] *= red.rowScale[i]
		}
	}
	sol.Objective = objective(p, sol.X)
	return sol, nil
}

// checkSameSolve requires Solve to return what the oracle's solve returns,
// bit for bit: status, objective, primal, dual, basis and every stats
// count.
func checkSameSolve(t *testing.T, what string, p *Problem, opts ...Option) *Solution {
	t.Helper()
	want, werr := oldSolve(p, opts...)
	got, gerr := Solve(p, opts...)
	if (werr == nil) != (gerr == nil) {
		t.Fatalf("%s: error %v, oracle %v", what, gerr, werr)
	}
	if gerr != nil {
		return nil
	}
	if got.Status != want.Status || got.Iters != want.Iters {
		t.Fatalf("%s: %v after %d pivots, oracle %v after %d", what, got.Status, got.Iters, want.Status, want.Iters)
	}
	if _, ok := sameBits([]float64{got.Objective}, []float64{want.Objective}); !ok {
		t.Fatalf("%s: objective %.17g, oracle %.17g", what, got.Objective, want.Objective)
	}
	if k, ok := sameBits(got.X, want.X); !ok {
		t.Fatalf("%s: X differs at %d: %v, oracle %v", what, k, got.X, want.X)
	}
	if k, ok := sameBits(got.Dual, want.Dual); !ok || (got.Dual == nil) != (want.Dual == nil) {
		t.Fatalf("%s: Dual differs at %d: %v, oracle %v", what, k, got.Dual, want.Dual)
	}
	if !slices.Equal(got.Basis, want.Basis) || (got.Basis == nil) != (want.Basis == nil) {
		t.Fatalf("%s: Basis %v, oracle %v", what, got.Basis, want.Basis)
	}
	gs, ws := got.Stats, want.Stats
	gs.Wall, ws.Wall = 0, 0
	if k, ok := sameBits([]float64{gs.RowNormMax, gs.RowNormMin}, []float64{ws.RowNormMax, ws.RowNormMin}); !ok {
		t.Fatalf("%s: row norm %d: %+v, oracle %+v", what, k, gs, ws)
	}
	gs.RowNormMax, gs.RowNormMin, ws.RowNormMax, ws.RowNormMin = 0, 0, 0, 0
	if gs != ws {
		t.Fatalf("%s: stats %+v, oracle %+v", what, gs, ws)
	}
	return got
}

// randomFormLP draws a small LP that exercises every ingestion rule: mixed
// ≤/≥/= rows, negative right-hand sides, duplicate and cancelling terms,
// explicit zeros, empty rows, problems with no rows, maximization, and
// coefficient spreads below and above the scaling threshold. A box row
// keeps most of them bounded.
func randomFormLP(rng *rand.Rand) *Problem {
	sense := Minimize
	if rng.Intn(4) == 0 {
		sense = Maximize
	}
	p := NewProblem(sense)
	n := 1 + rng.Intn(7)
	wide := rng.Intn(2) == 0 // spread coefficients past the threshold
	coef := func() float64 {
		c := float64(rng.Intn(17)-8) / 4
		if wide && rng.Intn(3) == 0 {
			c *= math.Ldexp(1+rng.Float64(), rng.Intn(41)-20)
		}
		return c
	}
	for j := 0; j < n; j++ {
		c := coef()
		if sense == Maximize {
			c = -c
		}
		p.AddVar("", c)
	}
	m := rng.Intn(7)
	for i := 0; i < m; i++ {
		var e Expr
		for k := rng.Intn(6); k > 0; k-- {
			v := Var(rng.Intn(n))
			switch c := coef(); rng.Intn(6) {
			case 0: // an explicit zero
				e = e.Plus(v, 0)
			case 1: // a cancelling pair
				e = e.Plus(v, c).Plus(v, -c)
			case 2: // a duplicate that sums
				e = e.Plus(v, c).Plus(v, coef())
			default:
				e = e.Plus(v, c)
			}
		}
		rhs := float64(rng.Intn(41)-12) / 2
		if wide && rng.Intn(3) == 0 {
			rhs *= math.Ldexp(1, rng.Intn(21)-10)
		}
		p.MustConstraint("", e, Rel(rng.Intn(3)), rhs)
	}
	if m > 0 && rng.Intn(3) > 0 {
		var box Expr
		for j := 0; j < n; j++ {
			box = box.Plus(Var(j), 1)
		}
		p.MustConstraint("box", box, LE, 50)
	}
	return p
}

// checkFormAndSolves compares p's forms, stated (scaled and not) and with
// some right-hand sides moved (a walk segment's lowering), and its solves
// cold, unscaled and from the cold answer's basis, against the oracle. A
// problem without rows never reaches the kernel (TestSolveRowFree).
func checkFormAndSolves(t *testing.T, what string, p *Problem, rng *rand.Rand) {
	t.Helper()
	for _, scale := range []bool{false, true} {
		want, red := oldForm(p, nil, scale)
		checkSameForm(t, what+" stated", buildForm(p, nil, scale), want, red)

		rhs := make([]float64, len(p.rows))
		for i := range rhs {
			rhs[i] = p.rows[i].rhs
			if rng.Intn(2) == 0 {
				rhs[i] -= float64(rng.Intn(9)) / 2 // past zero, the row flips
			}
		}
		want, red = oldForm(p, rhs, scale)
		checkSameForm(t, what+" lowered", buildForm(p, rhs, scale), want, red)
	}
	if len(p.rows) == 0 {
		return
	}

	cold := checkSameSolve(t, what+" cold", p)
	checkSameSolve(t, what+" unscaled", p, WithoutScaling())
	basis := []int{}
	for i := range p.rows {
		basis = append(basis, len(p.names)+i)
	}
	if cold != nil && cold.Status == Optimal {
		basis = cold.Basis
	}
	i := rng.Intn(len(p.rows))
	old := p.rows[i].rhs
	p.rows[i].rhs -= 1
	checkSameSolve(t, what+" warm", p, WithWarmBasis(basis))
	p.rows[i].rhs = old
}

// TestFormMatchesOracle: the form builder reproduces the copy chain's form
// bit for bit on random problems, and Solve its answers.
func TestFormMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	scaled := 0
	for k := 0; k < 600; k++ {
		p := randomFormLP(rng)
		if f := buildForm(p, nil, true); f.rowScale != nil {
			scaled++
		}
		checkFormAndSolves(t, "random", p, rng)
	}
	if scaled < 100 {
		t.Fatalf("only %d of 600 problems engaged scaling", scaled)
	}
}

// FuzzForm: the form builder and Solve against the oracle on random
// problems drawn from a fuzzed seed.
func FuzzForm(f *testing.F) {
	for _, seed := range []int64{1, 2, 3, 19, 42} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		checkFormAndSolves(t, "fuzz", randomFormLP(rng), rng)
	})
}

// TestLog2With: log2With is math.Log2 bit for bit, subnormals and exact
// powers of two included, and a power-of-two scaling that stays normal can
// reuse the unscaled value's logFrac.
func TestLog2With(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	xs := []float64{1, 0.5, 3, math.MaxFloat64, minNormal, math.SmallestNonzeroFloat64, 0x1p-1060, 0x1.8p-1030}
	for k := 0; k < 20000; k++ {
		xs = append(xs, math.Ldexp(0.5+rng.Float64()/2, rng.Intn(2098)-1073))
	}
	for _, x := range xs {
		lf := logFrac(x)
		if got, want := log2With(x, lf), math.Log2(x); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("x %g: %v, math.Log2 %v", x, got, want)
		}
		shift := rng.Intn(241) - 120
		if y := math.Ldexp(x, shift); y >= minNormal && finite(y) {
			if got, want := log2With(y, lf), math.Log2(y); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("x %g scaled by 2^%d: %v, math.Log2 %v", x, shift, got, want)
			}
		}
	}
}

// TestEquilibrateLogSums: the column pass's log sums are those of
// math.Log2 on every row-scaled value, bit for bit, over magnitudes from
// the subnormal range to the largest floats, so some scaled values are
// subnormal (where the pass takes math.Log2 afresh) and some overflow.
func TestEquilibrateLogSums(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 200; trial++ {
		const nOrig = 6
		sc := new(formScratch)
		m := 1 + rng.Intn(6)
		sc.rowEnd = make([]int, m)
		for i := range sc.rowEnd {
			for c := 0; c < nOrig; c++ {
				if rng.Intn(3) == 0 {
					continue
				}
				sc.cols = append(sc.cols, Var(c))
				v := math.Ldexp(0.5+rng.Float64()/2, rng.Intn(2098)-1073)
				if rng.Intn(2) == 0 {
					v = -v
				}
				sc.vals = append(sc.vals, v)
			}
			sc.rowEnd[i] = len(sc.cols)
		}
		rowScale, _ := equilibrate(sc, nOrig)
		want := make([]float64, nOrig)
		lo := 0
		for i, rs := range rowScale {
			for k := lo; k < sc.rowEnd[i]; k++ {
				if a := math.Abs(sc.vals[k]) * rs; a > 0 && finite(a) {
					want[sc.cols[k]] += math.Log2(a)
				}
			}
			lo = sc.rowEnd[i]
		}
		for c := range want {
			if math.Float64bits(sc.logSum[c]) != math.Float64bits(want[c]) {
				t.Fatalf("trial %d column %d: log sum %v, math.Log2's %v", trial, c, sc.logSum[c], want[c])
			}
		}
	}
}
