package lp

import (
	"math"
	"testing"
)

// decodeWalkLP turns fuzz bytes into a small LP and a walk over it: the
// variable and row counts, the walked-row mask and the shift limit, then
// costs and rows, one signed byte per number in quarters, then where along
// the walked range to capture, in 255ths. Short input reads as zeros. A
// last row, Σx ≤ 100, keeps small coefficients from demanding huge values.
func decodeWalkLP(data []byte) (p *Problem, rows []int, maxShift, captureAt float64) {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	num := func() float64 { return float64(int8(next())) / 4 }
	n := 1 + int(next()%5)
	m := 1 + int(next()%5)
	mask := next()
	maxShift = float64(next()) / 8
	p = NewProblem(Minimize)
	vars := make([]Var, n)
	for j := range vars {
		vars[j] = p.AddVar("", num())
	}
	for i := 0; i < m; i++ {
		rel := Rel(next() % 3)
		rhs := num()
		var e Expr
		for _, v := range vars {
			e = e.Plus(v, num())
		}
		p.MustConstraint("", e, rel, rhs)
		if mask&(1<<i) != 0 {
			rows = append(rows, i)
		}
	}
	var box Expr
	for _, v := range vars {
		box = box.Plus(v, 1)
	}
	p.MustConstraint("box", box, LE, 100)
	return p, rows, maxShift, float64(next()) / 255
}

// encodeWalkLP is decodeWalkLP's inverse for hand-written seeds: costs and
// rows in quarters, each row as rel, rhs, coefficients.
func encodeWalkLP(mask byte, maxShift8 byte, costs []int8, rows [][]int8) []byte {
	out := []byte{byte(len(costs) - 1), byte(len(rows) - 1), mask, maxShift8}
	for _, c := range costs {
		out = append(out, byte(c))
	}
	for _, r := range rows {
		for _, v := range r {
			out = append(out, byte(v))
		}
	}
	return out
}

// shifted returns a copy of p with the walked rows lowered by t.
func shifted(p *Problem, rows []int, t float64) *Problem {
	q := p.Clone()
	for _, r := range rows {
		q.rows[r].rhs = p.rows[r].rhs - t
	}
	return q
}

// breakpoint is one vertex of a recorded walk.
type breakpoint struct {
	// shift is how far the walked rows have been lowered, and objective
	// the optimal objective there.
	shift, objective float64
	// slope is the objective's rate of change per unit shift on the piece
	// from this breakpoint to the next, as the walk reports it (0 at the
	// last breakpoint).
	slope float64
	// values holds each recorded variable's value at shift.
	values []float64
}

// walkPath is a walk recorded to its end. Between consecutive breakpoints
// the objective and the recorded variables are linear in the shift.
type walkPath struct {
	// status is the walk's: Optimal once it has run to its end, the stated
	// problem's verdict when that is not Optimal, IterLimit when it stopped
	// early.
	status Status
	// bps lists the breakpoints in increasing shift, from 0.
	bps []breakpoint
	// infeasibleBeyond reports that the walk ended where the program turns
	// infeasible: still Optimal, short of its shift limit.
	infeasibleBeyond bool
}

// recordWalk opens a walk of p and steps it to its end, recording every
// breakpoint: a piece's start after whatever pivots its breakpoint took,
// and its end as the walker reaches it, a breakpoint already at the
// walker's shift overwritten. A segment that ended without a basis records
// nothing.
func recordWalk(p *Problem, rows []int, vars []Var, maxShift float64, opts ...Option) (*walkPath, error) {
	w, err := OpenWalk(p, rows, vars, maxShift, opts...)
	if err != nil {
		return nil, err
	}
	defer w.Close()
	path := &walkPath{}
	record := func() {
		obj := w.Objective()
		n := len(path.bps)
		if math.IsNaN(obj) || n > 0 && path.bps[n-1].shift > w.Shift() {
			return
		}
		if n > 0 && path.bps[n-1].shift == w.Shift() {
			path.bps = path.bps[:n-1]
		}
		bp := breakpoint{shift: w.Shift(), objective: obj, values: make([]float64, len(vars))}
		for k := range vars {
			bp.values[k] = w.Value(k)
		}
		path.bps = append(path.bps, bp)
	}
	for {
		record()
		if w.Ended() {
			break
		}
		_, end, slope := w.Piece()
		path.bps[len(path.bps)-1].slope = slope
		w.Advance(end)
		record()
		if w.Ended() {
			break
		}
		if err := w.Cross(nil); err != nil {
			return nil, err
		}
	}
	path.status = w.Status()
	path.infeasibleBeyond = w.Status() == Optimal && w.Shift() < maxShift
	return path, nil
}

// interpolate evaluates the path at shift t: the objective and the
// recorded values, linear between the breakpoints around t.
func interpolate(path *walkPath, t float64) (float64, []float64) {
	bps := path.bps
	k := 0
	for k+1 < len(bps) && bps[k+1].shift < t {
		k++
	}
	if k+1 == len(bps) {
		return bps[k].objective, bps[k].values
	}
	a, b := bps[k], bps[k+1]
	u := (t - a.shift) / (b.shift - a.shift)
	vals := make([]float64, len(a.values))
	for i := range vals {
		vals[i] = a.values[i] + u*(b.values[i]-a.values[i])
	}
	return a.objective + u*(b.objective-a.objective), vals
}

// FuzzParametric checks the walk, stepped to its end by recordWalk, against
// point solves on small LPs: the walk's verdict at shift 0 is Solve's; at
// sampled shifts the interpolated objective equals Solve's within 1e-9 and
// the interpolated point is feasible with that objective; point solves just
// inside and just past the walk's infeasibility point bracket it; and a
// walker stepped to a fuzz-chosen shift captures a solution there that
// passes Certify on the shifted problem, with the path's and a point
// solve's objective.
func FuzzParametric(f *testing.F) {
	// Beale's cycling instance, its columns rescaled onto the quarter grid
	// (x1 = 4y1, x2 = y2/10, x3 = 25y3), walking its two degenerate rows.
	f.Add(encodeWalkLP(0b011, 40, []int8{-12, 60, -2, 24}, [][]int8{
		{int8(LE), 0, 4, -24, -4, 36},
		{int8(LE), 0, 8, -36, -2, 12},
		{int8(LE), 4, 0, 0, 100, 0},
	}))
	// Three rows tight at the starting vertex of a two-variable program:
	// the walk takes a zero-step pivot — a piece of zero width, which
	// records no breakpoint — before its one piece to the infeasibility
	// point at shift 5.
	f.Add(encodeWalkLP(0b100, 80, []int8{-8, -4}, [][]int8{
		{int8(LE), 20, 4, 4},
		{int8(LE), 20, 4, 8},
		{int8(LE), 20, 4, 0},
	}))
	// Mixed relations with one walked ≥ row, which rises as the shift grows.
	f.Add(encodeWalkLP(0b101, 255, []int8{4, 8, -2}, [][]int8{
		{int8(GE), -8, -4, 0, 4},
		{int8(LE), 40, 4, 4, 4},
		{int8(LE), 20, 0, 4, 8},
	}))

	f.Fuzz(func(t *testing.T, data []byte) {
		p, rows, maxShift, captureAt := decodeWalkLP(data)
		if nearlyParallelRows(p) {
			t.Skip("nearly parallel rows: no 1e-9 reference exists")
		}
		vars := make([]Var, p.NumVars())
		for j := range vars {
			vars[j] = Var(j)
		}
		path, err := recordWalk(p, rows, vars, maxShift, WithMaxIters(5000))
		if err != nil {
			t.Fatalf("walk: %v\n%s", err, p)
		}
		ref, err := Solve(p, WithMaxIters(5000))
		if err != nil {
			t.Fatalf("solve at shift 0: %v", err)
		}
		if ref.Status == IterLimit {
			t.Skip("reference solve hit its pivot budget")
		}
		if path.status != ref.Status {
			if (path.status == Infeasible || ref.Status == Infeasible) && leastViolation(t, p) < 1e-4 {
				t.Skip("feasible only within tolerance: the verdict may go either way")
			}
			t.Fatalf("walk status %v, Solve %v at shift 0\n%s", path.status, ref.Status, p)
		}
		if path.status != Optimal {
			return
		}
		bps := path.bps
		if len(bps) == 0 || bps[0].shift != 0 {
			t.Fatalf("path does not start at shift 0: %+v", bps)
		}
		end := bps[len(bps)-1].shift
		// An unscaled walk of the same program is a second opinion: where
		// the two end apart, the program is too ill-conditioned for any
		// 1e-9 reference.
		alt, err := recordWalk(p, rows, vars, maxShift, WithMaxIters(5000), WithoutScaling())
		if err != nil || alt.status != Optimal || alt.infeasibleBeyond != path.infeasibleBeyond ||
			math.Abs(alt.bps[len(alt.bps)-1].shift-end) > 1e-6*math.Max(1, end) {
			t.Skip("ill-conditioned: the scaled and unscaled walks disagree")
		}
		// Pivots round basic values within the kernel's 1e-7 feasibility
		// tolerance to zero, which can move the objective that much per
		// unit cost at a breakpoint.
		rounding := 0.0
		for _, c := range p.obj {
			rounding += 1e-7 * math.Abs(c)
		}
		narrow := false
		for k := 1; k < len(bps); k++ {
			a, b := bps[k-1], bps[k]
			if b.shift <= a.shift {
				t.Fatalf("breakpoint shifts not increasing: %g after %g", b.shift, a.shift)
			}
			narrow = narrow || b.shift-a.shift < 1e-7
			scale := math.Max(1, math.Max(math.Abs(a.objective), math.Abs(b.objective)))
			if d := b.objective - a.objective - a.slope*(b.shift-a.shift); math.Abs(d) > 1e-9*scale+rounding {
				t.Fatalf("piece [%g, %g]: objective moves %g, slope %g predicts %g", a.shift, b.shift, b.objective-a.objective, a.slope, a.slope*(b.shift-a.shift))
			}
		}
		if last := bps[len(bps)-1]; last.slope != 0 {
			t.Fatalf("last breakpoint carries slope %g", last.slope)
		}
		if !path.infeasibleBeyond && end != maxShift {
			t.Fatalf("walk stopped feasible at shift %g, before its limit %g", end, maxShift)
		}
		if narrow {
			t.Skip("a piece narrower than the feasibility tolerance has no 1e-9 reference")
		}

		// Sample each piece's midpoint and both ends, and a few even shifts.
		var ts []float64
		for k, bp := range bps {
			ts = append(ts, bp.shift)
			if k > 0 {
				ts = append(ts, (bp.shift+bps[k-1].shift)/2)
			}
		}
		for i := 0; i <= 8; i++ {
			ts = append(ts, end*float64(i)/8)
		}
		for _, s := range ts {
			q := shifted(p, rows, s)
			sol, err := Solve(q, WithMaxIters(5000))
			if err != nil {
				t.Fatalf("solve at shift %g: %v", s, err)
			}
			if sol.Status != Optimal {
				t.Fatalf("shift %g inside the walked range: Solve says %v\n%s", s, sol.Status, q)
			}
			if violation(q, sol.X) > 1e-9 {
				t.Skip("nearly parallel rows: the reference point is feasible only within tolerance")
			}
			// Within 1e-9 of the objective's magnitude before cancellation,
			// where the kernel with and without scaling agree that far.
			scale := 1.0
			for j, c := range q.obj {
				scale += math.Abs(c * sol.X[j])
			}
			if alt, err := Solve(q, WithMaxIters(5000), WithoutScaling()); err != nil || alt.Status != Optimal ||
				math.Abs(alt.Objective-sol.Objective) > 1e-9*scale {
				t.Skip("ill-conditioned: the kernel with and without scaling disagree")
			}
			// Either point may hold basic values a little below zero,
			// within the kernel's feasibility tolerance, that the other
			// rounded or pivoted away; allow what they move.
			obj, x := interpolate(path, s)
			rounded := 0.0
			for j, c := range q.obj {
				rounded += math.Abs(c) * (math.Max(0, -x[j]) + math.Max(0, -sol.X[j]))
			}
			if d := math.Abs(obj - sol.Objective); d > 1e-9*scale+rounded {
				t.Fatalf("shift %g: walked objective %.12g, Solve %.12g\n%s", s, obj, sol.Objective, q)
			}
			checkPoint(t, q, x, obj, s)
		}

		checkCapture(t, p, rows, vars, maxShift, path, captureAt*end)

		if path.infeasibleBeyond {
			// Just past the point no point solve may find a feasible
			// point: Solve may answer "optimal" within its tolerance, but
			// the point it returns must then violate a row beyond rounding.
			q := shifted(p, rows, end+1e-3*math.Max(1, end))
			sol, err := Solve(q, WithMaxIters(5000))
			if err != nil {
				t.Fatalf("solve past the infeasibility point: %v", err)
			}
			if sol.Status == Optimal && violation(q, sol.X) <= 1e-12 {
				t.Fatalf("walk says infeasible beyond shift %g, but Solve finds a feasible point past it: %v\n%s", end, sol.X, p)
			}
		}
	})
}

// checkCapture steps a walker over p to shift at, one piece at a time,
// captures the solution there and certifies it on p shifted by the
// walker's shift; its objective must match path's interpolation and a
// point solve within 1e-9 of the objective's magnitude.
func checkCapture(t *testing.T, p *Problem, rows []int, vars []Var, maxShift float64, path *walkPath, at float64) {
	t.Helper()
	w, err := OpenWalk(p, rows, vars, maxShift, WithMaxIters(5000))
	if err != nil {
		t.Fatalf("open walk: %v", err)
	}
	defer w.Close()
	for w.Shift() < at && !w.Ended() {
		_, end, _ := w.Piece()
		w.Advance(math.Min(at, end))
		if err := w.Cross(nil); err != nil {
			t.Fatalf("cross at shift %g: %v", w.Shift(), err)
		}
	}
	if w.Status() != Optimal {
		t.Fatalf("walker stepped to shift %g: status %v", w.Shift(), w.Status())
	}
	s := w.Shift()
	sol, err := w.Capture(nil)
	if err != nil {
		t.Fatalf("capture at shift %g: %v", s, err)
	}
	q := shifted(p, rows, s)
	if err := Certify(q, sol).Err(); err != nil {
		t.Fatalf("capture at shift %g: %v\n%s", s, err, q)
	}
	ref, err := Solve(q, WithMaxIters(5000))
	if err != nil || ref.Status != Optimal {
		t.Fatalf("point solve at shift %g: %v %v", s, err, ref)
	}
	scale := 1.0
	for j, c := range q.obj {
		scale += math.Abs(c * ref.X[j])
	}
	walked, _ := interpolate(path, s)
	if d := math.Abs(sol.Objective - ref.Objective); d > 1e-9*scale {
		t.Fatalf("shift %g: captured objective %.12g, Solve %.12g\n%s", s, sol.Objective, ref.Objective, q)
	}
	if d := math.Abs(sol.Objective - walked); d > 1e-9*scale {
		t.Fatalf("shift %g: captured objective %.12g, path %.12g\n%s", s, sol.Objective, walked, q)
	}
}

// nearlyParallelRows reports two nonzero rows of p, not counting the box
// row, whose coefficient vectors are parallel to within 1e-3 in cosine
// (about 2.5°). Such a pair makes the program ill-conditioned enough that
// two correct simplex paths disagree beyond 1e-9.
func nearlyParallelRows(p *Problem) bool {
	dense := make([][]float64, len(p.rows)-1)
	for i, r := range p.rows[:len(dense)] {
		dense[i] = make([]float64, p.NumVars())
		for _, term := range r.terms {
			dense[i][term.Var] += term.Coef
		}
	}
	for i := range dense {
		for k := i + 1; k < len(dense); k++ {
			dot, ni, nk := 0.0, 0.0, 0.0
			for j := range dense[i] {
				dot += dense[i][j] * dense[k][j]
				ni += dense[i][j] * dense[i][j]
				nk += dense[k][j] * dense[k][j]
			}
			if ni > 0 && nk > 0 && 1-math.Abs(dot)/math.Sqrt(ni*nk) < 1e-3 {
				return true
			}
		}
	}
	return false
}

// leastViolation solves the elastic version of q — every row may be
// violated at a cost of one per unit — and returns the least total
// violation: zero exactly when q is feasible.
func leastViolation(t *testing.T, q *Problem) float64 {
	t.Helper()
	e := q.Clone()
	for j := range e.obj {
		e.obj[j] = 0
	}
	for i := range e.rows {
		r := &e.rows[i]
		if r.rel != GE {
			r.terms = append(r.terms, Term{Var: e.AddVar("", 1), Coef: -1})
		}
		if r.rel != LE {
			r.terms = append(r.terms, Term{Var: e.AddVar("", 1), Coef: 1})
		}
	}
	sol, err := Solve(e, WithMaxIters(5000))
	if err != nil || sol.Status != Optimal {
		t.Fatalf("elastic solve: %v %v", err, sol)
	}
	return sol.Objective
}

// checkPoint requires the interpolated point x to be nonnegative, to attain
// obj, and to satisfy q's rows within 1e-7 relative.
func checkPoint(t *testing.T, q *Problem, x []float64, obj, shift float64) {
	t.Helper()
	got := 0.0
	for j, c := range q.obj {
		if x[j] < -1e-7 {
			t.Fatalf("shift %g: interpolated x%d = %g < 0", shift, j, x[j])
		}
		got += c * x[j]
	}
	if math.Abs(got-obj) > 1e-9*math.Max(1, math.Abs(obj)) {
		t.Fatalf("shift %g: interpolated point has objective %.12g, path %.12g", shift, got, obj)
	}
	if v := violation(q, x); v > 1e-7 {
		t.Fatalf("shift %g: interpolated point violates a row by %g (relative)", shift, v)
	}
}

// violation is the largest violation of x in q: of a row, relative to its
// largest term or right-hand side, or of x ≥ 0.
func violation(q *Problem, x []float64) float64 {
	worst := 0.0
	for _, v := range x {
		worst = math.Max(worst, -v)
	}
	for _, r := range q.rows {
		lhs, scale := 0.0, math.Max(1, math.Abs(r.rhs))
		for _, term := range r.terms {
			lhs += term.Coef * x[term.Var]
			scale = math.Max(scale, math.Abs(term.Coef*x[term.Var]))
		}
		d := lhs - r.rhs
		switch r.rel {
		case LE:
			d = math.Max(d, 0)
		case GE:
			d = math.Max(-d, 0)
		default:
			d = math.Abs(d)
		}
		worst = math.Max(worst, d/scale)
	}
	return worst
}

// The walk's argument checks.
func TestParametricRejectsBadInput(t *testing.T) {
	p := NewProblem(Minimize)
	x := p.AddVar("x", 1)
	p.MustConstraint("", Expr{}.Plus(x, 1), GE, 1)
	for name, call := range map[string]func() error{
		"row out of range": func() error { _, err := OpenWalk(p, []int{1}, nil, 1); return err },
		"var out of range": func() error { _, err := OpenWalk(p, []int{0}, []Var{2}, 1); return err },
		"negative limit":   func() error { _, err := OpenWalk(p, []int{0}, nil, -1); return err },
		"infinite limit":   func() error { _, err := OpenWalk(p, []int{0}, nil, math.Inf(1)); return err },
		"no rows":          func() error { _, err := OpenWalk(NewProblem(Minimize), nil, nil, 1); return err },
	} {
		if call() == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}
