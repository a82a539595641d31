package lp

import "math"

// The dense tableau: a full-tableau two-phase primal simplex with Dantzig
// pricing, kept as a test oracle. It shares nothing with the revised
// simplex kernel but the standard-form conventions (row normalization,
// auxiliary column layout, the problem-space basis encoding) and the
// tolerances, so agreement between the two on verdicts, objectives, and
// duals is evidence about the kernel. Solve never runs it.

// impl is one LP solver the cross-checking tests loop over, named as their
// subtests name it.
type impl struct {
	name  string
	solve func(*Problem, ...Option) (*Solution, error)
}

// impls pairs the kernel with the dense oracle.
var impls = []impl{{"dense", denseSolve}, {"sparse", Solve}}

// denseSolve solves p on the dense tableau. Scaling never applies and warm
// bases are ignored: the oracle always solves the stated problem cold.
func denseSolve(p *Problem, opts ...Option) (*Solution, error) {
	if len(p.names) == 0 {
		return nil, ErrNoVariables
	}
	var o Options
	for _, opt := range opts {
		opt(&o)
	}
	t := newTableau(p)
	if o.MaxIters > 0 {
		t.maxIters = o.MaxIters
	}
	if o.StallWindow > 0 {
		t.stallWin = o.StallWindow
	}
	if ctx := o.Ctx; ctx != nil {
		t.cancel = func() bool { return ctx.Err() != nil }
	}
	st, n1, n2 := t.solve()
	sol := &Solution{Status: st, Iters: n1 + n2, X: make([]float64, len(p.names))}
	sol.Stats.Phase1Iters = n1
	sol.Stats.Phase2Iters = n2
	sol.Stats.BlandActivated = t.bland
	if st != Optimal {
		sol.Objective = math.NaN()
		return sol, nil
	}
	t.extract(sol.X)
	sol.Dual = t.duals()
	sol.Basis = t.exportBasis()
	sol.Objective = objective(p, sol.X)
	if p.sense == Maximize {
		// The tableau minimizes internally; undo the cost negation on duals.
		for i := range sol.Dual {
			sol.Dual[i] = -sol.Dual[i]
		}
	}
	return sol, nil
}

// tableau is the dense working form of a Problem: Ax = b with x ≥ 0, b ≥ 0,
// kept in canonical form with respect to the current basis.
type tableau struct {
	m, n int // constraint rows, total columns (vars + slacks + artificials)

	nOrig int // columns corresponding to user variables
	nReal int // columns excluding artificials (vars + slacks)

	a     []float64 // m×n row-major constraint matrix
	b     []float64 // m right-hand sides (kept ≥ 0 by pivoting invariants)
	cost  []float64 // n current-phase objective coefficients
	basis []int     // basis[i] = column basic in row i

	// objRow caches the reduced costs of the current phase, updated
	// incrementally by pivots (classic full-tableau z-row). It is rebuilt
	// from cost and the basis at each phase start.
	objRow []float64

	// nzbuf is scratch space for the pivot row's nonzero column indices;
	// scheduling tableaus stay sparse, so iterating only nonzeros makes
	// the Gauss–Jordan sweep several times faster than a dense pass.
	nzbuf []int32

	artificial []bool // per-column: is an artificial variable
	blocked    []bool // per-column: excluded from entering (artificials in phase 2)

	// Dual-recovery bookkeeping (see duals): per row, the auxiliary
	// column whose reduced cost exposes the row's dual value, the sign of
	// that column's coefficient, and the normalization sign applied to
	// the row.
	auxCol  []int
	auxSign []float64
	rowSign []float64

	// colOwner maps every auxiliary column to the row that created it
	// (-1 for structural columns), for problem-space basis export.
	colOwner []int

	maxIters int
	stallWin int  // Dantzig iterations without improvement → Bland
	bland    bool // anti-cycling fallback engaged at least once

	// cancel, when non-nil, is polled every cancelCheckEvery pivots; a
	// true return abandons the solve with Status Canceled.
	cancel func() bool
}

func (t *tableau) at(i, j int) float64     { return t.a[i*t.n+j] }
func (t *tableau) set(i, j int, v float64) { t.a[i*t.n+j] = v }

// duals recovers the dual values y = c_B·B⁻¹ for every constraint row from
// the final reduced-cost row. In the canonical tableau the reduced cost of
// an auxiliary column with original coefficient ±e_i is ∓y_i plus its own
// (zero, in phase 2) cost:
//
//	slack of a ≤ row:     objRow = −y_i          ⇒ y_i = −objRow
//	surplus of a ≥ row:   objRow = +y_i          ⇒ y_i = +objRow
//	artificial of a = row: objRow = −y_i          ⇒ y_i = −objRow
//
// rowSign carries the normalization applied when a negative right-hand
// side flipped the row, so duals are reported for the rows as the caller
// stated them. Requires objRow to be valid for the phase-2 costs.
func (t *tableau) duals() []float64 {
	y := make([]float64, t.m)
	for i := 0; i < t.m; i++ {
		col := t.auxCol[i]
		if col < 0 {
			continue
		}
		// auxSign is +1 when the column's tableau coefficient was +e_i
		// (slack, artificial), −1 for a surplus column (−e_i).
		y[i] = -t.objRow[col] * t.auxSign[i] * t.rowSign[i]
	}
	return y
}

// newTableau converts a Problem to standard computational form:
//
//   - every row is normalized so its right-hand side is nonnegative,
//   - ≤ rows gain a slack column, ≥ rows a surplus column,
//   - rows whose slack cannot serve as an initial basic variable gain an
//     artificial column,
//
// yielding an immediately feasible basis for phase 1.
func newTableau(p *Problem) *tableau {
	m := len(p.rows)
	nOrig := len(p.names)

	// Count auxiliary columns.
	slacks := 0
	arts := 0
	for _, r := range p.rows {
		rhs := r.rhs
		rel := r.rel
		if rhs < 0 {
			rel = flipRel(rel)
		}
		switch rel {
		case LE:
			slacks++ // slack enters the basis directly
		case GE:
			slacks++ // surplus column
			arts++
		case EQ:
			arts++
		}
	}
	n := nOrig + slacks + arts

	t := &tableau{
		m: m, n: n,
		nOrig:      nOrig,
		nReal:      nOrig + slacks,
		a:          make([]float64, m*n),
		b:          make([]float64, m),
		cost:       make([]float64, n),
		basis:      make([]int, m),
		artificial: make([]bool, n),
		blocked:    make([]bool, n),
		auxCol:     make([]int, m),
		auxSign:    make([]float64, m),
		rowSign:    make([]float64, m),
		colOwner:   make([]int, n),
		maxIters:   p.maxIters,
		stallWin:   stallWindow,
	}
	if t.maxIters == 0 {
		t.maxIters = 200 * (m + n + 10)
	}
	for j := range t.colOwner {
		t.colOwner[j] = -1
	}

	slackCol := nOrig
	artCol := nOrig + slacks
	for i, r := range p.rows {
		sign := 1.0
		rel := r.rel
		if r.rhs < 0 {
			sign = -1
			rel = flipRel(rel)
		}
		for _, term := range r.terms {
			t.a[i*n+int(term.Var)] += sign * term.Coef
		}
		t.b[i] = sign * r.rhs

		t.rowSign[i] = sign
		switch rel {
		case LE:
			t.set(i, slackCol, 1)
			t.basis[i] = slackCol
			t.auxCol[i], t.auxSign[i] = slackCol, 1
			t.colOwner[slackCol] = i
			slackCol++
		case GE:
			t.set(i, slackCol, -1)
			t.auxCol[i], t.auxSign[i] = slackCol, -1
			t.colOwner[slackCol] = i
			slackCol++
			t.set(i, artCol, 1)
			t.artificial[artCol] = true
			t.basis[i] = artCol
			t.colOwner[artCol] = i
			artCol++
		case EQ:
			t.set(i, artCol, 1)
			t.artificial[artCol] = true
			t.basis[i] = artCol
			t.auxCol[i], t.auxSign[i] = artCol, 1
			t.colOwner[artCol] = i
			artCol++
		}
	}

	// Phase-2 objective, stored for later; phase 1 installs its own costs.
	for j := 0; j < nOrig; j++ {
		c := p.obj[j]
		if p.sense == Maximize {
			c = -c
		}
		t.cost[j] = c
	}
	return t
}

// solve runs both simplex phases and reports the outcome plus per-phase
// pivot counts.
func (t *tableau) solve() (st Status, phase1, phase2 int) {
	needPhase1 := false
	for _, bj := range t.basis {
		if t.artificial[bj] {
			needPhase1 = true
			break
		}
	}

	phase2Cost := make([]float64, t.n)
	copy(phase2Cost, t.cost)

	if needPhase1 {
		for j := range t.cost {
			if t.artificial[j] {
				t.cost[j] = 1
			} else {
				t.cost[j] = 0
			}
		}
		t.recomputeObjRow()
		st, phase1 = t.iterate()
		if st == IterLimit || st == Canceled {
			return st, phase1, 0
		}
		if t.phaseObjective() > epsFeas {
			return Infeasible, phase1, 0
		}
		t.evictArtificials()
		for j := range t.blocked {
			if t.artificial[j] {
				t.blocked[j] = true
			}
		}
	}

	copy(t.cost, phase2Cost)
	t.recomputeObjRow()
	st, phase2 = t.iterate()
	return st, phase1, phase2
}

// recomputeObjRow rebuilds the reduced-cost row from scratch for the
// current phase: objRow[j] = cost[j] − Σᵢ cost[basis[i]]·a[i][j].
func (t *tableau) recomputeObjRow() {
	if t.objRow == nil {
		t.objRow = make([]float64, t.n)
	}
	copy(t.objRow, t.cost)
	for i := 0; i < t.m; i++ {
		cb := t.cost[t.basis[i]]
		if cb == 0 {
			continue
		}
		row := t.a[i*t.n : i*t.n+t.n]
		for j, v := range row {
			if v != 0 {
				t.objRow[j] -= cb * v
			}
		}
	}
}

// phaseObjective evaluates the current phase's objective at the basic
// solution.
func (t *tableau) phaseObjective() float64 {
	obj := 0.0
	for i, bj := range t.basis {
		obj += t.cost[bj] * t.b[i]
	}
	return obj
}

// evictArtificials pivots artificial variables that remain basic (at value
// zero after a feasible phase 1) out of the basis wherever a real column has
// a usable pivot in their row. Rows that are entirely zero across real
// columns are redundant and are neutralized by leaving the artificial basic
// at zero with its column blocked — it can never re-enter, so it stays zero.
func (t *tableau) evictArtificials() {
	for i, bj := range t.basis {
		if !t.artificial[bj] {
			continue
		}
		for j := 0; j < t.nReal; j++ {
			if math.Abs(t.at(i, j)) > epsPivot {
				t.pivot(i, j)
				break
			}
		}
	}
}

// iterate performs simplex pivots with Dantzig pricing, falling back to
// Bland's rule after stallWindow iterations without objective improvement.
// A pivot-count watchdog pins Bland on permanently once half the budget is
// spent — a solve that deep into its budget is cycling or near it, and
// finite termination matters more than pricing speed.
func (t *tableau) iterate() (Status, int) {
	iters := 0
	bland := false
	stall := 0
	lastObj := t.phaseObjective()
	watchdog := t.maxIters / 2

	for ; iters < t.maxIters; iters++ {
		if iters%cancelCheckEvery == 0 && t.cancel != nil && t.cancel() {
			return Canceled, iters
		}
		if iters >= watchdog && !bland {
			bland = true
			t.bland = true
		}
		// Refresh the incrementally maintained reduced costs occasionally
		// to shed accumulated floating-point drift.
		if iters > 0 && iters%512 == 0 {
			t.recomputeObjRow()
		}
		enter := t.chooseEntering(bland)
		if enter < 0 {
			return Optimal, iters
		}
		leave := t.chooseLeaving(enter, bland)
		if leave < 0 {
			return Unbounded, iters
		}
		t.pivot(leave, enter)

		obj := t.phaseObjective()
		if lastObj-obj > epsImprove {
			stall = 0
			bland = false
		} else {
			stall++
			if stall >= t.stallWin {
				bland = true
				t.bland = true
			}
		}
		lastObj = obj
	}
	return IterLimit, iters
}

// chooseEntering returns the entering column index, or -1 at optimality,
// reading the incrementally maintained reduced-cost row.
func (t *tableau) chooseEntering(bland bool) int {
	best := -1
	bestVal := -epsReduced
	for j := 0; j < t.n; j++ {
		if t.blocked[j] {
			continue
		}
		r := t.objRow[j]
		if bland {
			if r < -epsReduced {
				return j
			}
			continue
		}
		if r < bestVal {
			bestVal = r
			best = j
		}
	}
	return best
}

// chooseLeaving runs the minimum-ratio test on the entering column,
// breaking ties toward the smallest basic variable index (a lexicographic
// nudge that combines well with the Bland fallback). A largest-pivot
// tie-break was tried and measurably *increased* degenerate pivot chains on
// the 32-rank scheduling LPs, so the index rule stays.
func (t *tableau) chooseLeaving(enter int, bland bool) int {
	_ = bland // same rule in both modes; parameter kept for experimentation
	leave := -1
	bestRatio := math.Inf(1)
	for i := 0; i < t.m; i++ {
		aij := t.at(i, enter)
		if aij <= epsPivot {
			continue
		}
		ratio := t.b[i] / aij
		if ratio < bestRatio-epsPivot ||
			(ratio < bestRatio+epsPivot && (leave < 0 || t.basis[i] < t.basis[leave])) {
			bestRatio = ratio
			leave = i
		}
	}
	return leave
}

// pivot makes column enter basic in row leave via Gauss–Jordan elimination,
// keeping the reduced-cost row in sync.
func (t *tableau) pivot(leave, enter int) {
	n := t.n
	prow := t.a[leave*n : leave*n+n]
	pv := prow[enter]
	inv := 1 / pv
	for j := range prow {
		prow[j] *= inv
	}
	prow[enter] = 1 // exact
	t.b[leave] *= inv

	if t.nzbuf == nil {
		t.nzbuf = make([]int32, 0, n)
	}
	nz := t.nzbuf[:0]
	for j, v := range prow {
		if v != 0 {
			nz = append(nz, int32(j))
		}
	}
	t.nzbuf = nz

	for i := 0; i < t.m; i++ {
		if i == leave {
			continue
		}
		f := t.at(i, enter)
		if f == 0 {
			continue
		}
		row := t.a[i*n : i*n+n]
		for _, j := range nz {
			row[j] -= f * prow[j]
		}
		row[enter] = 0 // exact
		t.b[i] -= f * t.b[leave]
		if t.b[i] < 0 && t.b[i] > -epsFeas {
			t.b[i] = 0
		}
	}
	if t.objRow != nil {
		if f := t.objRow[enter]; f != 0 {
			for _, j := range nz {
				t.objRow[j] -= f * prow[j]
			}
			t.objRow[enter] = 0 // exact
		}
	}
	t.basis[leave] = enter
}

// extract copies the values of the original user variables out of the basic
// solution.
func (t *tableau) extract(x []float64) {
	for j := range x {
		x[j] = 0
	}
	for i, bj := range t.basis {
		if bj < t.nOrig {
			x[bj] = t.b[i]
		}
	}
}

// exportBasis translates the internal column basis to the problem-space
// encoding of Solution.Basis: structural columns keep their index,
// auxiliary columns become NumVars + owning row.
func (t *tableau) exportBasis() []int {
	out := make([]int, t.m)
	for i, bj := range t.basis {
		if bj < t.nOrig {
			out[i] = bj
		} else {
			out[i] = t.nOrig + t.colOwner[bj]
		}
	}
	return out
}
