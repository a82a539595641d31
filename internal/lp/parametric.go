package lp

import (
	"fmt"
	"math"
	"time"

	"powercap/internal/lp/presolve"
	"powercap/internal/obs"
)

// Parametric right-hand-side walk (DESIGN.md §14). When only the
// right-hand sides of some rows move, and they move together along one
// direction, the optimal objective is a convex piecewise-linear function of
// the shift, and so is every variable of an optimal basic solution between
// two basis changes. One optimal basis stays optimal over a whole piece:
// its basic values move linearly with the shift and its reduced costs do
// not move at all. The piece ends where a basic value reaches zero; one
// dual simplex pivot on that row then carries an optimal basis across the
// breakpoint. The walk emits every breakpoint in one pass, and it ends
// where the dual ratio test finds no entering column: past that shift the
// row's basic variable can only go negative, so the program is infeasible.

// maxWalkRestarts bounds the cold restarts one walk may spend on numerical
// breakdowns before it reports a *NumericalError.
const maxWalkRestarts = 8

// Breakpoint is one vertex of a walked path.
type Breakpoint struct {
	// Shift is how far the walked rows' right-hand sides have been lowered
	// from their stated values.
	Shift float64
	// Objective is the optimal objective at Shift, in the problem's sense.
	Objective float64
	// Slope is the objective's rate of change per unit shift on the piece
	// from this breakpoint to the next, taken from the piece's basis
	// rather than differenced (0 at the last breakpoint).
	Slope float64
	// Values holds the optimal value at Shift of each variable the caller
	// named, in the order named.
	Values []float64
}

// Path is the result of a parametric walk. Between consecutive breakpoints
// the objective and the named variables are linear in the shift.
type Path struct {
	// Status is Optimal once the walk has run to its end. It reports the
	// stated problem's own verdict when that is not Optimal (Infeasible,
	// Unbounded), and Canceled or IterLimit when the walk stopped early;
	// Breakpoints then holds what was walked before the stop.
	Status Status
	// Breakpoints lists the path's vertices in increasing shift, from 0.
	// Shifts are distinct: a degenerate pivot that moves no value records
	// nothing.
	Breakpoints []Breakpoint
	// InfeasibleBeyond reports that the walk ended at the exact point where
	// the program turns infeasible, the last breakpoint's shift. When false
	// the walk reached its shift limit still feasible, and the last
	// breakpoint sits at the limit.
	InfeasibleBeyond bool
	// Stats instruments the walk: the cold solves' pivots per phase, the
	// walk's pivots as DualIters, and as Rescues the cold restarts after a
	// numerical breakdown.
	Stats SolveStats
}

// Parametric solves p at its stated right-hand sides, then lowers the
// right-hand side of every row in rows by a common shift t, from 0 up to
// maxShift, with one dual simplex pivot per breakpoint.
// At each breakpoint it records the shift, the objective and the values of
// vars. Options apply as in Solve, except WithWarmBasis, which is ignored:
// the walk starts from a cold solve.
//
// The walk runs on a form whose rows are p's stated rows, scaled but not
// reduced by presolve (ScaleOnly), so the shift direction maps row for row.
// A numerical breakdown is rescued by a cold re-solve, without scaling, at
// the last breakpoint, and the walk continues from there; past
// maxWalkRestarts restarts it returns a *NumericalError.
func Parametric(p *Problem, rows []int, vars []Var, maxShift float64, opts ...Option) (*Path, error) {
	if len(p.names) == 0 {
		return nil, ErrNoVariables
	}
	if len(p.rows) == 0 {
		return nil, fmt.Errorf("lp: parametric walk of a problem with no rows")
	}
	for _, r := range rows {
		if r < 0 || r >= len(p.rows) {
			return nil, fmt.Errorf("lp: walked row %d out of range", r)
		}
	}
	for _, v := range vars {
		if int(v) < 0 || int(v) >= len(p.names) {
			return nil, fmt.Errorf("lp: recorded variable %d out of range", v)
		}
	}
	if !(maxShift >= 0) || math.IsInf(maxShift, 1) {
		return nil, fmt.Errorf("lp: shift limit %g must be finite and nonnegative", maxShift)
	}
	var o Options
	for _, opt := range opts {
		opt(&o)
	}
	if o.MaxIters == 0 {
		o.MaxIters = p.maxIters
	}
	if o.StallWindow == 0 {
		o.StallWindow = stallWindow
	}

	sctx, span := obs.Start(o.spanContext(), "lp.solve")
	defer span.End()
	span.SetAttr("vars", p.NumVars())
	span.SetAttr("rows", p.NumConstraints())
	span.SetAttr("walked_rows", len(rows))
	o.SpanCtx = sctx

	start := time.Now()
	w := &walker{p: p, rows: rows, vars: vars, maxShift: maxShift, o: &o, path: &Path{}}
	from, scaled := 0.0, !o.NoPresolve
	for {
		st, reason := w.segment(from, scaled)
		if st != statusNumerical {
			w.path.Status = st
			break
		}
		span.SetAttr("rescue", reason)
		if w.path.Stats.Rescues == maxWalkRestarts {
			return nil, &NumericalError{Reason: reason, Pivots: w.path.Stats.Pivots()}
		}
		w.path.Stats.Rescues++
		// Resume at the last breakpoint; the restarted segment records it
		// afresh.
		if n := len(w.path.Breakpoints); n > 0 {
			from = w.path.Breakpoints[n-1].Shift
		}
		scaled = false
	}
	path := w.path
	path.Stats.Wall = time.Since(start)
	span.SetAttr("status", path.Status.String())
	span.SetAttr("pivots", path.Stats.Pivots())
	span.SetAttr("breakpoints", len(path.Breakpoints))
	span.SetAttr("restarts", path.Stats.Rescues)
	return path, nil
}

// walker carries one Parametric call across its segments: a segment is a
// cold solve at a starting shift and the walk from there.
type walker struct {
	p        *Problem
	rows     []int
	vars     []Var
	maxShift float64
	o        *Options
	path     *Path

	// Per segment: the shift the segment started at, the direction the
	// form's right-hand side moves per unit shift, that right-hand side at
	// the segment start, the rows the direction touches, the column scale
	// (nil when unscaled), and the rate of change of the basic values.
	from     float64
	dir      []float64
	b0       []float64
	dirRows  []int
	colScale []float64
	beta     []float64
}

// segment cold-solves p with the walked rows lowered by from and walks on
// from there, appending breakpoints to the path. It returns
// statusNumerical, with the breakdown's reason, when the segment broke
// down.
func (w *walker) segment(from float64, scaled bool) (Status, string) {
	q := w.p
	if from > 0 {
		q = w.p.Clone()
		for _, r := range w.rows {
			q.rows[r].rhs = w.p.rows[r].rhs - from
		}
	}
	fp := q // the problem the kernel's form is built from
	rowScale := []float64(nil)
	w.colScale = nil
	if scaled {
		red := presolve.Run(neutralize(q), presolve.ScaleOnly)
		fp = reducedProblem(q, red)
		rowScale, w.colScale = red.RowScale, red.ColScale
		w.path.Stats.RowNormMax, w.path.Stats.RowNormMin = red.RowNormMax, red.RowNormMin
	}
	f := newSpForm(fp)

	w.from = from
	w.dir = make([]float64, f.m)
	w.dirRows = w.dirRows[:0]
	for _, r := range w.rows {
		if w.dir[r] == 0 {
			w.dirRows = append(w.dirRows, r)
		}
		d := f.rowSign[r]
		if rowScale != nil {
			d *= rowScale[r]
		}
		w.dir[r] = d
	}
	w.b0 = append(w.b0[:0], f.b...)
	w.beta = make([]float64, f.m)

	rv := newRevised(f, w.o)
	defer rv.release()
	defer func() {
		rv.harvestHealth(&rv.stats)
		w.path.Stats.add(rv.stats)
	}()

	sol := rv.solveCold(fp)
	switch {
	case sol.Status == statusNumerical:
		return statusNumerical, rv.numReason
	case sol.Status == Infeasible && from > 0:
		// A restart exactly at the infeasibility point can land on the
		// infeasible side of the feasibility tolerance: the walk ends there.
		w.path.InfeasibleBeyond = true
		return Optimal, ""
	case sol.Status != Optimal:
		return sol.Status, ""
	}
	iters := sol.Iters
	st := rv.phase("lp.dual", &iters, func() Status { return rv.walk(&iters, w) })
	if st == statusNumerical {
		return st, rv.numReason
	}
	return st, ""
}

// walk lowers the walked rows' right-hand sides from the current optimal
// basis, one dual simplex pivot per breakpoint, recording each breakpoint
// in w.path. It shares the dual loop's ratio test, cancellation and
// fault-injection checkpoint, refactorization cadence and stall guard.
func (rv *revised) walk(iters *int, w *walker) Status {
	bland := false
	stall := 0
	watchdog := rv.maxIters / 2
	rv.pr.invalidate()
	betaEpoch, polished := -1, -1
	dualDrift := false
	theta := 0.0
	limit := w.maxShift - w.from

	for ; *iters < rv.maxIters; *iters++ {
		if *iters%cancelCheckEvery == 0 {
			if st, ok := rv.checkpoint(); !ok {
				return st
			}
		}
		if polished != rv.factorEpoch || dualDrift {
			// The dual ratio test's tolerance lets reduced costs creep below
			// zero, and the basis then walks suboptimal pieces. Whenever a
			// pivot pushes one below the optimality tolerance, and on each
			// fresh factorization with exact reduced costs, primal pivots
			// restore optimality at the current shift, as a warm dual
			// solve's closing primal pass does.
			rv.pr.ensureFresh(rv)
			dualDrift = false
			if rv.dualInfeasible(nil) {
				before := *iters
				if st := rv.primal(iters); st != Optimal {
					return st
				}
				rv.stats.Phase2Iters += *iters - before
				betaEpoch = -1
			}
			polished = rv.factorEpoch
		}
		if *iters >= watchdog && !bland {
			bland = true
			rv.stats.BlandActivated = true
			rv.stats.BlandActivations++
		}
		// β = B⁻¹·dir is the rate at which the basic values fall per unit
		// shift; exact after every refactorization, updated per pivot.
		if betaEpoch != rv.factorEpoch {
			copy(w.beta, w.dir)
			rv.ftran(w.beta)
			betaEpoch = rv.factorEpoch
		}
		leave, step := rv.walkRatioTest(w.beta, bland)
		if leave < 0 || theta+step >= limit {
			// Nothing ends the piece before the shift limit.
			w.record(rv, theta)
			if limit > theta {
				w.setSlope(rv)
				rv.walkStep(w, limit-theta, limit)
				w.record(rv, limit)
			}
			return Optimal
		}
		if step > 0 {
			w.record(rv, theta)
			w.setSlope(rv)
			theta += step
			rv.walkStep(w, step, theta)
			w.record(rv, theta)
			stall = 0
			bland = false
		} else {
			stall++
			if stall >= rv.stallWindow && !bland {
				bland = true
				rv.stats.BlandActivated = true
				rv.stats.BlandActivations++
			}
		}
		if rv.f.artificial[rv.basis[leave]] {
			w.record(rv, theta)
			w.path.InfeasibleBeyond = true
			return Optimal
		}
		rv.stats.DualIters++

		if bland {
			rv.pr.refresh(rv)
		} else {
			rv.pr.ensureFresh(rv)
		}
		enter := rv.dualRatioTest(leave)
		if enter < 0 {
			// Any further shift drives the row's basic variable negative
			// with no column able to compensate: infeasible beyond theta.
			w.record(rv, theta)
			w.path.InfeasibleBeyond = true
			return Optimal
		}
		epoch := rv.factorEpoch
		switch rv.dualPivot(leave, enter) {
		case pivotRetry:
			continue
		case pivotFailed:
			return statusNumerical
		}
		dualDrift = rv.dualInfeasible(rv.pr.accCols)
		if rv.factorEpoch == epoch {
			// The pivot's own update of β, as pivotUpdate does for xB.
			br := w.beta[leave] / rv.alpha[leave]
			for i := range w.beta {
				w.beta[i] -= br * rv.alpha[i]
			}
			w.beta[leave] = br
		}
	}
	return IterLimit
}

// walkRatioTest finds the row whose basic value the shift drives to zero
// first, and the shift step that gets it there. Among near-tied rows it
// takes the largest rate (the first row under the anti-cycling rule), as
// the primal ratio test does. leave is −1 when no basic value falls.
func (rv *revised) walkRatioTest(beta []float64, bland bool) (leave int, step float64) {
	step = math.Inf(1)
	for i, b := range beta {
		if rv.f.artificial[rv.basis[i]] {
			// An artificial left basic by phase 1 sits in a row no real
			// column reaches; if the shift moves its value either way,
			// nothing can hold it at zero.
			if math.Abs(b) > epsPivot {
				return i, 0
			}
			continue
		}
		if b > epsPivot {
			if r := math.Max(rv.xB[i], 0) / b; r < step {
				step = r
			}
		}
	}
	if math.IsInf(step, 1) {
		return -1, 0
	}
	leave = -1
	bestB := 0.0
	for i, b := range beta {
		if b <= epsPivot || math.Max(rv.xB[i], 0)/b > step+epsPivot || b <= bestB || rv.f.artificial[rv.basis[i]] {
			continue
		}
		leave, bestB = i, b
		if bland {
			break
		}
	}
	return leave, step
}

// walkStep advances the basic values by step along the walk and sets the
// form's right-hand side to the segment's shift theta, so a reinversion
// recomputes the basic values at the current point.
func (rv *revised) walkStep(w *walker, step, theta float64) {
	for i, b := range w.beta {
		rv.xB[i] -= step * b
	}
	for _, r := range w.dirRows {
		rv.f.b[r] = w.b0[r] - theta*w.dir[r]
	}
}

// record sets the breakpoint at segment shift theta from the current
// basis: the objective in the problem's sense and the named variables'
// values, as the basic values stand (unrounded, so the path is linear
// along a piece). It overwrites a breakpoint already at theta: the walk
// records each piece's start just before walking it, after whatever
// pivots the breakpoint took, and each end again as the walk stops there.
func (w *walker) record(rv *revised, theta float64) {
	shift := w.from + theta
	n := len(w.path.Breakpoints)
	if n > 0 && w.path.Breakpoints[n-1].Shift > shift {
		return
	}
	if n > 0 && w.path.Breakpoints[n-1].Shift == shift {
		w.path.Breakpoints = w.path.Breakpoints[:n-1]
	}
	bp := Breakpoint{Shift: shift, Objective: rv.phaseObjective(), Values: make([]float64, len(w.vars))}
	if w.p.sense == Maximize {
		bp.Objective = -bp.Objective
	}
	for i, bj := range rv.basis {
		for k, v := range w.vars {
			if int(v) != bj {
				continue
			}
			x := rv.xB[i]
			if w.colScale != nil {
				x *= w.colScale[bj]
			}
			bp.Values[k] = x
		}
	}
	w.path.Breakpoints = append(w.path.Breakpoints, bp)
}

// dualInfeasible reports a nonbasic column among cols (every column when
// cols is nil) whose reduced cost, per the pricer, has fallen below the
// optimality tolerance. A pivot changes only the reduced costs of its pivot
// row's columns, so those are all a pivot can push below.
func (rv *revised) dualInfeasible(cols []int) bool {
	bad := func(j int) bool { return rv.pr.d[j] < -epsReduced && !rv.isBasic[j] && !rv.blocked[j] }
	if cols == nil {
		for j := range rv.pr.d {
			if bad(j) {
				return true
			}
		}
		return false
	}
	for _, j := range cols {
		if bad(j) {
			return true
		}
	}
	return false
}

// setSlope gives the last breakpoint the slope of the piece the current
// basis is about to walk: the objective falls by c_Bᵀβ per unit shift.
func (w *walker) setSlope(rv *revised) {
	slope := 0.0
	for i, bj := range rv.basis {
		slope -= rv.cost[bj] * w.beta[i]
	}
	if w.p.sense == Maximize {
		slope = -slope
	}
	w.path.Breakpoints[len(w.path.Breakpoints)-1].Slope = slope
}

// add accumulates another solve's effort into s: pivots and
// refactorizations add up, the peak eta length keeps the worst.
func (s *SolveStats) add(o SolveStats) {
	s.Phase1Iters += o.Phase1Iters
	s.Phase2Iters += o.Phase2Iters
	s.DualIters += o.DualIters
	s.Refactorizations += o.Refactorizations
	s.BlandActivated = s.BlandActivated || o.BlandActivated
	s.BlandActivations += o.BlandActivations
	s.MaxEtaLen = max(s.MaxEtaLen, o.MaxEtaLen)
	s.PivotRejections += o.PivotRejections
	s.FactorTauRetries += o.FactorTauRetries
	s.NaNRecoveries += o.NaNRecoveries
}
