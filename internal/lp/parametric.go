package lp

import (
	"context"
	"fmt"
	"math"
	"time"

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
// breakpoint. The walk ends where the dual ratio test finds no entering
// column: past that shift the row's basic variable can only go negative,
// so the program is infeasible.
//
// A Walk takes that path one piece at a time: it reports the piece it is
// on, moves along it (Advance), pivots across the breakpoint at its end
// (Cross), and reads the optimal solution off its basis at the current
// shift (Capture). Parametric is a loop over a Walk that records every
// breakpoint.

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
// The walk runs on the scaled form of p's stated rows, as Solve does, so
// the shift direction maps row for row.
// A numerical breakdown is rescued by a cold re-solve, without scaling, at
// the last breakpoint, and the walk continues from there; past
// maxWalkRestarts restarts it returns a *NumericalError.
func Parametric(p *Problem, rows []int, vars []Var, maxShift float64, opts ...Option) (*Path, error) {
	w, err := newWalk(p, rows, vars, maxShift, opts)
	if err != nil {
		return nil, err
	}
	defer w.Close()
	sctx, span := obs.Start(w.o.spanContext(), "lp.solve")
	defer span.End()
	span.SetAttr("vars", p.NumVars())
	span.SetAttr("rows", p.NumConstraints())
	span.SetAttr("walked_rows", len(rows))

	start := time.Now()
	w.sctx = sctx
	w.path = &Path{}
	err = w.open()
	if err == nil && w.status == Optimal {
		err = w.step(sctx, "lp.dual", w.walkAll)
	}
	if w.rescue != "" {
		span.SetAttr("rescue", w.rescue)
	}
	if err != nil {
		return nil, err
	}
	path := w.path
	path.Status = w.status
	path.InfeasibleBeyond = w.beyond
	path.Stats = w.Stats()
	path.Stats.Wall = time.Since(start)
	span.SetAttr("status", path.Status.String())
	span.SetAttr("pivots", path.Stats.Pivots())
	span.SetAttr("breakpoints", len(path.Breakpoints))
	span.SetAttr("restarts", path.Stats.Rescues)
	return path, nil
}

// walkAll walks every piece to the walk's end, recording each breakpoint:
// a piece's start after whatever pivots its breakpoint took, and its end
// as the walker reaches it.
func (w *Walk) walkAll() error {
	for {
		w.record()
		if w.done {
			return nil
		}
		if w.width > 0 {
			w.path.Breakpoints[len(w.path.Breakpoints)-1].Slope = w.slope
			w.Advance(w.end)
			w.record()
		}
		if w.done {
			return nil
		}
		if err := w.cross(); err != nil {
			return err
		}
	}
}

// Walk is a parametric walk taken one piece at a time: OpenWalk solves the
// problem cold at its stated right-hand sides, and the walker then lowers
// the walked rows' right-hand sides on the caller's command. A piece is a
// stretch of shift over which one basis stays optimal; Piece reports the
// current one, Advance moves along it, Cross pivots across the breakpoint
// at its end, and Capture reads the optimal solution off the basis at the
// current shift. Breakdowns restart the walk cold at the current shift, as
// in Parametric. The context a step takes cancels that step, the cold
// restarts inside it included, and parents its spans; the context OpenWalk
// was given (WithContext) cancels the open alone, so a walk may outlive it.
// A Walk is not safe for concurrent use; Close releases its working memory.
type Walk struct {
	p        *Problem
	rows     []int
	rhs      []float64 // the walked rows' stated right-hand sides
	vars     []Var
	maxShift float64
	o        Options
	sctx     context.Context // parents the spans of the step in progress

	status   Status
	done     bool // no piece below the current shift
	beyond   bool // the walk ended where the program turns infeasible
	shift    float64
	restarts int
	rescue   string     // the last breakdown's reason
	stats    SolveStats // closed segments' effort

	// The current segment: a cold solve at shift from and the walk from
	// there. dir is the direction the form's right-hand side moves per unit
	// shift, b0 that right-hand side at the segment start, dirRows the rows
	// dir touches, and beta the rate at which the basic values fall.
	rv      *revised
	from    float64
	dir     []float64
	b0      []float64
	dirRows []int
	beta    []float64

	// The dual loop's state, carried across steps.
	iters     int
	watchdog  int
	bland     bool
	stall     int
	betaEpoch int
	polished  int
	dualDrift bool

	// The current piece runs from start to end in shift with objective
	// slope slope per unit shift; width is how far the ratio test found it
	// to run. leave is the row whose basic value reaches zero at end;
	// the last piece (last) ends at maxShift, or nothing ends it.
	start, end, width, slope float64
	leave                    int
	last                     bool
	atEnd                    bool // the walker has reached end

	// prev is the basis of the piece the walker last crossed out of; it is
	// still optimal while prevOK, that is, until the walker moves.
	prev   []int
	prevOK bool

	path *Path // Parametric's record; nil for a stepped walk
}

// OpenWalk solves p cold at its stated right-hand sides and returns a
// walker positioned at shift 0 that lowers the right-hand side of every row
// in rows by a common shift, up to maxShift. Options apply as in
// Parametric; WithContext's cancellation covers the open, and each later
// step is canceled by the context it is given.
// When the stated problem is not Optimal, the walker reports its verdict
// through Status and has no piece.
func OpenWalk(p *Problem, rows []int, vars []Var, maxShift float64, opts ...Option) (*Walk, error) {
	w, err := newWalk(p, rows, vars, maxShift, opts)
	if err != nil {
		return nil, err
	}
	sctx, span := obs.Start(w.o.spanContext(), "lp.solve")
	span.SetAttr("vars", p.NumVars())
	span.SetAttr("rows", p.NumConstraints())
	span.SetAttr("walked_rows", len(rows))
	w.sctx = sctx
	err = w.open()
	span.SetAttr("status", w.status.String())
	span.End()
	w.setSpan(nil)
	if err != nil {
		w.Close()
		return nil, err
	}
	return w, nil
}

// newWalk validates a walk's arguments and resolves its options.
func newWalk(p *Problem, rows []int, vars []Var, maxShift float64, opts []Option) (*Walk, error) {
	if len(p.names) == 0 {
		return nil, ErrNoVariables
	}
	if len(p.rows) == 0 {
		return nil, fmt.Errorf("lp: parametric walk of a problem with no rows")
	}
	rhs := make([]float64, len(rows))
	for k, r := range rows {
		if r < 0 || r >= len(p.rows) {
			return nil, fmt.Errorf("lp: walked row %d out of range", r)
		}
		rhs[k] = p.rows[r].rhs
	}
	for _, v := range vars {
		if int(v) < 0 || int(v) >= len(p.names) {
			return nil, fmt.Errorf("lp: recorded variable %d out of range", v)
		}
	}
	if !(maxShift >= 0) || math.IsInf(maxShift, 1) {
		return nil, fmt.Errorf("lp: shift limit %g must be finite and nonnegative", maxShift)
	}
	w := &Walk{p: p, rows: rows, rhs: rhs, vars: vars, maxShift: maxShift}
	for _, opt := range opts {
		opt(&w.o)
	}
	if w.o.MaxIters == 0 {
		w.o.MaxIters = p.maxIters
	}
	if w.o.StallWindow == 0 {
		w.o.StallWindow = stallWindow
	}
	return w, nil
}

// Status reports Optimal while the walk holds an optimal basis: the stated
// problem's verdict when that was not Optimal, Canceled or IterLimit when a
// step stopped early.
func (w *Walk) Status() Status { return w.status }

// Shift reports how far the walked rows have been lowered.
func (w *Walk) Shift() float64 { return w.shift }

// Piece reports the current piece: the shift it starts at, the shift it
// ends at, and the objective's slope along it per unit shift. The walker
// sits somewhere in [start, end]; at end it stays on this piece until
// Cross.
func (w *Walk) Piece() (start, end, slope float64) { return w.start, w.end, w.slope }

// Ended reports that no piece lies below the current shift: the walk
// reached its shift limit, found the program infeasible beyond the current
// shift (InfeasibleBeyond), or stopped (Status).
func (w *Walk) Ended() bool { return w.done }

// Objective reports the optimal objective at the current shift, in the
// problem's sense, as the walk's basic values stand.
func (w *Walk) Objective() float64 {
	if w.rv == nil {
		return math.NaN()
	}
	obj := w.rv.phaseObjective()
	if w.p.sense == Maximize {
		obj = -obj
	}
	return obj
}

// Value reports the current value of the k'th variable named at open, as
// the walk's basic values stand (0 when it is nonbasic).
func (w *Walk) Value(k int) float64 {
	if w.rv == nil {
		return math.NaN()
	}
	v := int(w.vars[k])
	for i, bj := range w.rv.basis {
		if bj != v {
			continue
		}
		x := w.rv.xB[i]
		if cs := w.rv.f.colScale; cs != nil {
			x *= cs[bj]
		}
		return x
	}
	return 0
}

// Stats reports the walk's effort so far: the cold solves' pivots per
// phase, the walk's pivots as DualIters, and as Rescues its restarts.
func (w *Walk) Stats() SolveStats {
	st := w.stats
	if w.rv != nil {
		cur := w.rv.stats
		w.rv.harvestHealth(&cur)
		st.add(cur)
	}
	st.Rescues = w.restarts
	return st
}

// Advance lowers the walked rows to shift t along the current piece,
// without a pivot: t is clamped to the piece, so a t at or past the piece's
// end stops there, still on this piece, until Cross. A piece narrower than
// the shift's rounding is walked by any t at or past its end.
func (w *Walk) Advance(t float64) {
	if w.done || w.rv == nil || w.atEnd {
		return
	}
	var step float64
	switch {
	case t >= w.end && w.shift == w.start:
		// The whole piece, by the ratio test's own step.
		t, step = w.end, w.width
	case t >= w.end:
		t, step = w.end, w.end-w.shift
	case t > w.shift:
		step = t - w.shift
	default:
		return
	}
	w.rv.walkStep(w, step, t-w.from)
	w.shift = t
	w.prevOK = false
	if t == w.end {
		w.atEnd = true
		w.done = w.last
	}
}

// Cross pivots across the breakpoint at the end of the current piece and
// onto the next piece, or ends the walk there when the program turns
// infeasible beyond it. The walker must have advanced to the piece's end;
// elsewhere Cross does nothing. ctx cancels the step and parents its
// spans. Status reports a step stopped by cancellation or the pivot
// budget; a breakdown that outlasts maxWalkRestarts is a *NumericalError.
func (w *Walk) Cross(ctx context.Context) error {
	if w.done || w.rv == nil || !w.atEnd {
		return nil
	}
	return w.walkStep(ctx, "lp.dual", w.cross)
}

// Back returns the walker to the piece it last crossed out of, while it
// has not moved since: at the breakpoint between them both bases are
// optimal, so a capture can be read off either. It reports whether there
// was such a piece. ctx cancels the step and parents its spans.
func (w *Walk) Back(ctx context.Context) (bool, error) {
	if !w.prevOK || w.rv == nil {
		return false, nil
	}
	err := w.walkStep(ctx, "lp.dual", func() error {
		rv := w.rv
		if !rv.factorize(w.prev) {
			rv.numReason = "singular basis on stepping back"
			if !rv.reinvert() {
				w.done = true
			}
			return &NumericalError{Reason: rv.numReason, Pivots: w.Stats().Pivots()}
		}
		w.prevOK, w.done, w.beyond = false, false, false
		w.measure()
		return nil
	})
	return err == nil, err
}

// Capture reads the optimal solution at the current shift off the current
// basis. It reinverts the basis first, so the basic values are B⁻¹b at the
// current shift with no update drift; the solution is built as Solve's is,
// with duals B⁻ᵀc_B, and mapped back through the walk's scaling onto the
// stated problem with the walked rows lowered by Shift. The walk can go on
// afterwards. ctx cancels the step and parents its spans.
func (w *Walk) Capture(ctx context.Context) (*Solution, error) {
	if w.rv == nil || w.status != Optimal {
		return nil, fmt.Errorf("lp: no optimal basis to capture (%v)", w.status)
	}
	var sol *Solution
	var f *spForm
	err := w.walkStep(ctx, "lp.solve", func() error {
		rv := w.rv
		if !rv.reinvert() || !rv.stateFinite() {
			w.done = true
			reason := rv.numReason
			if reason == "" {
				reason = "non-finite basic values at capture"
			}
			return &NumericalError{Reason: reason, Pivots: w.Stats().Pivots()}
		}
		sol, f = rv.extract(w.iters), rv.f
		if !w.done {
			w.measure()
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	f.unscale(sol)
	sol.Objective = objective(w.p, sol.X)
	sol.Stats = w.Stats()
	return sol, nil
}

// Close releases the walker's working memory. The walker keeps its Stats.
func (w *Walk) Close() { w.closeSegment() }

// walkStep runs one step of a stepped walk: ctx cancels it, the cold
// restarts inside it included, and parents its spans.
func (w *Walk) walkStep(ctx context.Context, name string, fn func() error) error {
	w.o.Ctx = ctx
	if w.rv != nil {
		w.rv.cancelCtx = ctx
	}
	return w.step(ctx, name, fn)
}

// step runs fn under a span named name parented on parent; the kernel's own
// spans (a restart's phases, refactorizations) nest under it.
func (w *Walk) step(parent context.Context, name string, fn func() error) error {
	ctx, sp := obs.Start(parent, name)
	w.setSpan(ctx)
	before := w.Stats().Pivots()
	err := fn()
	sp.SetAttr("pivots", w.Stats().Pivots()-before)
	sp.SetAttr("status", w.status.String())
	sp.End()
	w.setSpan(parent)
	return err
}

func (w *Walk) setSpan(ctx context.Context) {
	w.sctx = ctx
	if w.rv != nil {
		w.rv.sctx = ctx
	}
}

// open runs the first segment at shift 0.
func (w *Walk) open() error {
	st, reason := w.segment(!w.o.NoScaling)
	if st == statusNumerical {
		return w.recover(reason)
	}
	w.setStatus(st)
	return nil
}

// cross takes the pivot at the end of the current piece and settles on the
// next one, restarting cold after a breakdown.
func (w *Walk) cross() error {
	// The piece just walked had positive width: progress, as far as the
	// stall guard is concerned.
	w.stall, w.bland = 0, false
	if w.path == nil {
		// Keep the basis being left for Back; Parametric never steps back.
		w.prev = append(w.prev[:0], w.rv.basis...)
		w.prevOK = true
	}
	st := w.pivot()
	if st == Optimal && !w.done {
		w.iters++
		st = w.settle()
	}
	if st == statusNumerical {
		w.prevOK = false
		return w.recover(w.rv.numReason)
	}
	w.setStatus(st)
	return nil
}

// setStatus ends the walk on any status but Optimal.
func (w *Walk) setStatus(st Status) {
	w.status = st
	if st != Optimal {
		w.done = true
	}
}

// recover restarts the walk cold, without scaling, at the current shift
// after a numerical breakdown; past maxWalkRestarts restarts it returns a
// *NumericalError.
func (w *Walk) recover(reason string) error {
	for {
		w.rescue = reason
		if w.restarts == maxWalkRestarts {
			w.done = true
			return &NumericalError{Reason: reason, Pivots: w.Stats().Pivots()}
		}
		w.restarts++
		st, r := w.segment(false)
		if st != statusNumerical {
			w.setStatus(st)
			return nil
		}
		reason = r
	}
}

// segment cold-solves p with the walked rows lowered by the current shift
// and settles on the first piece from there. It returns statusNumerical,
// with the breakdown's reason, when the segment broke down.
func (w *Walk) segment(scaled bool) (Status, string) {
	w.closeSegment()
	from := w.shift
	var rhs []float64 // the walked rows lowered by from, when they moved
	stated := true
	for k, r := range w.rows {
		stated = stated && w.p.rows[r].rhs == w.rhs[k]
	}
	if from > 0 || !stated {
		rhs = make([]float64, len(w.p.rows))
		for i := range rhs {
			rhs[i] = w.p.rows[i].rhs
		}
		for k, r := range w.rows {
			rhs[r] = w.rhs[k] - from
		}
	}
	f := buildForm(w.p, rhs, scaled)
	if scaled {
		w.stats.RowNormMax, w.stats.RowNormMin = f.normMax, f.normMin
	}

	w.from = from
	w.dir = make([]float64, f.m)
	w.dirRows = w.dirRows[:0]
	for _, r := range w.rows {
		if w.dir[r] == 0 {
			w.dirRows = append(w.dirRows, r)
		}
		d := f.rowSign[r]
		if f.rowScale != nil {
			d *= f.rowScale[r]
		}
		w.dir[r] = d
	}
	w.b0 = append(w.b0[:0], f.b...)
	w.beta = make([]float64, f.m)
	w.prevOK = false

	rv := newRevised(f, &w.o)
	rv.sctx = w.sctx
	w.rv = rv
	sol := rv.solveCold()
	switch {
	case sol.Status == statusNumerical:
		return statusNumerical, rv.numReason
	case sol.Status == Infeasible && from > 0:
		// A restart exactly at the infeasibility point can land on the
		// infeasible side of the feasibility tolerance: the walk ends there,
		// with no basis to read.
		w.closeSegment()
		w.done, w.beyond = true, true
		return Optimal, ""
	case sol.Status != Optimal:
		w.closeSegment()
		return sol.Status, ""
	}
	w.iters = sol.Iters
	w.watchdog = rv.maxIters / 2
	w.bland, w.stall = false, 0
	rv.pr.invalidate()
	w.betaEpoch, w.polished = -1, -1
	w.dualDrift = false
	st := rv.phase("lp.dual", &w.iters, w.settle)
	if st == statusNumerical {
		return st, rv.numReason
	}
	return st, ""
}

// closeSegment folds the current segment's effort into the walk's stats and
// releases its arena.
func (w *Walk) closeSegment() {
	if w.rv == nil {
		return
	}
	st := w.rv.stats
	w.rv.harvestHealth(&st)
	w.stats.add(st)
	w.rv.release()
	w.rv = nil
}

// settle runs the walk's dual loop at the current shift until the basis
// opens a piece of positive width, or the walk ends: it restores
// optimality after reinversions and drift, takes the degenerate pivots of
// zero-width pieces, and sets the piece. It shares the dual loop's ratio
// test, cancellation and fault-injection checkpoint, refactorization
// cadence and stall guard.
func (w *Walk) settle() Status {
	rv := w.rv
	for ; w.iters < rv.maxIters; w.iters++ {
		if w.iters%cancelCheckEvery == 0 {
			if st, ok := rv.checkpoint(); !ok {
				return st
			}
		}
		if w.polished != rv.factorEpoch || w.dualDrift {
			// The dual ratio test's tolerance lets reduced costs creep below
			// zero, and the basis then walks suboptimal pieces. Whenever a
			// pivot pushes one below the optimality tolerance, and on each
			// fresh factorization with exact reduced costs, primal pivots
			// restore optimality at the current shift, as a warm dual
			// solve's closing primal pass does.
			rv.pr.ensureFresh(rv)
			w.dualDrift = false
			if rv.dualInfeasible(nil) {
				before := w.iters
				if st := rv.primal(&w.iters); st != Optimal {
					return st
				}
				rv.stats.Phase2Iters += w.iters - before
				w.betaEpoch = -1
			}
			w.polished = rv.factorEpoch
		}
		if w.iters >= w.watchdog && !w.bland {
			w.bland = true
			rv.stats.BlandActivated = true
			rv.stats.BlandActivations++
		}
		w.measure()
		if w.last || w.width > 0 {
			if w.last && w.end <= w.shift {
				w.done = true
			}
			return Optimal
		}
		w.stall++
		if w.stall >= rv.stallWindow && !w.bland {
			w.bland = true
			rv.stats.BlandActivated = true
			rv.stats.BlandActivations++
		}
		if st := w.pivot(); st != Optimal || w.done {
			return st
		}
	}
	return IterLimit
}

// measure sets the current piece from the current basis: β = B⁻¹·dir, the
// rate at which the basic values fall per unit shift (exact after every
// refactorization, updated per pivot), the ratio test's leaving row and
// step, and the piece's slope.
func (w *Walk) measure() {
	rv := w.rv
	if w.betaEpoch != rv.factorEpoch {
		copy(w.beta, w.dir)
		rv.ftran(w.beta)
		w.betaEpoch = rv.factorEpoch
	}
	leave, step := rv.walkRatioTest(w.beta, w.bland)
	w.start, w.atEnd = w.shift, false
	if leave < 0 || w.shift+step >= w.maxShift {
		// Nothing ends the piece before the shift limit.
		w.leave, w.last = -1, true
		w.width, w.end = w.maxShift-w.shift, w.maxShift
	} else {
		w.leave, w.last = leave, false
		w.width, w.end = step, w.shift+step
	}
	// The objective falls by c_Bᵀβ per unit shift.
	slope := 0.0
	if w.width > 0 {
		for i, bj := range rv.basis {
			slope -= rv.cost[bj] * w.beta[i]
		}
		if w.p.sense == Maximize {
			slope = -slope
		}
	}
	w.slope = slope
}

// pivot takes the dual simplex pivot on the current piece's leaving row,
// or ends the walk where that row's basic value can only go negative: an
// artificial, or a row no column can compensate. A pivot that had to
// reinvert first is left for the dual loop to retry.
func (w *Walk) pivot() Status {
	rv := w.rv
	leave := w.leave
	if rv.f.artificial[rv.basis[leave]] {
		w.done, w.beyond = true, true
		return Optimal
	}
	rv.stats.DualIters++
	if w.bland {
		rv.pr.refresh(rv)
	} else {
		rv.pr.ensureFresh(rv)
	}
	enter := rv.dualRatioTest(leave)
	if enter < 0 {
		// Any further shift drives the row's basic variable negative with
		// no column able to compensate: infeasible beyond this shift.
		w.done, w.beyond = true, true
		return Optimal
	}
	epoch := rv.factorEpoch
	switch rv.dualPivot(leave, enter) {
	case pivotRetry:
		return Optimal
	case pivotFailed:
		return statusNumerical
	}
	w.dualDrift = rv.dualInfeasible(rv.pr.accCols)
	if rv.factorEpoch == epoch {
		// The pivot's own update of β, as pivotUpdate does for xB.
		br := w.beta[leave] / rv.alpha[leave]
		for i := range w.beta {
			w.beta[i] -= br * rv.alpha[i]
		}
		w.beta[leave] = br
	}
	return Optimal
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
func (rv *revised) walkStep(w *Walk, step, theta float64) {
	for i, b := range w.beta {
		rv.xB[i] -= step * b
	}
	for _, r := range w.dirRows {
		rv.f.b[r] = w.b0[r] - theta*w.dir[r]
	}
}

// record sets the breakpoint at the current shift from the current basis:
// the objective in the problem's sense and the named variables' values, as
// the basic values stand (unrounded, so the path is linear along a piece).
// It overwrites a breakpoint already at this shift: the walk records each
// piece's start just before walking it, after whatever pivots the
// breakpoint took, and each end again as the walk stops there. A segment
// that ended without a basis records nothing.
func (w *Walk) record() {
	if w.rv == nil {
		return
	}
	n := len(w.path.Breakpoints)
	if n > 0 && w.path.Breakpoints[n-1].Shift > w.shift {
		return
	}
	if n > 0 && w.path.Breakpoints[n-1].Shift == w.shift {
		w.path.Breakpoints = w.path.Breakpoints[:n-1]
	}
	bp := Breakpoint{Shift: w.shift, Objective: w.Objective(), Values: make([]float64, len(w.vars))}
	for k := range w.vars {
		bp.Values[k] = w.Value(k)
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
