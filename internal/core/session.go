package core

import (
	"context"
	"errors"
	"fmt"
	"math"

	"powercap/internal/dag"
	"powercap/internal/lp"
)

// CapSession is the one path that aims the whole-graph LP at a cap and
// solves it: one graph's LP, built once, re-aimed at arbitrary caps. The cap
// enters the fixed-vertex-order program only through the right-hand sides of
// the event power rows, so every SolveAt after the first mutates those RHS
// values in place and warm starts from the previous successful solve's
// basis — the old basis stays dual feasible under an RHS-only change, so a
// few dual simplex pivots repair it instead of a full two-phase solve. A
// one-shot solve is a one-probe session, and SolveSweep is a loop over one
// session's SolveAt. Caps below FloorW, the closed-form feasibility floor,
// are answered without an LP.
//
// Walk and Curve walk the same LP down the cap axis, one dual simplex pivot
// per breakpoint (lp.Walk). Walk goes a piece at a time on the caller's
// command and reads a schedule off its basis wherever it stops; the
// cluster power market (internal/market) lowers one walk per job only as
// far as the job's granted cap. Curve walks the whole way down and returns
// the job's power–time curve, which powercap.MarginalCurve reads instead of
// solving each cap it is asked about.
//
// A CapSession is NOT safe for concurrent use; it belongs to one caller
// (the market holds one session per job). The underlying Solver's shared
// IR and frontier caches are still used, so opening a session on a graph
// the Solver has already seen costs no rebuild.
type CapSession struct {
	s     *Solver
	b     *builtLP
	basis []int
	stats Stats
	last  Stats // effort of the latest SolveAt, feasible or not
}

// NewCapSession builds the whole-graph LP for g once and returns a session
// whose SolveAt re-solves it at arbitrary caps with warm starts. ctx carries
// obs span parentage for the (possibly cached) IR build.
func (s *Solver) NewCapSession(ctx context.Context, g *dag.Graph) (*CapSession, error) {
	b, err := s.buildLP(ctx, g)
	if err != nil {
		return nil, err
	}
	return &CapSession{s: s, b: b}, nil
}

// FloorW is the smallest feasible cap, in closed form: the largest draw of
// any event when each of its tunable tasks runs its lowest-power
// configuration. Every cap at or above it is feasible, and none below.
func (cs *CapSession) FloorW() float64 { return cs.b.floor.minW }

// Stats reports the solver effort accumulated across every SolveAt, Walk
// and Curve of this session (including failed and infeasible probes).
func (cs *CapSession) Stats() Stats { return cs.stats }

// SolveAt re-aims the session's LP at capW and solves it, warm starting
// from the last successful solve's basis. A cap below FloorW returns
// ErrInfeasible at once, naming the binding event's power row, with no
// LP effort. A numerical breakdown has already had lp.Solve's cold rescue
// when it surfaces here; the session drops its basis, so the next probe
// starts cold instead of from the basis that preceded the failure.
func (cs *CapSession) SolveAt(ctx context.Context, capW float64) (*Schedule, error) {
	b := cs.b
	cs.last = Stats{}
	if b.floor.minW > capW {
		return nil, b.floor.infeasible(capW)
	}
	if err := cs.aim(capW); err != nil {
		return nil, err
	}
	basis := cs.basis
	if len(basis) == 0 {
		basis = b.crash()
	}
	sol, err := solveLP(ctx, b.prob, basis, &cs.last, capLabel(capW))
	cs.stats.Add(cs.last)
	if err != nil {
		var nerr *lp.NumericalError
		if errors.As(err, &nerr) {
			cs.basis = cs.basis[:0]
		}
		return nil, err
	}
	if len(sol.Basis) > 0 {
		cs.basis = append(cs.basis[:0], sol.Basis...)
	}
	sched := cs.schedule(sol, capW)
	sched.Stats = cs.last
	return sched, nil
}

// schedule reads an optimal solution of the session's LP at capW.
func (cs *CapSession) schedule(sol *lp.Solution, capW float64) *Schedule {
	b := cs.b
	sched := cs.s.scheduleFrom(b.ir, b.vVar, b.tv, sol, capW)
	sched.Objective = sol.Objective
	// Raising PC relaxes every event-power row at once, so the makespan
	// sensitivity is the sum of their duals.
	for _, pr := range b.powerRows {
		sched.MarginalSecPerW += sol.DualOf(pr.row)
	}
	return sched
}

// aim sets every event-power row's right-hand side for cap capW.
func (cs *CapSession) aim(capW float64) error {
	for _, pr := range cs.b.powerRows {
		if err := cs.b.prob.SetRHS(pr.row, capW-pr.deduct); err != nil {
			return err
		}
	}
	return nil
}

// walkFrom aims the LP at a saturating cap, above the most any event can
// draw so no power row binds, and returns that cap, the power rows a walk
// lowers, the finalize vertex's variable for the makespan (none when the
// graph has no finalize vertex), and the options that carry ctx into the
// kernel.
func (cs *CapSession) walkFrom(ctx context.Context) (topW float64, rows []int, vars []lp.Var, opts []lp.Option, err error) {
	b := cs.b
	topW = b.floor.fixedW
	rows = make([]int, len(b.powerRows))
	for i, pr := range b.powerRows {
		topW = math.Max(topW, pr.maxDrawW)
		rows[i] = pr.row
	}
	topW++ // strictly above every draw
	if err := cs.aim(topW); err != nil {
		return 0, nil, nil, nil, err
	}
	for i := range b.ir.G.Vertices {
		if b.ir.G.Vertices[i].Kind == dag.VFinalize {
			vars = []lp.Var{b.vVar[i]}
			break
		}
	}
	opts = []lp.Option{lp.WithSpanContext(ctx)}
	if ctx != nil && ctx != context.Background() {
		opts = append(opts, lp.WithContext(ctx))
	}
	return topW, rows, vars, opts, nil
}

// walkErr maps a walk's stopping status onto the package's errors.
func walkErr(ctx context.Context, st lp.Status, topW float64, pivots int) error {
	switch st {
	case lp.Optimal:
		return nil
	case lp.Infeasible:
		return fmt.Errorf("%w: infeasible at the saturating cap %.1f W", ErrInfeasible, topW)
	case lp.Canceled:
		cause := context.Canceled
		if ctx != nil && ctx.Err() != nil {
			cause = ctx.Err()
		}
		return fmt.Errorf("core: curve walk canceled after %d pivots: %w", pivots, cause)
	default:
		return fmt.Errorf("core: curve walk returned %v", st)
	}
}

// walkStats counts a walk's effort as one solve of the session's LP.
func (cs *CapSession) walkStats(st lp.SolveStats) Stats {
	var out Stats
	out.AddSolve(cs.b.prob.NumVars(), cs.b.prob.NumConstraints(), &lp.Solution{Iters: st.Pivots(), Stats: st})
	return out
}

// Walk is one job's walk down its power–time curve, a piece at a time,
// from a saturating cap down to FloorW: an lp.Walk over the session's LP in
// cap units (cap = top − shift). Piece reports the piece below the current
// cap, Lower walks down to a cap, Demand through the flat top, and
// Schedule reads the schedule at the current cap off the walk's basis. The
// walk leaves the session's warm-start basis alone; Close counts it as one
// solve in the session's Stats. A Walk is not safe for concurrent use.
type Walk struct {
	cs       *CapSession
	lw       *lp.Walk
	topW     float64
	makespan bool // the walk tracks the finalize vertex's time
	// flat reports that the walk's last breakpoint crossing left a flat
	// piece and the walk has not moved since: a capture reads that piece's
	// basis instead.
	flat bool
}

// Walk opens a walk of the session's LP: one cold solve at a saturating
// cap. ctx parents the open's spans and cancels its pivots; each later
// step (Piece, Lower, Demand, Schedule) is canceled by the ctx it is
// given.
func (cs *CapSession) Walk(ctx context.Context) (*Walk, error) {
	topW, rows, vars, opts, err := cs.walkFrom(ctx)
	if err != nil {
		return nil, err
	}
	lw, err := lp.OpenWalk(cs.b.prob, rows, vars, topW-cs.FloorW(), opts...)
	if err != nil {
		return nil, err
	}
	w := &Walk{cs: cs, lw: lw, topW: topW, makespan: len(vars) > 0}
	if err := walkErr(ctx, lw.Status(), topW, lw.Stats().Pivots()); err != nil {
		w.Close()
		return nil, err
	}
	return w, nil
}

// CapW reports the walk's current cap.
func (w *Walk) CapW() float64 { return w.topW - w.lw.Shift() }

// Piece reports the piece of the curve below the current cap: its lower
// cap and its slope d objective / d cap in s/W (≤ 0). At a breakpoint the
// walk first pivots across it. Where the walk has ended — at FloorW, or
// where the LP turns infeasible — lowerCapW is the current cap.
func (w *Walk) Piece(ctx context.Context) (lowerCapW, slopeSecPerW float64, err error) {
	for !w.lw.Ended() {
		_, end, slope := w.lw.Piece()
		if lo := w.topW - end; lo < w.CapW() {
			return lo, -slope, nil
		}
		// At the piece's end, or on a piece narrower than the cap's
		// rounding: finish it and cross.
		w.advance(end)
		if w.lw.Ended() {
			break
		}
		if err := w.lw.Cross(ctx); err != nil {
			return 0, 0, err
		}
		if err := walkErr(ctx, w.lw.Status(), w.topW, w.lw.Stats().Pivots()); err != nil {
			return 0, 0, err
		}
		w.flat = math.Abs(slope) <= satEps
	}
	return w.CapW(), 0, nil
}

// Lower walks down to capW, piece by piece, and stops there without
// crossing a breakpoint at capW. It stops early where the walk ends.
func (w *Walk) Lower(ctx context.Context, capW float64) error {
	for w.CapW() > capW {
		lo, _, err := w.Piece(ctx)
		if err != nil {
			return err
		}
		if lo >= w.CapW() {
			return nil
		}
		if capW > lo {
			w.advance(w.topW - capW)
			return nil
		}
		_, end, _ := w.lw.Piece()
		w.advance(end)
	}
	return nil
}

// advance moves the walk along its piece to shift t.
func (w *Walk) advance(t float64) {
	if t > w.lw.Shift() {
		w.flat = false
	}
	w.lw.Advance(t)
}

// Demand lowers the walk through its flat top, the pieces whose slope is
// within satEps of zero, and returns the cap it stops at: the job's
// saturation demand, the highest cap below which watts buy time.
func (w *Walk) Demand(ctx context.Context) (float64, error) {
	for {
		lo, slope, err := w.Piece(ctx)
		if err != nil {
			return 0, err
		}
		if lo >= w.CapW() || math.Abs(slope) > satEps {
			return w.CapW(), nil
		}
		if err := w.Lower(ctx, lo); err != nil {
			return 0, err
		}
	}
}

// At reports the objective and makespan at the current cap as the walk's
// basic values stand, and the slope of the piece the walk is on (0 when it
// has just crossed out of a flat piece), with no capture.
func (w *Walk) At() (objective, makespanS, slopeSecPerW float64) {
	objective = w.lw.Objective()
	if w.makespan {
		makespanS = w.lw.Value(0)
	}
	if !w.flat {
		_, _, slope := w.lw.Piece()
		slopeSecPerW = -slope
	}
	return objective, makespanS, slopeSecPerW
}

// Schedule reads the schedule at the current cap off the walk: a capture
// (lp.Walk.Capture), certified on the session's LP as stated at that cap
// (lp.Certify), read as SolveAt reads a solution. When the walk crossed out
// of a flat piece at this cap, the capture is taken on that piece, where no
// power row binds: the schedule stays optimal at every higher cap. Its
// Stats are the walk's. The walk can go on afterwards.
func (w *Walk) Schedule(ctx context.Context) (*Schedule, error) {
	capW := w.CapW()
	if w.flat {
		if _, err := w.lw.Back(ctx); err != nil {
			return nil, err
		}
	}
	sol, err := w.lw.Capture(ctx)
	if err != nil {
		return nil, err
	}
	if err := w.cs.aim(capW); err != nil {
		return nil, err
	}
	if err := lp.Certify(w.cs.b.prob, sol).Err(); err != nil {
		return nil, fmt.Errorf("core: schedule captured at %.3f W: %w", capW, err)
	}
	sched := w.cs.schedule(sol, capW)
	sched.Stats = w.cs.walkStats(w.lw.Stats())
	return sched, nil
}

// Close ends the walk and counts it as one solve in the session's Stats.
func (w *Walk) Close() {
	if w.lw == nil {
		return
	}
	w.lw.Close()
	w.cs.stats.Add(w.cs.walkStats(w.lw.Stats()))
	w.lw = nil
}

// satEps is the slope magnitude, in s/W, below which a piece of a curve
// counts as flat: past the demand, more watts buy no time.
const satEps = 1e-9

// Curve is one job's exact power–time curve: the optimal objective of its
// LP as a function of the job cap, convex, non-increasing and piecewise
// linear, with the makespan along it. Above the last point the curve is
// flat; below FloorW the LP is infeasible.
type Curve struct {
	// FloorW is the smallest feasible cap the walk found: the larger of the
	// point where the LP turns infeasible and the largest draw of an event
	// with only fixed draws. It matches the session's closed-form FloorW.
	FloorW float64
	// DemandW is the saturation cap: the highest breakpoint below which the
	// slope is nonzero (|slope| > 1e-9 s/W). Watts above it buy no time.
	DemandW float64
	// Points are the breakpoints in increasing cap, from FloorW up to the
	// saturating cap the walk started at.
	Points []CurvePoint
}

// CurvePoint is one breakpoint of a Curve.
type CurvePoint struct {
	CapW float64
	// Objective and MakespanS are the LP objective and the makespan at
	// CapW; both are linear between neighbouring points.
	Objective float64
	MakespanS float64
	// SlopeSecPerW is d Objective / d cap on the piece from this point up
	// to the next (≤ 0; 0 at the last point and above the demand).
	SlopeSecPerW float64
}

// At evaluates the curve at capW: the objective and makespan there, and
// the slope of the piece above capW — the value of the next watt, 0 at or
// above the demand. ok is false below the floor.
func (c *Curve) At(capW float64) (objective, makespanS, slope float64, ok bool) {
	if capW < c.FloorW {
		return 0, 0, 0, false
	}
	pts := c.Points
	k := len(pts) - 1
	for k > 0 && pts[k].CapW > capW {
		k--
	}
	p := pts[k]
	d := math.Max(capW-p.CapW, 0)
	if k == len(pts)-1 {
		return p.Objective, p.MakespanS, 0, true
	}
	q := pts[k+1]
	u := d / (q.CapW - p.CapW)
	objective = p.Objective + d*p.SlopeSecPerW
	makespanS = p.MakespanS + u*(q.MakespanS-p.MakespanS)
	if capW < c.DemandW {
		slope = p.SlopeSecPerW
	}
	return objective, makespanS, slope, true
}

// Curve walks the session's LP along the cap axis and returns the job's
// exact power–time curve. It solves the LP cold at a saturating cap — above
// the most any event can draw, so no power row binds — and then lowers
// every event-power row's right-hand side together, one dual simplex pivot
// per breakpoint (lp.Parametric), until the LP turns infeasible. The walk
// counts as one solve in Stats, its pivots as dual pivots. Curve leaves the
// session's warm-start basis alone.
func (cs *CapSession) Curve(ctx context.Context) (*Curve, error) {
	b := cs.b
	topW, rows, vars, opts, err := cs.walkFrom(ctx)
	if err != nil {
		return nil, err
	}
	path, err := lp.Parametric(b.prob, rows, vars, topW, opts...)
	if err != nil {
		return nil, err
	}
	cs.stats.Add(cs.walkStats(path.Stats))
	if err := walkErr(ctx, path.Status, topW, path.Stats.Pivots()); err != nil {
		return nil, err
	}

	// Breakpoints come in increasing shift, so decreasing cap; the piece
	// below breakpoint k in cap is the one above breakpoint k+1.
	bps := path.Breakpoints
	c := &Curve{Points: make([]CurvePoint, len(bps))}
	for k, bp := range bps {
		pt := CurvePoint{CapW: topW - bp.Shift, Objective: bp.Objective}
		if len(bp.Values) > 0 {
			pt.MakespanS = bp.Values[0]
		}
		if k > 0 {
			pt.SlopeSecPerW = -bps[k-1].Slope
		}
		c.Points[len(bps)-1-k] = pt
	}
	c.dropZeroWidth()
	if c.Points[0].CapW < b.floor.fixedW {
		c.clipBelow(b.floor.fixedW)
	}
	c.FloorW = c.Points[0].CapW
	c.DemandW = c.FloorW
	for k := len(c.Points) - 2; k >= 0; k-- {
		if math.Abs(c.Points[k].SlopeSecPerW) > satEps {
			c.DemandW = c.Points[k+1].CapW
			break
		}
		c.Points[k].SlopeSecPerW = 0
	}
	return c, nil
}

// dropZeroWidth removes pieces narrower than 1e-9 relative, which
// floating-point near-ties between basis changes leave behind. The narrow
// piece's lower end goes and the piece below extends across it; at the
// floor, the floor takes over the slope of the piece above.
func (c *Curve) dropZeroWidth() {
	kept := c.Points[:1]
	for _, pt := range c.Points[1:] {
		last := &kept[len(kept)-1]
		switch {
		case pt.CapW-last.CapW > 1e-9*math.Max(1, pt.CapW):
			kept = append(kept, pt)
		case len(kept) == 1:
			last.SlopeSecPerW = pt.SlopeSecPerW
		default:
			*last = pt
		}
	}
	c.Points = kept
}

// clipBelow drops the part of the curve below capW, which events with only
// fixed draws make infeasible, starting the curve with a point at capW.
func (c *Curve) clipBelow(capW float64) {
	k := 0
	for k+1 < len(c.Points) && c.Points[k+1].CapW <= capW {
		k++
	}
	p := c.Points[k]
	if k+1 < len(c.Points) {
		q := c.Points[k+1]
		u := (capW - p.CapW) / (q.CapW - p.CapW)
		p = CurvePoint{
			CapW:         capW,
			Objective:    p.Objective + (capW-p.CapW)*p.SlopeSecPerW,
			MakespanS:    p.MakespanS + u*(q.MakespanS-p.MakespanS),
			SlopeSecPerW: p.SlopeSecPerW,
		}
	}
	c.Points = append([]CurvePoint{p}, c.Points[k+1:]...)
}
