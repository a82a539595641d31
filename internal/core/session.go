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
// session's SolveAt.
//
// Curve walks the same LP along the cap axis in one parametric pass and
// returns the job's whole power–time curve: its exact feasibility floor,
// saturation demand, and every breakpoint. The cluster power market
// (internal/market) allocates on those curves and then solves each job once
// at its granted cap; powercap.MarginalCurve reads the curve instead of
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

// FixedFloorW is a hard lower bound on any feasible cap: the largest fixed
// (untunable) power draw at a single event. Caps at or below it are
// infeasible without a solve; the true feasibility floor — which also
// charges every tunable task's lowest-power configuration — lies above it
// and is Curve's FloorW.
func (cs *CapSession) FixedFloorW() float64 { return cs.b.fixedFloorW }

// Stats reports the solver effort accumulated across every SolveAt and
// Curve of this session (including failed and infeasible probes).
func (cs *CapSession) Stats() Stats { return cs.stats }

// SolveAt re-aims the session's LP at capW and solves it, warm starting
// from the last successful solve's basis. Infeasible caps return
// ErrInfeasible. That answer is not cheap: the kernel treats a warm dual
// simplex's infeasibility verdict as an unusable basis and re-verifies it
// with a cold two-phase solve. A numerical breakdown has already had
// lp.Solve's cold rescue when it surfaces here; the session drops its
// basis, so the next probe starts cold instead of from the basis that
// preceded the failure.
func (cs *CapSession) SolveAt(ctx context.Context, capW float64) (*Schedule, error) {
	b := cs.b
	cs.last = Stats{}
	if b.fixedFloorW > capW {
		return nil, fmt.Errorf("%w: fixed idle power exceeds cap %.1f W at event %d", ErrInfeasible, capW, b.fixedFloorVertex)
	}
	if err := cs.aim(capW); err != nil {
		return nil, err
	}
	sol, err := solveLP(ctx, b.prob, cs.basis, &cs.last, fmt.Sprintf("cap %.1f W", capW))
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
	sched := cs.s.scheduleFrom(b.ir, b.vVar, b.tv, sol, capW)
	sched.Objective = sol.Objective
	// Raising PC relaxes every event-power row at once, so the makespan
	// sensitivity is the sum of their duals.
	for _, pr := range b.powerRows {
		sched.MarginalSecPerW += sol.DualOf(pr.row)
	}
	sched.Stats = cs.last
	return sched, nil
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

// satEps is the slope magnitude, in s/W, below which a piece of a curve
// counts as flat: past the demand, more watts buy no time.
const satEps = 1e-9

// Curve is one job's exact power–time curve: the optimal objective of its
// LP as a function of the job cap, convex, non-increasing and piecewise
// linear, with the makespan along it. Above the last point the curve is
// flat; below FloorW the LP is infeasible.
type Curve struct {
	// FloorW is the smallest feasible cap: the larger of the point where the
	// LP turns infeasible and the session's FixedFloorW.
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
	topW := b.fixedFloorW
	rows := make([]int, len(b.powerRows))
	for i, pr := range b.powerRows {
		topW = math.Max(topW, pr.maxDrawW)
		rows[i] = pr.row
	}
	topW++ // strictly above every draw
	if err := cs.aim(topW); err != nil {
		return nil, err
	}
	finalV := lp.Var(-1)
	for i := range b.ir.G.Vertices {
		if b.ir.G.Vertices[i].Kind == dag.VFinalize {
			finalV = b.vVar[i]
			break
		}
	}
	var vars []lp.Var
	if finalV >= 0 {
		vars = []lp.Var{finalV}
	}

	opts := []lp.Option{lp.WithSpanContext(ctx)}
	if ctx != nil && ctx != context.Background() {
		opts = append(opts, lp.WithContext(ctx))
	}
	path, err := lp.Parametric(b.prob, rows, vars, topW, opts...)
	if err != nil {
		return nil, err
	}
	var st Stats
	st.AddSolve(b.prob.NumVars(), b.prob.NumConstraints(), &lp.Solution{Iters: path.Stats.Pivots(), Stats: path.Stats})
	cs.stats.Add(st)
	switch path.Status {
	case lp.Optimal:
	case lp.Infeasible:
		return nil, fmt.Errorf("%w: infeasible at the saturating cap %.1f W", ErrInfeasible, topW)
	case lp.Canceled:
		cause := context.Canceled
		if ctx != nil && ctx.Err() != nil {
			cause = ctx.Err()
		}
		return nil, fmt.Errorf("core: curve walk canceled after %d pivots: %w", path.Stats.Pivots(), cause)
	default:
		return nil, fmt.Errorf("core: curve walk returned %v", path.Status)
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
	if c.Points[0].CapW < b.fixedFloorW {
		c.clipBelow(b.fixedFloorW)
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
