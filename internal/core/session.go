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
// one-shot solve is a one-probe session. Caps below FloorW, the
// closed-form feasibility floor, are answered without an LP.
//
// A JobSession holds one CapSession per iteration slice: a sweep re-solves
// them at each cap, and the cluster power market and MarginalCurve walk
// them a piece at a time (capWalk, an lp.Walk), in lock step down the
// job's cap axis.
//
// A CapSession is NOT safe for concurrent use; it belongs to one caller
// (a JobSession holds one per slice). The underlying Solver's shared
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

// Stats reports the solver effort accumulated across every SolveAt and
// walk of this session (including failed and infeasible probes).
func (cs *CapSession) Stats() Stats { return cs.stats }

// SolveAt re-aims the session's LP at capW and solves it, warm starting
// from the last successful solve's basis, or else from the crash basis. A
// cap below FloorW returns ErrInfeasible at once, naming the binding
// event's power row, with no LP effort. A numerical breakdown has already
// had lp.Solve's cold rescue when it surfaces here; the session drops its
// basis, and a breakdown from a previous cap's basis is retried once from
// the crash basis, as a fresh solve starts, counted as a rescue.
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
	var nerr *lp.NumericalError
	if len(cs.basis) > 0 && errors.As(err, &nerr) {
		cs.basis = cs.basis[:0]
		cs.last.Rescues++
		sol, err = solveLP(ctx, b.prob, b.crash(), &cs.last, capLabel(capW))
	}
	cs.stats.Add(cs.last)
	if err != nil {
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

// saturatingW is a cap above the most any event can draw, so no power row
// binds: where a walk of the session's LP starts.
func (cs *CapSession) saturatingW() float64 {
	topW := cs.b.floor.fixedW
	for _, pr := range cs.b.powerRows {
		topW = math.Max(topW, pr.maxDrawW)
	}
	return topW + 1 // strictly above every draw
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

// capWalk is one program's walk down its power–time curve, a piece at a
// time, from a saturating cap down to FloorW: an lp.Walk over the session's
// LP in cap units (cap = top − shift). Piece reports the piece below the
// current cap, Lower walks down to a cap, and schedule reads the schedule
// at the current cap off the walk's basis. The walk leaves the session's
// warm-start basis alone; Close counts it as one solve in the session's
// Stats. A JobWalk moves one capWalk per iteration slice; a capWalk is not
// safe for concurrent use.
type capWalk struct {
	cs       *CapSession
	lw       *lp.Walk
	topW     float64
	makespan bool // the walk tracks the finalize vertex's time
	// flat reports that the walk's last breakpoint crossing left a flat
	// piece and the walk has not moved since: a capture reads that piece's
	// basis instead.
	flat bool
}

// walk opens a walk of the session's LP: one cold solve at topW, a cap at
// or above saturatingW, lowering every power row, with the finalize
// vertex's time recorded for the makespan (none when the graph has no
// finalize vertex). ctx parents the open's spans and cancels its pivots;
// each later step (Piece, Lower, schedule) is canceled by the ctx it is
// given.
func (cs *CapSession) walk(ctx context.Context, topW float64) (*capWalk, error) {
	b := cs.b
	if err := cs.aim(topW); err != nil {
		return nil, err
	}
	rows := make([]int, len(b.powerRows))
	for i, pr := range b.powerRows {
		rows[i] = pr.row
	}
	var vars []lp.Var
	for i := range b.ir.G.Vertices {
		if b.ir.G.Vertices[i].Kind == dag.VFinalize {
			vars = []lp.Var{b.vVar[i]}
			break
		}
	}
	opts := []lp.Option{lp.WithSpanContext(ctx)}
	if ctx != nil && ctx != context.Background() {
		opts = append(opts, lp.WithContext(ctx))
	}
	lw, err := lp.OpenWalk(b.prob, rows, vars, topW-cs.FloorW(), opts...)
	if err != nil {
		return nil, err
	}
	w := &capWalk{cs: cs, lw: lw, topW: topW, makespan: len(vars) > 0}
	if err := walkErr(ctx, lw.Status(), topW, lw.Stats().Pivots()); err != nil {
		w.Close()
		return nil, err
	}
	return w, nil
}

// CapW reports the walk's current cap.
func (w *capWalk) CapW() float64 { return w.topW - w.lw.Shift() }

// Piece reports the piece of the curve below the current cap: its lower
// cap and its slope d objective / d cap in s/W (≤ 0). At a breakpoint the
// walk first pivots across it. Where the walk has ended — at FloorW, or
// where the LP turns infeasible — lowerCapW is the current cap.
func (w *capWalk) Piece(ctx context.Context) (lowerCapW, slopeSecPerW float64, err error) {
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
func (w *capWalk) Lower(ctx context.Context, capW float64) error {
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
func (w *capWalk) advance(t float64) {
	if t > w.lw.Shift() {
		w.flat = false
	}
	w.lw.Advance(t)
}

// At reports the objective and makespan at the current cap as the walk's
// basic values stand, and the slope of the piece the walk is on (0 when it
// has just crossed out of a flat piece), with no capture.
func (w *capWalk) At() (objective, makespanS, slopeSecPerW float64) {
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

// schedule reads the schedule at the current cap off the walk: a capture
// (lp.Walk.Capture), certified on the session's LP as stated at that cap
// (lp.Certify), read as SolveAt reads a solution. When the walk crossed out
// of a flat piece at this cap, the capture is taken on that piece, where no
// power row binds: the schedule stays optimal at every higher cap. Its
// Stats are the walk's. The walk can go on afterwards.
func (w *capWalk) schedule(ctx context.Context) (*Schedule, error) {
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
func (w *capWalk) Close() {
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
