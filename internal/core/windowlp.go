package core

import (
	"context"
	"fmt"

	"powercap/internal/dag"
	"powercap/internal/lp"
	"powercap/internal/problem"
)

// feasTol is the slack allowed on constant-only power checks (watts).
const feasTol = 1e-6

// wPrecRef is a boundary precedence row: the task's source event was
// committed by an earlier window, so the row degenerates to
// v_dst ≥ T_src + D_src — a right-hand-side constant.
type wPrecRef struct {
	row  int
	task dag.TaskID
}

// wPowerRef is one in-range event-power row. deduct folds every draw that
// is constant at build time (Fixed-class actives, and the minimum frontier
// power of lookahead-spanning future tasks); committed lists the active
// tunables owned by earlier windows, whose chosen powers join the RHS at
// aim time.
type wPowerRef struct {
	row       int
	pos       int
	vertex    dag.VertexID
	deduct    float64
	committed []dag.TaskID
}

// wConstEvent is an in-range event whose entire draw is boundary-constant:
// no row is emitted, but the draw is a feasibility floor per aim.
type wConstEvent struct {
	pos       int
	vertex    dag.VertexID
	deduct    float64
	committed []dag.TaskID
}

// windowLP is one window's self-contained program: vertex-time variables
// for positions [CoreStart, ExtEnd), configuration variables for the tasks
// sourced there, and a minimax objective z bounding both the last in-range
// event and the completion of every task that straddles ExtEnd. All
// coupling to earlier windows enters through right-hand sides (seam,
// boundary precedence, committed powers), so a commit solve is a dual
// simplex repair of the speculative basis.
type windowLP struct {
	win  problem.Window
	prob *lp.Problem
	vVar []lp.Var // indexed by position − CoreStart
	z    lp.Var
	tv   map[dag.TaskID]*taskLPVars

	seamRow   int // -1 when the window starts at position 0
	seamPrev  dag.VertexID
	precRefs  []wPrecRef
	powerRefs []wPowerRef
	constEvts []wConstEvent
	coupled   bool
}

// boundaryCoupled reports whether any right-hand side depends on earlier
// windows' commitments. An uncoupled window (the first, or the only one)
// solves identically in phases A and B.
func (b *windowLP) boundaryCoupled() bool { return b.coupled }

// vAt returns the vertex-time variable of event position p.
func (b *windowLP) vAt(p int) lp.Var { return b.vVar[p-b.win.CoreStart] }

// buildWindowLP emits the window program for win against plan. Boundary
// rows are emitted at zero RHS; aim points them at a committed (or
// estimated) state.
func (s *Solver) buildWindowLP(plan *problem.Plan, win problem.Window) *windowLP {
	ir := plan.IR
	g := ir.G
	order := ir.EventOrder
	b := &windowLP{
		win:     win,
		prob:    lp.NewProblem(lp.Minimize),
		vVar:    make([]lp.Var, win.ExtEnd-win.CoreStart),
		tv:      make(map[dag.TaskID]*taskLPVars),
		seamRow: -1,
	}

	for p := win.CoreStart; p < win.ExtEnd; p++ {
		b.vVar[p-win.CoreStart] = b.prob.AddVar(fmt.Sprintf("v%d", order[p]), 0)
	}
	b.z = b.prob.AddVar("z", 1)

	// Left anchor: the Init pin for the first window (the whole time-zero
	// simultaneous group sits in window 0's core, Init included), or the
	// seam row v_first ≥ T(previous event) otherwise.
	if win.CoreStart == 0 {
		for p := 0; p < win.ExtEnd; p++ {
			if g.Vertices[order[p]].Kind == dag.VInit {
				b.prob.MustConstraint("init0", lp.Expr{}.Plus(b.vAt(p), 1), lp.EQ, 0)
				break
			}
		}
	} else {
		b.seamRow = b.prob.NumConstraints()
		b.seamPrev = order[win.CoreStart-1]
		b.prob.MustConstraint("seam", lp.Expr{}.Plus(b.vAt(win.CoreStart), 1), lp.GE, 0)
		b.coupled = true
	}

	// Event-order chain inside the range (Eqs. 12–13).
	for p := win.CoreStart + 1; p < win.ExtEnd; p++ {
		prev, cur := order[p-1], order[p]
		expr := lp.Expr{}.Plus(b.vAt(p), 1).Plus(b.vAt(p-1), -1)
		if ir.Simultaneous(prev, cur) {
			b.prob.MustConstraint(fmt.Sprintf("eq%d", p), expr, lp.EQ, 0)
		} else {
			b.prob.MustConstraint(fmt.Sprintf("ord%d", p), expr, lp.GE, 0)
		}
	}

	// Configuration variables with convexity for every reach task: source
	// position in range, tunable class (Eqs. 6–9).
	reach := plan.TasksWithSrcIn(win.CoreStart, win.ExtEnd)
	for _, tid := range reach {
		if ir.Class[tid] != problem.Tunable {
			continue
		}
		cols := ir.Cols[tid]
		v := &taskLPVars{cols: cols, cs: make([]lp.Var, len(cols.F.Pts))}
		var convex lp.Expr
		for k, p := range cols.F.Pts {
			v.cs[k] = b.prob.AddVar(fmt.Sprintf("c%d_%d", tid, k), s.PowerTiebreak*p.PowerW)
			convex = convex.Plus(v.cs[k], 1)
		}
		b.prob.MustConstraint(fmt.Sprintf("cvx%d", tid), convex, lp.EQ, 1)
		b.tv[tid] = v
	}

	// Precedence rows for tasks arriving in range (Eqs. 3–4). A source
	// committed by an earlier window turns the row into a bound with the
	// committed completion time on the RHS.
	for _, tid := range plan.TasksWithDstIn(win.CoreStart, win.ExtEnd) {
		t := &g.Tasks[tid]
		srcPos := plan.Pos[t.Src]
		if srcPos < win.CoreStart {
			b.precRefs = append(b.precRefs, wPrecRef{row: b.prob.NumConstraints(), task: tid})
			b.prob.MustConstraint(fmt.Sprintf("bprec%d", tid),
				lp.Expr{}.Plus(b.vAt(plan.Pos[t.Dst]), 1), lp.GE, 0)
			b.coupled = true
			continue
		}
		expr := lp.Expr{}.Plus(b.vAt(plan.Pos[t.Dst]), 1).Plus(b.vAt(srcPos), -1)
		rhs := 0.0
		switch ir.Class[tid] {
		case problem.Message:
			rhs = t.FixedDur
		case problem.Fixed:
		case problem.Tunable:
			v := b.tv[tid]
			for k := range v.cs {
				expr = expr.Plus(v.cs[k], -v.cols.Durs[k])
			}
		}
		b.prob.MustConstraint(fmt.Sprintf("prec%d", tid), expr, lp.GE, rhs)
	}

	// Minimax completion: z bounds the last in-range event and the
	// completion of every straddler (reach task whose destination lies
	// beyond ExtEnd), so the window pays for the tails its choices create.
	b.prob.MustConstraint("zlast",
		lp.Expr{}.Plus(b.z, 1).Plus(b.vAt(win.ExtEnd-1), -1), lp.GE, 0)
	for _, tid := range reach {
		t := &g.Tasks[tid]
		if plan.Pos[t.Dst] < win.ExtEnd {
			continue
		}
		expr := lp.Expr{}.Plus(b.z, 1).Plus(b.vAt(plan.Pos[t.Src]), -1)
		rhs := 0.0
		switch ir.Class[tid] {
		case problem.Message:
			rhs = t.FixedDur
		case problem.Fixed:
		case problem.Tunable:
			v := b.tv[tid]
			for k := range v.cs {
				expr = expr.Plus(v.cs[k], -v.cols.Durs[k])
			}
		}
		b.prob.MustConstraint(fmt.Sprintf("tail%d", tid), expr, lp.GE, rhs)
	}

	// Event-power rows (Eqs. 10–11) for every in-range event. Free terms
	// come from reach tunables; Fixed actives and lookahead-spanning future
	// tasks (possible only past CoreEnd, at their minimum frontier power)
	// fold into the build-time deduction; earlier-committed tunables join
	// the RHS at aim time.
	for p := win.CoreStart; p < win.ExtEnd; p++ {
		vi := order[p]
		var expr lp.Expr
		deduct := 0.0
		var committed []dag.TaskID
		for _, tid := range ir.Active[vi] {
			if v, ok := b.tv[tid]; ok {
				for k := range v.cs {
					expr = expr.Plus(v.cs[k], v.cols.F.Pts[k].PowerW)
				}
				continue
			}
			switch {
			case ir.Class[tid] != problem.Tunable:
				deduct += ir.FixedPowerW[tid]
			case plan.Pos[g.Tasks[tid].Src] < win.CoreStart:
				committed = append(committed, tid)
				b.coupled = true
			default:
				// Future task: only reachable in the lookahead when ExtEnd
				// splits its simultaneous group; its owner window holds the
				// binding row for this event.
				deduct += ir.Cols[tid].F.Pts[0].PowerW
			}
		}
		if len(expr) == 0 {
			if deduct > 0 || len(committed) > 0 {
				b.constEvts = append(b.constEvts, wConstEvent{pos: p, vertex: vi, deduct: deduct, committed: committed})
			}
			continue
		}
		b.powerRefs = append(b.powerRefs, wPowerRef{
			row: b.prob.NumConstraints(), pos: p, vertex: vi,
			deduct: deduct, committed: committed,
		})
		b.prob.MustConstraint(fmt.Sprintf("pow%d", vi), expr, lp.LE, -deduct)
	}
	return b
}

// aim points every boundary-dependent right-hand side at the given
// committed (or estimated) state: the seam time, boundary precedence
// completions, and committed powers deducted from the cap.
func (b *windowLP) aim(ir *problem.IR, capW float64, st *committedState) {
	if b.seamRow >= 0 {
		mustSetRHS(b.prob, b.seamRow, st.T[b.seamPrev])
	}
	g := ir.G
	for _, pr := range b.precRefs {
		src := g.Tasks[pr.task].Src
		mustSetRHS(b.prob, pr.row, st.T[src]+st.D[pr.task])
	}
	for _, pr := range b.powerRefs {
		rhs := capW - pr.deduct
		for _, tid := range pr.committed {
			rhs -= st.P[tid]
		}
		mustSetRHS(b.prob, pr.row, rhs)
	}
}

// constExcess returns the worst cap excess among events whose in-range
// draw is entirely constant under st — the windowed analogue of the
// monolithic fixed floor check, and the trigger for escalation when a
// commit leaves a later constant event over budget.
func (b *windowLP) constExcess(capW float64, st *committedState) float64 {
	worst := 0.0
	for _, ce := range b.constEvts {
		total := ce.deduct
		for _, tid := range ce.committed {
			total += st.P[tid]
		}
		if ex := total - capW; ex > worst {
			worst = ex
		}
	}
	return worst
}

func mustSetRHS(p *lp.Problem, row int, rhs float64) {
	if err := p.SetRHS(row, rhs); err != nil {
		panic(fmt.Sprintf("core: window RHS update: %v", err))
	}
}

// solveWindowLP solves an aimed window program, warm starting from basis
// when given, accumulating effort into st. Mirrors solveBuilt's status
// mapping: Optimal returns, Infeasible maps to ErrInfeasible, a canceled
// context surfaces as an error wrapping ctx.Err(). A numerical breakdown
// has had lp.Solve's cold rescue and is returned as is.
func (s *Solver) solveWindowLP(ctx context.Context, b *windowLP, basis []int, st *Stats) (*lp.Solution, error) {
	opts := []lp.Option{lp.WithSpanContext(ctx), lp.WithWarmBasis(basis)}
	if ctx != nil && ctx != context.Background() {
		opts = append(opts, lp.WithContext(ctx))
	}
	sol, err := lp.Solve(b.prob, opts...)
	if err != nil {
		return nil, err
	}
	st.AddSolve(b.prob.NumVars(), b.prob.NumConstraints(), sol)

	switch sol.Status {
	case lp.Optimal:
		return sol, nil
	case lp.Infeasible:
		return nil, fmt.Errorf("%w: window %d [%d,%d)", ErrInfeasible, b.win.Index, b.win.CoreStart, b.win.ExtEnd)
	case lp.Canceled:
		cause := context.Canceled
		if ctx != nil && ctx.Err() != nil {
			cause = ctx.Err()
		}
		return nil, fmt.Errorf("core: window solve canceled after %d pivots: %w", sol.Iters, cause)
	default:
		return nil, fmt.Errorf("core: LP solver returned %v (window %d)", sol.Status, b.win.Index)
	}
}
