package core

import (
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
	win problem.Window
	emitter
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

// String names the window in solve errors.
func (b *windowLP) String() string {
	return fmt.Sprintf("window %d [%d,%d)", b.win.Index, b.win.CoreStart, b.win.ExtEnd)
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
		emitter: emitter{prob: lp.NewProblem(lp.Minimize), log: &crashLog{}},
		vVar:    make([]lp.Var, win.ExtEnd-win.CoreStart),
		tv:      make(map[dag.TaskID]*taskLPVars),
		seamRow: -1,
	}

	for p := win.CoreStart; p < win.ExtEnd; p++ {
		b.vVar[p-win.CoreStart] = b.prob.AddVarNamed(lp.Indexed("v", int(order[p])), 0)
	}
	b.z = b.prob.AddVarNamed(lp.Named("z"), 1)

	// Left anchor: the Init pin for the first window (the whole time-zero
	// simultaneous group sits in window 0's core, Init included), or the
	// seam row v_first ≥ T(previous event) otherwise.
	if win.CoreStart == 0 {
		for p := 0; p < win.ExtEnd; p++ {
			if g.Vertices[order[p]].Kind == dag.VInit {
				b.time(lp.Named("init0"), b.vAt(p), -1, lp.EQ, 0, nil)
				break
			}
		}
	} else {
		b.seamPrev = order[win.CoreStart-1]
		b.seamRow = b.time(lp.Named("seam"), b.vAt(win.CoreStart), -1, lp.GE, 0, nil)
		b.coupled = true
	}

	// Event-order chain inside the range (Eqs. 12–13).
	for p := win.CoreStart + 1; p < win.ExtEnd; p++ {
		if ir.Simultaneous(order[p-1], order[p]) {
			b.time(lp.Indexed("eq", p), b.vAt(p), b.vAt(p-1), lp.EQ, 0, nil)
		} else {
			b.time(lp.Indexed("ord", p), b.vAt(p), b.vAt(p-1), lp.GE, 0, nil)
		}
	}

	// Configuration variables with convexity for every reach task: source
	// position in range, tunable class (Eqs. 6–9).
	reach := plan.TasksWithSrcIn(win.CoreStart, win.ExtEnd)
	addCfgVar := func(name lp.Name, powerW float64) lp.Var {
		return b.prob.AddVarNamed(name, s.PowerTiebreak*powerW)
	}
	for _, tid := range reach {
		if ir.Class[tid] == problem.Tunable {
			b.tv[tid] = b.configVars(tid, ir.Cols[tid], addCfgVar)
		}
	}

	// Precedence rows for tasks arriving in range (Eqs. 3–4). A source
	// committed by an earlier window turns the row into a bound with the
	// committed completion time on the RHS.
	for _, tid := range plan.TasksWithDstIn(win.CoreStart, win.ExtEnd) {
		t := &g.Tasks[tid]
		srcPos := plan.Pos[t.Src]
		if srcPos < win.CoreStart {
			row := b.time(lp.Indexed("bprec", int(tid)), b.vAt(plan.Pos[t.Dst]), -1, lp.GE, 0, nil)
			b.precRefs = append(b.precRefs, wPrecRef{row: row, task: tid})
			b.coupled = true
			continue
		}
		b.taskRow(lp.Indexed("prec", int(tid)), b.vAt(plan.Pos[t.Dst]), b.vAt(srcPos), ir, t, b.tv)
	}

	// Minimax completion: z bounds the last in-range event and the
	// completion of every straddler (reach task whose destination lies
	// beyond ExtEnd), so the window pays for the tails its choices create.
	b.time(lp.Named("zlast"), b.z, b.vAt(win.ExtEnd-1), lp.GE, 0, nil)
	for _, tid := range reach {
		t := &g.Tasks[tid]
		if plan.Pos[t.Dst] < win.ExtEnd {
			continue
		}
		b.taskRow(lp.Indexed("tail", int(tid)), b.z, b.vAt(plan.Pos[t.Src]), ir, t, b.tv)
	}

	// Event-power rows (Eqs. 10–11) for every in-range event. Free terms
	// come from reach tunables; Fixed actives and lookahead-spanning future
	// tasks (possible only past CoreEnd, at their minimum frontier power)
	// fold into the build-time deduction; earlier-committed tunables join
	// the RHS at aim time.
	for p := win.CoreStart; p < win.ExtEnd; p++ {
		vi := order[p]
		b.row = b.row[:0]
		deduct := 0.0
		var committed []dag.TaskID
		for _, tid := range ir.Active[vi] {
			if v, ok := b.tv[tid]; ok {
				for k := range v.cs {
					b.row = b.row.Plus(v.cs[k], v.cols.F.Pts[k].PowerW)
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
		if len(b.row) == 0 {
			if deduct > 0 || len(committed) > 0 {
				b.constEvts = append(b.constEvts, wConstEvent{pos: p, vertex: vi, deduct: deduct, committed: committed})
			}
			continue
		}
		b.powerRefs = append(b.powerRefs, wPowerRef{
			row: b.prob.NumConstraints(), pos: p, vertex: vi,
			deduct: deduct, committed: committed,
		})
		b.prob.MustConstraintNamed(lp.Indexed("pow", int(vi)), b.row, lp.LE, -deduct)
	}
	return b
}

// crash builds the window program's crash basis at its current right-hand
// sides (crash.go): the events in window positions, then z.
func (b *windowLP) crash() []int {
	order := append(append(make([]lp.Var, 0, len(b.vVar)+1), b.vVar...), b.z)
	return crashBasis(b.prob, b.log, order)
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
