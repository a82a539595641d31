package core

import (
	"context"
	"fmt"
	"sort"

	"powercap/internal/dag"
	"powercap/internal/lp"
	"powercap/internal/problem"
)

// SolveSlackAware solves the fixed-vertex-order formulation with slack
// priced separately from computation — the alternative Sec. 3.3 describes
// but does not adopt for the main LP: "If a task's slack power were
// treated as distinct from the active power (as in the Appendix),
// additional power would be available for use in other simultaneously
// running tasks, at the expense of introducing additional events at
// task/slack boundaries."
//
// This variant introduces one boundary event per tunable task (its
// execution end, v_src + d_i) and prices each rank at its task's power
// while running but only at idle power while slacking. Whether a task is
// still running at a given event is fixed from the power-unconstrained
// initial schedule, in the same spirit as the fixed event order — so like
// the main LP this is a near-optimal model, trading the main LP's
// conservatism (slack holds task power) for twice the event count and a
// fixed running/slacking classification.
//
// Its bound is never above the main LP's (idle ≤ task power frees budget),
// and it approaches the flow ILP's from above (the ILP also chooses event
// order). DESIGN.md §5.3 lists this as the slack-pricing ablation.
//
// The skeleton (variables, convexity, precedence) comes from the shared IR
// emitters; only the enlarged event set and its running/slacking power
// accounting — resolved through the IR's Occupancy — are specific here.
func (s *Solver) SolveSlackAware(g *dag.Graph, capW float64) (*Schedule, error) {
	ir, err := s.IR(g)
	if err != nil {
		return nil, err
	}
	init := ir.Init

	prob := lp.NewProblem(lp.Minimize)
	vVar, tv := emitSkeleton(ir, &emitter{prob: prob}, func(name lp.Name, powerW float64) lp.Var {
		return prob.AddVarNamed(name, s.PowerTiebreak*powerW)
	})

	// Event set: vertices plus per-task boundary events at their initial
	// end times. Order fixed from the initial schedule (Eqs. 12–13
	// generalized to the enlarged event set).
	type event struct {
		time   float64
		vertex dag.VertexID // valid when task < 0
		task   dag.TaskID   // boundary event of this task when ≥ 0
	}
	var events []event
	for i := range g.Vertices {
		events = append(events, event{time: init.VertexTime[i], vertex: dag.VertexID(i), task: -1})
	}
	for _, t := range g.Tasks {
		if ir.Class[t.ID] == problem.Tunable {
			events = append(events, event{time: init.End[t.ID], vertex: -1, task: t.ID})
		}
	}
	sort.SliceStable(events, func(a, b int) bool { return events[a].time < events[b].time })

	// exprOf gives each event's time as an LP expression: the vertex
	// variable, or v_src + Σ d·c for a boundary.
	exprOf := func(e event) lp.Expr {
		if e.task < 0 {
			return lp.Expr{}.Plus(vVar[e.vertex], 1)
		}
		t := g.Task(e.task)
		ex := lp.Expr{}.Plus(vVar[t.Src], 1)
		v := tv[e.task]
		for k := range v.cs {
			ex = ex.Plus(v.cs[k], v.cols.Durs[k])
		}
		return ex
	}
	for i := 1; i < len(events); i++ {
		prev := exprOf(events[i-1])
		cur := exprOf(events[i])
		for _, term := range prev {
			cur = cur.Plus(term.Var, -term.Coef)
		}
		rel := lp.GE
		if events[i-1].time == events[i].time {
			rel = lp.EQ
		}
		prob.MustConstraintNamed(lp.Indexed("ord", i), cur, rel, 0)
	}

	// Power rows: every event gets one. A running task contributes its
	// configuration power; a slacking rank contributes idle power. The
	// per-rank occupancy (and the running/slacking split) comes from the
	// IR's shared Occupancy index.
	for ei, e := range events {
		var expr lp.Expr
		rhs := capW
		tj := e.time
		for r := 0; r < g.NumRanks; r++ {
			tid, ok := ir.Occ.TaskAt(r, tj)
			if !ok {
				continue
			}
			if v, vok := tv[tid]; vok && ir.Occ.Running(tid, tj) {
				for kk := range v.cs {
					expr = expr.Plus(v.cs[kk], v.cols.F.Pts[kk].PowerW)
				}
			} else {
				rhs -= s.Model.IdlePower(s.eff(r))
			}
		}
		if len(expr) == 0 {
			if rhs < 0 {
				return nil, fmt.Errorf("%w: idle floor exceeds cap %.1f W", ErrInfeasible, capW)
			}
			continue
		}
		prob.MustConstraintNamed(lp.Indexed("pow", ei), expr, lp.LE, rhs)
	}

	var st Stats
	sol, err := solveLP(context.Background(), prob, nil, &st, capLabel(capW))
	if err != nil {
		return nil, err
	}
	sched := s.scheduleFrom(ir, vVar, tv, sol, capW)
	sched.Stats = st
	return sched, nil
}
