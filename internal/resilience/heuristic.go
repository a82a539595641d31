package resilience

import (
	"context"

	"powercap/internal/core"
	"powercap/internal/dag"
	"powercap/internal/problem"
	"powercap/internal/schedule"
)

// heuristicRung builds a discrete schedule without solving an LP, then
// certifies it through the simulator-backed realization/repair loop. With
// slackAware set it mirrors the paper's initial-schedule observation that
// tasks off the critical path can be slowed "as much as possible": any task
// with positive slack in the power-unconstrained initial schedule drops to
// its frontier floor (lowest power), while zero-slack (critical-path) tasks
// take the floor of their fair per-rank power share. Without slackAware it
// is the static last resort: every task at the floor of the uniform fair
// share, the paper's static baseline.
func heuristicRung(ctx context.Context, sv *core.Solver, g *dag.Graph, capW float64, slackAware bool) (*core.Schedule, *schedule.Realized, error) {
	ir, err := sv.IRCtx(ctx, g)
	if err != nil {
		return nil, nil, err
	}
	fair := capW
	if g.NumRanks > 0 {
		fair = capW / float64(g.NumRanks)
	}

	sched := &core.Schedule{CapW: capW, Choices: make([]core.TaskChoice, len(g.Tasks))}
	for _, t := range g.Tasks {
		switch ir.Class[t.ID] {
		case problem.Tunable:
			f := ir.Cols[t.ID].F
			target := fair
			if slackAware && taskSlack(ir, t) > slackTolS {
				target = f.Pts[0].PowerW
			}
			k, _ := f.Floor(target)
			sched.Choices[t.ID] = core.TaskChoice{
				PowerW:    f.Pts[k].PowerW,
				DurationS: ir.Cols[t.ID].Durs[k],
			}
		case problem.Fixed:
			sched.Choices[t.ID] = core.TaskChoice{PowerW: ir.FixedPowerW[t.ID]}
		case problem.Message:
			sched.Choices[t.ID] = core.TaskChoice{DurationS: t.FixedDur}
		}
	}

	realized, err := schedule.RealizeCtx(ctx, ir, sched, schedule.Down, schedule.DefaultOptions())
	if err != nil {
		return nil, nil, err
	}
	// The heuristic has no LP objective; the simulator-validated realized
	// makespan is the schedule's makespan.
	sched.MakespanS = realized.MakespanS
	return sched, realized, nil
}

// slackTolS separates genuinely off-critical tasks from floating-point
// residue in the initial schedule's vertex times.
const slackTolS = 1e-9

// taskSlack is the task's scheduling slack in the power-unconstrained
// initial schedule: the gap between its dependence window and its duration
// there. Positive slack means slowing the task (up to that much) cannot
// move the critical path.
func taskSlack(ir *problem.IR, t dag.Task) float64 {
	window := ir.Init.VertexTime[t.Dst] - ir.Init.VertexTime[t.Src]
	dur := ir.Init.End[t.ID] - ir.Init.Start[t.ID]
	return window - dur
}
