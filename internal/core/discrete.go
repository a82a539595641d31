package core

import (
	"errors"
	"fmt"

	"powercap/internal/dag"
	"powercap/internal/lp"
	"powercap/internal/milp"
	"powercap/internal/problem"
)

// ErrDiscreteTooLarge guards SolveDiscrete against instances where the
// integer program is hopeless — the paper makes the same call: "if the
// problem is initially formulated with discrete configurations, it becomes
// mixed integer/linear. This requires a significantly less efficient
// solution method, which prohibits us from solving realistic problems."
var ErrDiscreteTooLarge = errors.New("core: instance too large for the discrete (ILP) formulation")

// MaxDiscreteTasks bounds the number of tunable tasks SolveDiscrete
// accepts.
const MaxDiscreteTasks = 24

// SolveDiscrete solves the fixed-vertex-order formulation with Eq. (5)'s
// integrality — each task runs in exactly one frontier configuration for
// its entire duration — via branch and bound. It exists to quantify the
// continuous relaxation's rounding gap exactly on small instances; for
// realistic sizes use Solve and the rounding in TaskChoice.Discrete (or
// internal/schedule for validated realizations). The program is emitted
// from the same IR skeleton as the continuous LP — only the variable
// domain differs.
func (s *Solver) SolveDiscrete(g *dag.Graph, capW float64) (*Schedule, error) {
	ir, err := s.IR(g)
	if err != nil {
		return nil, err
	}
	tunable := 0
	for tid := range g.Tasks {
		if ir.Class[tid] == problem.Tunable {
			tunable++
		}
	}
	if tunable > MaxDiscreteTasks {
		return nil, fmt.Errorf("%w: %d tunable tasks > %d", ErrDiscreteTooLarge, tunable, MaxDiscreteTasks)
	}

	prob := milp.NewProblem(lp.Minimize)
	prob.SetGap(1e-6)

	// Eq. (5): c ∈ {0,1}. The tiny power coefficient mirrors the
	// continuous tiebreak but must stay below the pruning gap.
	e := &emitter{prob: prob.Problem}
	vVar, tv := emitSkeleton(ir, e, func(name lp.Name, powerW float64) lp.Var {
		return prob.AddBinary(name.String(), 1e-9*powerW)
	})
	emitEventOrder(ir, e, vVar)
	rows, floor := emitPowerRows(ir, e, tv)
	if floor.minW > capW {
		return nil, floor.infeasible(capW)
	}
	for _, pr := range rows {
		if err := prob.SetRHS(pr.row, capW-pr.deduct); err != nil {
			return nil, err
		}
	}

	sol, err := prob.Solve()
	if err != nil {
		return nil, err
	}
	switch sol.Status {
	case milp.Optimal:
	case milp.Infeasible:
		return nil, fmt.Errorf("%w: cap %.1f W", ErrInfeasible, capW)
	default:
		return nil, fmt.Errorf("core: discrete solver returned %v", sol.Status)
	}

	sched := &Schedule{
		CapW:        capW,
		Choices:     make([]TaskChoice, len(g.Tasks)),
		VertexTimeS: make([]float64, len(g.Vertices)),
	}
	for i := range g.Vertices {
		sched.VertexTimeS[i] = sol.Value(vVar[i])
	}
	sched.MakespanS = finalizeTime(g, sched.VertexTimeS)
	for _, t := range g.Tasks {
		choice := TaskChoice{}
		switch ir.Class[t.ID] {
		case problem.Message:
			choice.DurationS = t.FixedDur
		case problem.Fixed:
			choice.PowerW = ir.FixedPowerW[t.ID]
			choice.DiscretePowerW = ir.FixedPowerW[t.ID]
		case problem.Tunable:
			v := tv[t.ID]
			f := v.cols.F
			for k, cv := range v.cs {
				if sol.Value(cv) > 0.5 {
					choice.Discrete = f.Cfgs[k]
					choice.DiscreteDurationS = v.cols.Durs[k]
					choice.DiscretePowerW = f.Pts[k].PowerW
					choice.DurationS = v.cols.Durs[k]
					choice.PowerW = f.Pts[k].PowerW
					choice.Mix = []MixEntry{{Config: f.Cfgs[k], Frac: 1, DurationS: v.cols.Durs[k], PowerW: f.Pts[k].PowerW}}
				}
			}
		}
		sched.Choices[t.ID] = choice
	}
	sched.Stats = Stats{Solves: 1, Vars: prob.NumVars(), Rows: prob.NumConstraints(), SimplexIter: sol.Nodes}
	return sched, nil
}
