package core

import (
	"context"
	"fmt"

	"powercap/internal/dag"
	"powercap/internal/lp"
	"powercap/internal/machine"
	"powercap/internal/problem"
)

// This file turns the shared problem IR (internal/problem) into concrete
// fixed-vertex-order programs. The emitters below are the single source of
// the formulation's rows; buildLP (continuous), SolveDiscrete (binary), and
// SolveSlackAware (enlarged event set) all assemble from them, so the
// formulations differ only in variable domains and event/power accounting —
// never in how the skeleton is derived from the graph.

// taskLPVars are the configuration-fraction variables of one tunable task,
// over its IR frontier columns.
type taskLPVars struct {
	cols *problem.Columns
	cs   []lp.Var
}

// powerRow records one event-power constraint: its row index in the LP and
// the fixed power already deducted from the cap on its right-hand side
// (rhs = capW − deduct).
type powerRow struct {
	row    int
	deduct float64
	vertex int
}

// builtLP is a fixed-vertex-order LP built once per graph. The power cap
// capW enters the program only through the right-hand sides of the event
// power rows (Eq. 11), so one builtLP serves a whole cap sweep: each sweep
// point mutates the power-row RHS values in place (Problem.SetRHS) and
// re-solves, warm starting from the previous point's basis.
type builtLP struct {
	ir   *problem.IR
	prob *lp.Problem
	vVar []lp.Var
	tv   map[dag.TaskID]*taskLPVars

	powerRows []powerRow

	// Events with no tunable task generate no row; the largest fixed draw
	// among them is a hard feasibility floor checked against each cap.
	fixedFloorW      float64
	fixedFloorVertex int
}

// emitSkeleton emits the rows every fixed-vertex-order program shares:
// vertex-time variables with the Init pin (Eqs. 1–2), configuration
// variables over the IR's frontier columns with their convexity rows
// (Eqs. 6–9), and task precedence rows (Eqs. 3–4). addCfgVar creates each
// configuration variable, letting the MILP substitute binaries (Eq. 5)
// without duplicating the skeleton.
func emitSkeleton(ir *problem.IR, prob *lp.Problem, addCfgVar func(name string, powerW float64) lp.Var) ([]lp.Var, map[dag.TaskID]*taskLPVars) {
	g := ir.G

	vVar := make([]lp.Var, len(g.Vertices))
	for i := range g.Vertices {
		obj := 0.0
		if g.Vertices[i].Kind == dag.VFinalize {
			obj = 1
		}
		vVar[i] = prob.AddVar(fmt.Sprintf("v%d", i), obj)
		if g.Vertices[i].Kind == dag.VInit {
			prob.MustConstraint("init0", lp.Expr{}.Plus(vVar[i], 1), lp.EQ, 0)
		}
	}

	tv := make(map[dag.TaskID]*taskLPVars)
	for _, t := range g.Tasks {
		if ir.Class[t.ID] != problem.Tunable {
			continue
		}
		cols := ir.Cols[t.ID]
		v := &taskLPVars{cols: cols, cs: make([]lp.Var, len(cols.F.Pts))}
		var convex lp.Expr
		for k, p := range cols.F.Pts {
			v.cs[k] = addCfgVar(fmt.Sprintf("c%d_%d", t.ID, k), p.PowerW)
			convex = convex.Plus(v.cs[k], 1)
		}
		prob.MustConstraint(fmt.Sprintf("cvx%d", t.ID), convex, lp.EQ, 1)
		tv[t.ID] = v
	}

	// Task precedence (Eqs. 3–4 with s and d substituted):
	// v_dst − v_src ≥ Σ_k d_{i,k} c_{i,k}  (or the fixed duration).
	for _, t := range g.Tasks {
		expr := lp.Expr{}.Plus(vVar[t.Dst], 1).Plus(vVar[t.Src], -1)
		rhs := 0.0
		switch ir.Class[t.ID] {
		case problem.Message:
			rhs = t.FixedDur
		case problem.Fixed:
			// ≥ 0: ordering only.
		case problem.Tunable:
			v := tv[t.ID]
			for k := range v.cs {
				expr = expr.Plus(v.cs[k], -v.cols.Durs[k])
			}
		}
		prob.MustConstraint(fmt.Sprintf("prec%d", t.ID), expr, lp.GE, rhs)
	}
	return vVar, tv
}

// emitEventOrder emits the fixed event order (Eqs. 12–13): the IR's
// vertices chained in initial-time order, simultaneous events pinned equal.
func emitEventOrder(ir *problem.IR, prob *lp.Problem, vVar []lp.Var) {
	for i := 1; i < len(ir.EventOrder); i++ {
		prev, cur := ir.EventOrder[i-1], ir.EventOrder[i]
		expr := lp.Expr{}.Plus(vVar[cur], 1).Plus(vVar[prev], -1)
		if ir.Simultaneous(prev, cur) {
			prob.MustConstraint(fmt.Sprintf("eq%d", i), expr, lp.EQ, 0)
		} else {
			prob.MustConstraint(fmt.Sprintf("ord%d", i), expr, lp.GE, 0)
		}
	}
}

// emitPowerRows emits one event-power row per vertex with a tunable active
// task (Eqs. 10–11 with P_j substituted): the powers of the active tasks
// sum to at most PC, with constant draws of degenerate tasks moved to the
// right-hand side. Rows are emitted at their deduction-only baseline
// (cap 0); callers aim them at a concrete cap through SetRHS. Events with
// only fixed draws yield no row; the largest such draw is returned as the
// feasibility floor every cap must clear.
func emitPowerRows(ir *problem.IR, prob *lp.Problem, tv map[dag.TaskID]*taskLPVars) (rows []powerRow, floorW float64, floorVertex int) {
	floorVertex = -1
	for vi := range ir.G.Vertices {
		var expr lp.Expr
		deduct := 0.0
		for _, tid := range ir.Active[vi] {
			if v, ok := tv[tid]; ok {
				for k := range v.cs {
					expr = expr.Plus(v.cs[k], v.cols.F.Pts[k].PowerW)
				}
			} else {
				deduct += ir.FixedPowerW[tid]
			}
		}
		if len(expr) == 0 {
			if deduct > floorW {
				floorW = deduct
				floorVertex = vi
			}
			continue
		}
		rows = append(rows, powerRow{
			row:    prob.NumConstraints(),
			deduct: deduct,
			vertex: vi,
		})
		prob.MustConstraint(fmt.Sprintf("pow%d", vi), expr, lp.LE, -deduct)
	}
	return rows, floorW, floorVertex
}

// buildLP constructs the cap-independent LP for graph g: variables,
// precedence, event-order, and event-power rows, with the power-row RHS
// values left at their deduction-only baseline (cap 0). ctx carries obs
// span parentage only.
func (s *Solver) buildLP(ctx context.Context, g *dag.Graph) (*builtLP, error) {
	ir, err := s.IRCtx(ctx, g)
	if err != nil {
		return nil, err
	}
	return s.buildFromIR(ir), nil
}

// buildFromIR emits the continuous LP from an already-built IR.
func (s *Solver) buildFromIR(ir *problem.IR) *builtLP {
	b := &builtLP{ir: ir, prob: lp.NewProblem(lp.Minimize)}
	// Configuration-fraction variables carry the power tiebreak on the
	// objective (see Solver.PowerTiebreak).
	b.vVar, b.tv = emitSkeleton(ir, b.prob, func(name string, powerW float64) lp.Var {
		return b.prob.AddVar(name, s.PowerTiebreak*powerW)
	})
	emitEventOrder(ir, b.prob, b.vVar)
	b.powerRows, b.fixedFloorW, b.fixedFloorVertex = emitPowerRows(ir, b.prob, b.tv)
	return b
}

// solveBuilt re-aims the built LP at capW and solves it, warm starting from
// warmBasis when one is supplied. Solver effort is
// accumulated into st. The returned solution is always Optimal; infeasible
// caps surface as ErrInfeasible, and a canceled ctx as an error wrapping
// ctx.Err() (so errors.Is against context.Canceled/DeadlineExceeded works).
func (s *Solver) solveBuilt(ctx context.Context, b *builtLP, capW float64, warmBasis []int, st *Stats) (*lp.Solution, error) {
	if b.fixedFloorW > capW {
		return nil, fmt.Errorf("%w: fixed idle power exceeds cap %.1f W at event %d", ErrInfeasible, capW, b.fixedFloorVertex)
	}
	for _, pr := range b.powerRows {
		if err := b.prob.SetRHS(pr.row, capW-pr.deduct); err != nil {
			return nil, err
		}
	}

	opts := []lp.Option{lp.WithSpanContext(ctx), lp.WithWarmBasis(warmBasis)}
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
		return nil, fmt.Errorf("%w: cap %.1f W", ErrInfeasible, capW)
	case lp.Canceled:
		cause := context.Canceled
		if ctx != nil && ctx.Err() != nil {
			cause = ctx.Err()
		}
		return nil, fmt.Errorf("core: solve canceled after %d pivots: %w", sol.Iters, cause)
	default:
		return nil, fmt.Errorf("core: LP solver returned %v (cap %.1f W)", sol.Status, capW)
	}
}

// extractInto reads an Optimal solution back into schedule fields: vertex
// times, the power shadow price, and per-task choices (through taskMap).
func (s *Solver) extractInto(b *builtLP, sol *lp.Solution, out *Schedule, taskMap []dag.TaskID, vt []float64) {
	g := b.ir.G
	for i := range g.Vertices {
		vt[i] = sol.Value(b.vVar[i])
	}
	// Raising PC relaxes every event-power row at once, so the makespan
	// sensitivity is the sum of their duals.
	for _, pr := range b.powerRows {
		out.MarginalSecPerW += sol.DualOf(pr.row)
	}

	for _, t := range g.Tasks {
		choice := TaskChoice{}
		switch b.ir.Class[t.ID] {
		case problem.Message:
			choice.DurationS = t.FixedDur
		case problem.Fixed:
			choice.PowerW = b.ir.FixedPowerW[t.ID]
			choice.DiscretePowerW = b.ir.FixedPowerW[t.ID]
			choice.Discrete = machine.Config{FreqGHz: s.Model.FreqMinGHz, Threads: 1}
		case problem.Tunable:
			v := b.tv[t.ID]
			f := v.cols.F
			const fracTol = 1e-9
			for k, cv := range v.cs {
				frac := sol.Value(cv)
				if frac <= fracTol {
					continue
				}
				choice.Mix = append(choice.Mix, MixEntry{
					Config:    f.Cfgs[k],
					Frac:      frac,
					DurationS: v.cols.Durs[k],
					PowerW:    f.Pts[k].PowerW,
				})
				choice.DurationS += frac * v.cols.Durs[k]
				choice.PowerW += frac * f.Pts[k].PowerW
			}
			// Discrete rounding: nearest frontier point by power.
			if idx, ok := f.Nearest(choice.PowerW); ok {
				choice.Discrete = f.Cfgs[idx]
				choice.DiscreteDurationS = v.cols.Durs[idx]
				choice.DiscretePowerW = f.Pts[idx].PowerW
			}
		}
		out.Choices[taskMap[t.ID]] = choice
	}
}

// solveInto builds and solves the LP for graph g under capW, writing task
// choices through taskMap into out.Choices and vertex times into vt.
func (s *Solver) solveInto(ctx context.Context, g *dag.Graph, capW float64, out *Schedule, taskMap []dag.TaskID, vt []float64) error {
	b, err := s.buildLP(ctx, g)
	if err != nil {
		return err
	}
	sol, err := s.solveBuilt(ctx, b, capW, nil, &out.Stats)
	if err != nil {
		return err
	}
	s.extractInto(b, sol, out, taskMap, vt)
	return nil
}
