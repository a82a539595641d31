package core

import (
	"context"
	"fmt"
	"math"

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

// powerRow records one event-power constraint: its row index in the LP,
// the fixed power already deducted from the cap on its right-hand side
// (rhs = capW − deduct), and the most the event can draw (the deduction
// plus every active tunable task at its highest-power configuration).
type powerRow struct {
	row      int
	deduct   float64
	vertex   int
	maxDrawW float64
}

// builtLP is a fixed-vertex-order LP built once per graph. The power cap
// capW enters the program only through the right-hand sides of the event
// power rows (Eq. 11), so one builtLP serves every cap a CapSession probes:
// each probe mutates the power-row RHS values in place (Problem.SetRHS) and
// re-solves, warm starting from the previous probe's basis.
type builtLP struct {
	ir *problem.IR
	emitter
	vVar []lp.Var
	tv   map[dag.TaskID]*taskLPVars

	powerRows []powerRow
	floor     capFloor
}

// emitter writes one program's rows into its LP. Its crash log records
// the time and convexity rows for the crash basis (nil records nothing),
// and every row is built in the one expression buffer row before the LP
// copies it out. The buffer belongs to the program, not the package:
// window programs are emitted on several workers at once.
type emitter struct {
	prob *lp.Problem
	log  *crashLog
	row  lp.Expr
}

// capFloor is a program's feasibility floor in closed form. Power rows hold
// only configuration fractions, each task's summing to one, and time rows
// have no deadlines, so every task can run its lowest-power configuration
// at once: the program is feasible exactly when the cap covers, at every
// event, the fixed draw plus each active tunable task's lowest frontier
// power. minW is the largest such sum, vertex the event that attains it and
// row that event's power row, the one-row witness of infeasibility below minW
// (−1 for an event with only fixed draws, which has no row). fixedW is the
// largest draw among events with only fixed draws.
type capFloor struct {
	minW   float64
	vertex int
	row    int
	fixedW float64
}

// infeasible is the error for a cap below the floor, naming the binding
// event's power row.
func (f capFloor) infeasible(capW float64) error {
	if f.row < 0 {
		return fmt.Errorf("%w: cap %.3f W below the %.3f W fixed draw of event %d", ErrInfeasible, capW, f.minW, f.vertex)
	}
	return fmt.Errorf("%w: cap %.3f W below the %.3f W floor of event %d's power row pow%d: its fixed draw and every active task's lowest-power configuration",
		ErrInfeasible, capW, f.minW, f.vertex, f.vertex)
}

// emitSkeleton emits the rows every fixed-vertex-order program shares:
// vertex-time variables with the Init pin (Eqs. 1–2), configuration
// variables over the IR's frontier columns with their convexity rows
// (Eqs. 6–9), and task precedence rows (Eqs. 3–4). addCfgVar creates each
// configuration variable, letting the MILP substitute binaries (Eq. 5)
// without duplicating the skeleton.
func emitSkeleton(ir *problem.IR, e *emitter, addCfgVar func(name lp.Name, powerW float64) lp.Var) ([]lp.Var, map[dag.TaskID]*taskLPVars) {
	g := ir.G

	vVar := make([]lp.Var, len(g.Vertices))
	for i := range g.Vertices {
		obj := 0.0
		if g.Vertices[i].Kind == dag.VFinalize {
			obj = 1
		}
		vVar[i] = e.prob.AddVarNamed(lp.Indexed("v", i), obj)
		if g.Vertices[i].Kind == dag.VInit {
			e.time(lp.Named("init0"), vVar[i], -1, lp.EQ, 0, nil)
		}
	}

	tv := make(map[dag.TaskID]*taskLPVars)
	for _, t := range g.Tasks {
		if ir.Class[t.ID] == problem.Tunable {
			tv[t.ID] = e.configVars(t.ID, ir.Cols[t.ID], addCfgVar)
		}
	}

	// Task precedence (Eqs. 3–4).
	for i := range g.Tasks {
		t := &g.Tasks[i]
		e.taskRow(lp.Indexed("prec", int(t.ID)), vVar[t.Dst], vVar[t.Src], ir, t, tv)
	}
	return vVar, tv
}

// emitEventOrder emits the fixed event order (Eqs. 12–13): the IR's
// vertices chained in initial-time order, simultaneous events pinned equal.
func emitEventOrder(ir *problem.IR, e *emitter, vVar []lp.Var) {
	for i := 1; i < len(ir.EventOrder); i++ {
		prev, cur := ir.EventOrder[i-1], ir.EventOrder[i]
		if ir.Simultaneous(prev, cur) {
			e.time(lp.Indexed("eq", i), vVar[cur], vVar[prev], lp.EQ, 0, nil)
		} else {
			e.time(lp.Indexed("ord", i), vVar[cur], vVar[prev], lp.GE, 0, nil)
		}
	}
}

// time emits the time row name: dst − src − Σ_k d_k·c_k rel rhs and
// records it in the crash log, returning its row index. src < 0 leaves out
// the source time (the Init pin, a window's seam and boundary
// precedences); v, when non-nil, is the tunable task whose configuration
// variables carry its duration. The programs that take a crash basis emit
// every time row through here, so none misses the log; an equality with a
// source is an eq row joining dst to the event before it.
func (e *emitter) time(name lp.Name, dst, src lp.Var, rel lp.Rel, rhs float64, v *taskLPVars) int {
	row := e.prob.NumConstraints()
	e.row = e.row[:0].Plus(dst, 1)
	if src >= 0 {
		e.row = e.row.Plus(src, -1)
	}
	dur := 0.0
	if v != nil {
		for k := range v.cs {
			e.row = e.row.Plus(v.cs[k], -v.cols.Durs[k])
		}
		dur = v.cols.Durs[0]
	}
	if e.log != nil {
		e.log.times = append(e.log.times, timeRow{row: row, dst: dst, src: src, dur: dur, join: rel == lp.EQ && src >= 0})
	}
	e.prob.MustConstraintNamed(name, e.row, rel, rhs)
	return row
}

// taskRow emits task t's row name: dst − src ≥ its duration (Eqs. 3–4
// with s and d substituted): a message's fixed duration, nothing for a
// fixed task (ordering only), or Σ_k d_{i,k} c_{i,k} over a tunable task's
// configuration variables in tv. dst is the task's destination time, or a
// window's completion variable for a task straddling its end.
func (e *emitter) taskRow(name lp.Name, dst, src lp.Var, ir *problem.IR, t *dag.Task, tv map[dag.TaskID]*taskLPVars) {
	switch ir.Class[t.ID] {
	case problem.Message:
		e.time(name, dst, src, lp.GE, t.FixedDur, nil)
	case problem.Tunable:
		e.time(name, dst, src, lp.GE, 0, tv[t.ID])
	default:
		e.time(name, dst, src, lp.GE, 0, nil)
	}
}

// configVars creates tunable task tid's configuration variables over its
// frontier columns through addCfgVar and emits their convexity row
// (Eqs. 6–9), recording the row and the lowest-power column in the crash
// log.
func (e *emitter) configVars(tid dag.TaskID, cols *problem.Columns, addCfgVar func(name lp.Name, powerW float64) lp.Var) *taskLPVars {
	v := &taskLPVars{cols: cols, cs: make([]lp.Var, len(cols.F.Pts))}
	e.row = e.row[:0]
	for k, p := range cols.F.Pts {
		v.cs[k] = addCfgVar(lp.Indexed2("c", int(tid), k), p.PowerW)
		e.row = e.row.Plus(v.cs[k], 1)
	}
	if e.log != nil {
		e.log.cvx = append(e.log.cvx, cvxRow{row: e.prob.NumConstraints(), col: v.cs[0]})
	}
	e.prob.MustConstraintNamed(lp.Indexed("cvx", int(tid)), e.row, lp.EQ, 1)
	return v
}

// emitPowerRows emits one event-power row per vertex with a tunable active
// task (Eqs. 10–11 with P_j substituted): the powers of the active tasks
// sum to at most PC, with constant draws of degenerate tasks moved to the
// right-hand side. Rows are emitted at their deduction-only baseline
// (cap 0); callers aim them at a concrete cap through SetRHS. Events with
// only fixed draws yield no row. The program's closed-form feasibility
// floor comes with the rows.
func emitPowerRows(ir *problem.IR, e *emitter, tv map[dag.TaskID]*taskLPVars) (rows []powerRow, floor capFloor) {
	floor.vertex, floor.row = -1, -1
	for vi := range ir.G.Vertices {
		e.row = e.row[:0]
		deduct, tunableMinW, tunableMaxW := 0.0, 0.0, 0.0
		for _, tid := range ir.Active[vi] {
			if v, ok := tv[tid]; ok {
				lo, top := math.Inf(1), 0.0
				for k := range v.cs {
					e.row = e.row.Plus(v.cs[k], v.cols.F.Pts[k].PowerW)
					lo = min(lo, v.cols.F.Pts[k].PowerW)
					top = max(top, v.cols.F.Pts[k].PowerW)
				}
				tunableMinW += lo
				tunableMaxW += top
			} else {
				deduct += ir.FixedPowerW[tid]
			}
		}
		if len(e.row) == 0 {
			floor.fixedW = max(floor.fixedW, deduct)
			if deduct > floor.minW {
				floor.minW, floor.vertex, floor.row = deduct, vi, -1
			}
			continue
		}
		if w := deduct + tunableMinW; w > floor.minW {
			floor.minW, floor.vertex, floor.row = w, vi, e.prob.NumConstraints()
		}
		rows = append(rows, powerRow{
			row:      e.prob.NumConstraints(),
			deduct:   deduct,
			vertex:   vi,
			maxDrawW: deduct + tunableMaxW,
		})
		e.prob.MustConstraintNamed(lp.Indexed("pow", vi), e.row, lp.LE, -deduct)
	}
	return rows, floor
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
	b := &builtLP{ir: ir, emitter: emitter{prob: lp.NewProblem(lp.Minimize), log: &crashLog{}}}
	// Configuration-fraction variables carry the power tiebreak on the
	// objective (see Solver.PowerTiebreak).
	b.vVar, b.tv = emitSkeleton(ir, &b.emitter, func(name lp.Name, powerW float64) lp.Var {
		return b.prob.AddVarNamed(name, s.PowerTiebreak*powerW)
	})
	emitEventOrder(ir, &b.emitter, b.vVar)
	b.powerRows, b.floor = emitPowerRows(ir, &b.emitter, b.tv)
	return b
}

// crash builds the program's crash basis at its current right-hand sides
// (crash.go), over its time variables in event order.
func (b *builtLP) crash() []int {
	order := make([]lp.Var, len(b.ir.EventOrder))
	for i, v := range b.ir.EventOrder {
		order[i] = b.vVar[v]
	}
	return crashBasis(b.prob, b.log, order)
}

// solveLP is the package's one call into the LP kernel: it solves prob,
// starting from basis when one is given (a previous solve's or a crash
// basis), and folds the solve's effort into st. The returned solution is
// always Optimal; an infeasible program surfaces as ErrInfeasible and a
// canceled ctx as an error wrapping ctx.Err() (so errors.Is against
// context.Canceled/DeadlineExceeded works), each naming the program as
// what, which is rendered only then. A numerical breakdown has had
// lp.Solve's cold rescue and is returned as is.
func solveLP(ctx context.Context, prob *lp.Problem, basis []int, st *Stats, what fmt.Stringer) (*lp.Solution, error) {
	opts := []lp.Option{lp.WithSpanContext(ctx), lp.WithWarmBasis(basis)}
	if ctx != nil && ctx != context.Background() {
		opts = append(opts, lp.WithContext(ctx))
	}
	sol, err := lp.Solve(prob, opts...)
	if err != nil {
		return nil, err
	}
	st.AddSolve(prob.NumVars(), prob.NumConstraints(), sol)

	switch sol.Status {
	case lp.Optimal:
		return sol, nil
	case lp.Infeasible:
		return nil, fmt.Errorf("%w: %s", ErrInfeasible, what)
	case lp.Canceled:
		cause := context.Canceled
		if ctx != nil && ctx.Err() != nil {
			cause = ctx.Err()
		}
		return nil, fmt.Errorf("core: solve canceled after %d pivots (%s): %w", sol.Iters, what, cause)
	default:
		return nil, fmt.Errorf("core: LP solver returned %v (%s)", sol.Status, what)
	}
}

// capLabel names a program by its cap in solve errors: "cap 50.0 W".
type capLabel float64

func (c capLabel) String() string { return fmt.Sprintf("cap %.1f W", float64(c)) }

// scheduleFrom reads an Optimal solution of a program emitted over ir (with
// vertex-time variables vVar and configuration variables tv) back into a
// schedule at capW: vertex times, the makespan, and every task's choice.
func (s *Solver) scheduleFrom(ir *problem.IR, vVar []lp.Var, tv map[dag.TaskID]*taskLPVars, sol *lp.Solution, capW float64) *Schedule {
	g := ir.G
	sched := &Schedule{
		CapW:        capW,
		Choices:     make([]TaskChoice, len(g.Tasks)),
		VertexTimeS: make([]float64, len(g.Vertices)),
	}
	for i := range g.Vertices {
		sched.VertexTimeS[i] = sol.Value(vVar[i])
	}
	for i := range g.Tasks {
		sched.Choices[i] = s.choiceOf(ir, &g.Tasks[i], tv, sol)
	}
	sched.MakespanS = finalizeTime(g, sched.VertexTimeS)
	return sched
}

// choiceOf is the one reader of a task's decision out of an LP solution: a
// message keeps its fixed duration, a degenerate task its fixed draw, and a
// tunable task the configuration mix of its variables in tv, rounded to the
// frontier point nearest its mixed power (Sec. 3.2).
func (s *Solver) choiceOf(ir *problem.IR, t *dag.Task, tv map[dag.TaskID]*taskLPVars, sol *lp.Solution) TaskChoice {
	var choice TaskChoice
	switch ir.Class[t.ID] {
	case problem.Message:
		choice.DurationS = t.FixedDur
	case problem.Fixed:
		choice.PowerW = ir.FixedPowerW[t.ID]
		choice.DiscretePowerW = ir.FixedPowerW[t.ID]
		choice.Discrete = machine.Config{FreqGHz: s.Model.FreqMinGHz, Threads: 1}
	case problem.Tunable:
		v := tv[t.ID]
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
	return choice
}
