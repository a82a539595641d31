package lp

// Glue between Solve and the internal/lp/presolve pass: convert a Problem
// to the neutral presolve representation, solve the reduced problem, and map
// the solution back to the original index spaces.
// Presolve runs under every solve path; warm-started solves drop to
// ScaleOnly because a warm basis is indexed by the original rows/columns.

import (
	"math"

	"powercap/internal/lp/presolve"
)

// neutralize snapshots p in the presolve package's representation. Nothing
// is shared mutably: presolve copies what it rewrites.
func neutralize(p *Problem) *presolve.Problem {
	np := &presolve.Problem{NumVars: len(p.names), Cost: p.obj}
	np.Rows = make([]presolve.Row, len(p.rows))
	for i, r := range p.rows {
		nr := presolve.Row{
			Rel:  presolve.Rel(r.rel),
			RHS:  r.rhs,
			Cols: make([]int, len(r.terms)),
			Vals: make([]float64, len(r.terms)),
		}
		for k, t := range r.terms {
			nr.Cols[k] = int(t.Var)
			nr.Vals[k] = t.Coef
		}
		np.Rows[i] = nr
	}
	return np
}

// reducedProblem realizes the reduced neutral problem as an lp.Problem,
// carrying over the sense, pivot budget, and the surviving names.
func reducedProblem(p *Problem, red *presolve.Reduction) *Problem {
	rp := &Problem{
		sense:    p.sense,
		maxIters: p.maxIters,
		names:    make([]string, red.P.NumVars),
		obj:      append([]float64(nil), red.P.Cost...),
		rows:     make([]constraint, len(red.P.Rows)),
	}
	for jn, jo := range red.VarMap {
		rp.names[jn] = p.names[jo]
	}
	for in, row := range red.P.Rows {
		terms := make([]Term, len(row.Cols))
		for k, c := range row.Cols {
			terms[k] = Term{Var: Var(c), Coef: row.Vals[k]}
		}
		rp.rows[in] = constraint{
			name:  p.rows[red.RowMap[in]].name,
			terms: terms,
			rel:   Rel(row.Rel),
			rhs:   row.RHS,
		}
	}
	return rp
}

// emptySolution is the non-optimal terminal shape shared by the presolve
// short circuits (status carries the verdict; X is zeroed at original size).
func emptySolution(p *Problem, st Status) *Solution {
	return &Solution{Status: st, Objective: math.NaN(), X: make([]float64, len(p.names))}
}

// solvePresolved runs presolve, solves the reduced problem, and postsolves
// the answer back onto p.
func solvePresolved(p *Problem, o *Options) (*Solution, error) {
	mode := presolve.Full
	if len(o.WarmBasis) > 0 {
		mode = presolve.ScaleOnly
	}
	red := presolve.Run(neutralize(p), mode)

	switch red.Outcome {
	case presolve.OutcomeInfeasible:
		return emptySolution(p, Infeasible), nil
	case presolve.OutcomeSolved:
		// Eliminations consumed the whole problem; the journal IS the
		// solution.
		sol := &Solution{
			Status: Optimal,
			X:      red.PostsolvePrimal(nil),
			Dual:   red.PostsolveDual(nil),
			Basis:  red.MapBasis(nil, 0),
		}
		finishObjective(p, red, sol)
		return sol, nil
	}

	if len(red.P.Rows) == 0 {
		// Unconstrained surviving columns: the optimum pins them at zero
		// unless one improves the objective without limit.
		for jn := range red.P.Cost {
			c := red.P.Cost[jn]
			if (p.sense == Minimize && c < 0) || (p.sense == Maximize && c > 0) {
				return emptySolution(p, Unbounded), nil
			}
		}
		sol := &Solution{
			Status: Optimal,
			X:      red.PostsolvePrimal(make([]float64, red.P.NumVars)),
			Dual:   red.PostsolveDual(nil),
			Basis:  red.MapBasis(nil, red.P.NumVars),
		}
		finishObjective(p, red, sol)
		return sol, nil
	}

	rp := reducedProblem(p, red)
	sol, err := solveSparse(rp, o)
	if err != nil || sol == nil {
		return sol, err
	}
	sol.Stats.PresolveRows = red.RowsRemoved
	sol.Stats.PresolveCols = red.ColsRemoved
	sol.Stats.RowNormMax = red.RowNormMax
	sol.Stats.RowNormMin = red.RowNormMin
	if sol.Status != Optimal {
		out := emptySolution(p, sol.Status)
		out.Iters = sol.Iters
		out.Stats = sol.Stats
		return out, nil
	}
	out := &Solution{
		Status: Optimal,
		X:      red.PostsolvePrimal(sol.X),
		Dual:   red.PostsolveDual(sol.Dual),
		Iters:  sol.Iters,
		Stats:  sol.Stats,
	}
	if len(sol.Basis) > 0 {
		out.Basis = red.MapBasis(sol.Basis, red.P.NumVars)
	}
	finishObjective(p, red, out)
	return out, nil
}

// finishObjective evaluates the original objective at the postsolved point.
// (finishSolution is NOT reused here: the kernel already own-sensed the
// reduced duals, and PostsolveDual preserves that sense.)
func finishObjective(p *Problem, _ *presolve.Reduction, sol *Solution) {
	obj := 0.0
	for j, c := range p.obj {
		obj += c * sol.X[j]
	}
	sol.Objective = obj
}
