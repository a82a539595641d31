package lp

// Glue between Solve and the kernel: a solve from a supplied basis, and
// the rescue, build the form of the stated problem directly (scaled and
// unscaled respectively); a basis-free solve first runs the
// internal/lp/presolve eliminations, builds the form of the reduced
// problem, and maps the solution back to the stated index spaces.

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

// reducedProblem realizes the reduced neutral problem as an lp.Problem for
// the form builder, carrying over the sense and pivot budget. Its names are
// the defaults: nothing renders them.
func reducedProblem(p *Problem, red *presolve.Reduction) *Problem {
	rp := &Problem{
		sense:    p.sense,
		maxIters: p.maxIters,
		names:    make([]Name, red.P.NumVars),
		obj:      red.P.Cost,
		rows:     make([]constraint, len(red.P.Rows)),
	}
	for in, row := range red.P.Rows {
		terms := make([]Term, len(row.Cols))
		for k, c := range row.Cols {
			terms[k] = Term{Var: Var(c), Coef: row.Vals[k]}
		}
		rp.rows[in] = constraint{terms: terms, rel: Rel(row.Rel), rhs: row.RHS}
	}
	return rp
}

// emptySolution is the non-optimal terminal shape shared by the presolve
// short circuits (status carries the verdict; X is zeroed at original size).
func emptySolution(p *Problem, st Status) *Solution {
	return &Solution{Status: st, Objective: math.NaN(), X: make([]float64, len(p.names))}
}

// objective evaluates p's objective, in its own sense, at x.
func objective(p *Problem, x []float64) float64 {
	obj := 0.0
	for j, c := range p.obj {
		obj += c * x[j]
	}
	return obj
}

// solveStated solves p's own rows and columns: equilibrated (scale) for a
// solve from a supplied basis, whose indices are the stated ones, and
// unscaled for the rescue and WithoutPresolve. Only the scaled solve
// reports the form's row norms.
func solveStated(p *Problem, o *Options, scale bool) (*Solution, error) {
	f := buildForm(p, nil, scale)
	sol, err := solveSparse(f, o)
	if err != nil {
		return nil, err
	}
	if scale {
		sol.Stats.RowNormMax, sol.Stats.RowNormMin = f.normMax, f.normMin
	}
	if sol.Status == Optimal {
		f.unscale(sol)
		sol.Objective = objective(p, sol.X)
	}
	return sol, nil
}

// solvePresolved solves p through presolve: from a supplied basis it
// solves the stated problem scaled, and otherwise it runs presolve's
// eliminations, solves the reduced problem, and postsolves the answer back
// onto p.
func solvePresolved(p *Problem, o *Options) (*Solution, error) {
	if len(o.WarmBasis) > 0 && len(p.rows) > 0 {
		return solveStated(p, o, true)
	}
	red := presolve.Run(neutralize(p))

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
		sol.Objective = objective(p, sol.X)
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
		sol.Objective = objective(p, sol.X)
		return sol, nil
	}

	f := buildForm(reducedProblem(p, red), nil, true)
	sol, err := solveSparse(f, o)
	if err != nil {
		return nil, err
	}
	sol.Stats.PresolveRows = red.RowsRemoved
	sol.Stats.PresolveCols = red.ColsRemoved
	sol.Stats.RowNormMax, sol.Stats.RowNormMin = f.normMax, f.normMin
	if sol.Status != Optimal {
		out := emptySolution(p, sol.Status)
		out.Iters = sol.Iters
		out.Stats = sol.Stats
		return out, nil
	}
	// The journal is in stated numbers: unscale once, then postsolve.
	f.unscale(sol)
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
	out.Objective = objective(p, out.X)
	return out, nil
}
