// Package lp solves linear programs over nonnegative variables:
//
//	minimize    cᵀx
//	subject to  aᵢᵀx {≤,=,≥} bᵢ   for each constraint i
//	            x ≥ 0
//
// with one kernel: presolve (internal/lp/presolve), then a two-phase sparse
// revised simplex over a Markowitz LU basis factorization (internal/lp/basis)
// with steepest-edge pricing, dual simplex warm starts, and postsolve back
// to the stated problem. A presolved solve that breaks down numerically is
// re-solved once, cold and without presolve, inside Solve (DESIGN.md §14).
//
// The solver is self-contained (standard library only) and produces exact
// optimal basic solutions, which is what the paper's upper-bound argument
// requires. Upper bounds on variables, when needed, are expressed as explicit
// ≤ constraints by the caller; the power-scheduling LPs built in
// internal/core never need them because configuration fractions are bounded
// by their convexity rows (Σ c = 1, c ≥ 0).
//
// Degenerate scheduling LPs can cycle, so the solver switches to Bland's
// anti-cycling rule after an iteration stall (see DESIGN.md §5.4).
package lp

import (
	"errors"
	"fmt"
	"math"
	"strings"
)

// Rel is the relational operator of a constraint row.
type Rel int

// Constraint relations.
const (
	LE Rel = iota // ≤
	GE            // ≥
	EQ            // =
)

// String returns the conventional symbol for the relation.
func (r Rel) String() string {
	switch r {
	case LE:
		return "<="
	case GE:
		return ">="
	case EQ:
		return "="
	default:
		return fmt.Sprintf("Rel(%d)", int(r))
	}
}

// Sense selects the optimization direction of a Problem.
type Sense int

// Optimization senses.
const (
	Minimize Sense = iota
	Maximize
)

// Status reports the outcome of a Solve call.
type Status int

// Solver outcomes.
const (
	// Optimal means an optimal basic feasible solution was found.
	Optimal Status = iota
	// Infeasible means the constraint system has no solution with x ≥ 0.
	Infeasible
	// Unbounded means the objective can be improved without limit.
	Unbounded
	// IterLimit means the pivot limit was exhausted before convergence.
	IterLimit
	// Canceled means the solve was abandoned mid-pivot because the
	// context supplied via WithContext was canceled or its deadline
	// passed. No statement about the problem is implied.
	Canceled
)

// String describes the status.
func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Infeasible:
		return "infeasible"
	case Unbounded:
		return "unbounded"
	case IterLimit:
		return "iteration limit"
	case Canceled:
		return "canceled"
	default:
		return fmt.Sprintf("Status(%d)", int(s))
	}
}

// Var identifies a decision variable within a Problem.
type Var int

// Term is a coefficient applied to a variable inside a linear expression.
type Term struct {
	Var  Var
	Coef float64
}

// Expr is a linear expression: a sum of terms. Duplicate variables are
// permitted; their coefficients are accumulated when the row is ingested.
type Expr []Term

// Plus returns e extended with the term coef·v.
func (e Expr) Plus(v Var, coef float64) Expr {
	return append(e, Term{Var: v, Coef: coef})
}

// constraint is one ingested row.
type constraint struct {
	name  string
	terms []Term
	rel   Rel
	rhs   float64
}

// Problem is a linear program under construction. The zero value is not
// usable; create problems with NewProblem.
type Problem struct {
	sense    Sense
	names    []string
	obj      []float64
	rows     []constraint
	maxIters int
}

// NewProblem returns an empty problem with the given optimization sense.
func NewProblem(sense Sense) *Problem {
	return &Problem{sense: sense}
}

// SetMaxIters overrides the simplex pivot limit. Zero (the default) selects
// an automatic limit proportional to the problem size.
func (p *Problem) SetMaxIters(n int) { p.maxIters = n }

// NumVars reports how many variables have been declared.
func (p *Problem) NumVars() int { return len(p.names) }

// NumConstraints reports how many constraint rows have been added.
func (p *Problem) NumConstraints() int { return len(p.rows) }

// AddVar declares a new nonnegative variable with the given objective
// coefficient and returns its handle.
func (p *Problem) AddVar(name string, objCoef float64) Var {
	if name == "" {
		name = fmt.Sprintf("x%d", len(p.names))
	}
	p.names = append(p.names, name)
	p.obj = append(p.obj, objCoef)
	return Var(len(p.names) - 1)
}

// SetObjCoef replaces the objective coefficient of v.
func (p *Problem) SetObjCoef(v Var, coef float64) error {
	if int(v) < 0 || int(v) >= len(p.obj) {
		return fmt.Errorf("lp: variable %d out of range", v)
	}
	p.obj[v] = coef
	return nil
}

// VarName reports the name a variable was declared with.
func (p *Problem) VarName(v Var) string {
	if int(v) < 0 || int(v) >= len(p.names) {
		return fmt.Sprintf("<bad var %d>", v)
	}
	return p.names[v]
}

// AddConstraint appends the row  expr rel rhs. Terms referencing undeclared
// variables are rejected.
func (p *Problem) AddConstraint(name string, expr Expr, rel Rel, rhs float64) error {
	for _, t := range expr {
		if int(t.Var) < 0 || int(t.Var) >= len(p.names) {
			return fmt.Errorf("lp: constraint %q references undeclared variable %d", name, t.Var)
		}
	}
	if name == "" {
		name = fmt.Sprintf("r%d", len(p.rows))
	}
	terms := make([]Term, len(expr))
	copy(terms, expr)
	p.rows = append(p.rows, constraint{name: name, terms: terms, rel: rel, rhs: rhs})
	return nil
}

// MustConstraint is AddConstraint that panics on malformed input. It is
// intended for programmatically generated rows where an error indicates a
// bug in the generator, not bad user input.
func (p *Problem) MustConstraint(name string, expr Expr, rel Rel, rhs float64) {
	if err := p.AddConstraint(name, expr, rel, rhs); err != nil {
		panic(err)
	}
}

// SetRHS replaces the right-hand side of the row'th constraint. Power-cap
// sweeps re-solve the same constraint matrix under a family of right-hand
// sides; mutating the RHS in place (and warm starting from the previous
// basis) avoids rebuilding the problem per sweep point.
func (p *Problem) SetRHS(row int, rhs float64) error {
	if row < 0 || row >= len(p.rows) {
		return fmt.Errorf("lp: row %d out of range", row)
	}
	p.rows[row].rhs = rhs
	return nil
}

// RHS reports the current right-hand side of the row'th constraint.
func (p *Problem) RHS(row int) float64 {
	if row < 0 || row >= len(p.rows) {
		return math.NaN()
	}
	return p.rows[row].rhs
}

// Clone returns an independent deep copy of the problem. Mutating the clone
// (adding variables, rows, or changing objective coefficients) never affects
// the original; internal/milp relies on this to build branch-and-bound node
// relaxations.
func (p *Problem) Clone() *Problem {
	c := &Problem{
		sense:    p.sense,
		names:    append([]string(nil), p.names...),
		obj:      append([]float64(nil), p.obj...),
		rows:     make([]constraint, len(p.rows)),
		maxIters: p.maxIters,
	}
	for i, r := range p.rows {
		c.rows[i] = constraint{
			name:  r.name,
			terms: append([]Term(nil), r.terms...),
			rel:   r.rel,
			rhs:   r.rhs,
		}
	}
	return c
}

// Solution is the result of solving a Problem.
type Solution struct {
	Status    Status
	Objective float64   // objective value in the problem's own sense
	X         []float64 // one value per declared variable
	Iters     int       // simplex pivots performed across both phases

	// Dual holds one dual value (shadow price) per constraint row, in the
	// problem's own sense: the rate of change of the optimal objective
	// per unit increase of the row's right-hand side. Only populated at
	// Optimal. For degenerate optima the dual is one valid member of the
	// dual face.
	Dual []float64

	// Basis is the optimal basis in problem space (see the encoding notes
	// in solver.go): one entry per constraint row, each either a
	// structural variable index (< NumVars) or NumVars+r for row r's
	// canonical auxiliary variable. Pass it to a subsequent Solve via
	// WithWarmBasis after an RHS change or row append. Only populated at
	// Optimal.
	Basis []int

	// Stats instruments the solve (per-phase pivots, health counters, wall
	// time).
	Stats SolveStats
}

// DualOf returns the shadow price of the i'th constraint added to the
// problem (NaN when unavailable).
func (s *Solution) DualOf(row int) float64 {
	if s == nil || row < 0 || row >= len(s.Dual) {
		return math.NaN()
	}
	return s.Dual[row]
}

// Value returns the optimal value of v.
func (s *Solution) Value(v Var) float64 {
	if s == nil || int(v) < 0 || int(v) >= len(s.X) {
		return math.NaN()
	}
	return s.X[v]
}

// ErrNoVariables is returned when Solve is called on a problem with no
// declared variables.
var ErrNoVariables = errors.New("lp: problem has no variables")

// Solve is the package-level Solve without options: it runs the kernel on p
// cold and returns the solution. Infeasibility and unboundedness are
// reported through Solution.Status; see Solve for the error cases. Use the
// package-level Solve with options to warm start or cancel.
func (p *Problem) Solve() (*Solution, error) {
	return Solve(p)
}

// String renders the problem in a human-readable LP-file-like format,
// useful in tests and debugging.
func (p *Problem) String() string {
	var b strings.Builder
	if p.sense == Minimize {
		b.WriteString("min ")
	} else {
		b.WriteString("max ")
	}
	first := true
	for j, c := range p.obj {
		if c == 0 {
			continue
		}
		if !first {
			b.WriteString(" + ")
		}
		fmt.Fprintf(&b, "%g %s", c, p.names[j])
		first = false
	}
	if first {
		b.WriteString("0")
	}
	b.WriteString("\ns.t.\n")
	for _, r := range p.rows {
		fmt.Fprintf(&b, "  %s: ", r.name)
		for i, t := range r.terms {
			if i > 0 {
				b.WriteString(" + ")
			}
			fmt.Fprintf(&b, "%g %s", t.Coef, p.names[t.Var])
		}
		fmt.Fprintf(&b, " %s %g\n", r.rel, r.rhs)
	}
	return b.String()
}
