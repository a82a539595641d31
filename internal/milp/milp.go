// Package milp solves small mixed integer-linear programs by branch and
// bound over the LP relaxation provided by internal/lp.
//
// The paper's flow ILP formulation (Sec. 3.4 and Appendix) is the only
// client; it is "practically limited to solving small (i.e. fewer than 30
// DAG edges) problems", so a straightforward best-bound branch and bound
// with full LP re-solves per node is appropriate. Binary variables are
// branched by appending explicit x ≤ floor / x ≥ ceil rows to copies of the
// relaxation.
package milp

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"powercap/internal/lp"
)

// Status reports the outcome of a MILP solve.
type Status int

// Solver outcomes.
const (
	// Optimal means an integer-feasible optimum was proven.
	Optimal Status = iota
	// Infeasible means no integer-feasible point exists.
	Infeasible
	// Unbounded means the LP relaxation is unbounded.
	Unbounded
	// NodeLimit means the search tree budget was exhausted; Incumbent (if
	// any) is the best integer-feasible solution found so far.
	NodeLimit
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
	case NodeLimit:
		return "node limit"
	default:
		return fmt.Sprintf("Status(%d)", int(s))
	}
}

// intTol is the tolerance within which a relaxation value counts as integral.
const intTol = 1e-6

// Problem augments an lp.Problem with integrality requirements. Build the
// linear part with the embedded methods, then mark variables integer with
// SetInteger.
type Problem struct {
	*lp.Problem
	sense    lp.Sense
	integers map[lp.Var]bool
	maxNodes int
	gap      float64
}

// NewProblem creates an empty MILP with the given sense.
func NewProblem(sense lp.Sense) *Problem {
	return &Problem{
		Problem:  lp.NewProblem(sense),
		sense:    sense,
		integers: make(map[lp.Var]bool),
		maxNodes: 200000,
		gap:      1e-9,
	}
}

// SetMaxNodes bounds the number of branch-and-bound nodes explored.
func (p *Problem) SetMaxNodes(n int) { p.maxNodes = n }

// SetGap sets the absolute optimality gap: subtrees whose relaxation bound
// does not improve on the incumbent by more than gap are pruned. The
// default (1e-9) effectively demands exact optima; raising it trades
// precision for node count on instances with near-tied schedules.
func (p *Problem) SetGap(gap float64) {
	if gap > 0 {
		p.gap = gap
	}
}

// SetInteger marks v as integer-constrained.
func (p *Problem) SetInteger(v lp.Var) { p.integers[v] = true }

// AddBinary declares a fresh variable constrained to {0,1}: nonnegative,
// integer, with an explicit ≤ 1 row.
func (p *Problem) AddBinary(name string, objCoef float64) lp.Var {
	v := p.AddVar(name, objCoef)
	p.MustConstraint(name+"_ub", lp.Expr{}.Plus(v, 1), lp.LE, 1)
	p.SetInteger(v)
	return v
}

// Solution is the result of a MILP solve.
type Solution struct {
	Status    Status
	Objective float64
	X         []float64
	Nodes     int // branch-and-bound nodes explored
}

// Value returns the value of v in the incumbent solution.
func (s *Solution) Value(v lp.Var) float64 {
	if s == nil || int(v) < 0 || int(v) >= len(s.X) {
		return math.NaN()
	}
	return s.X[v]
}

// branch is one extra bound row appended along a tree path.
type branch struct {
	v   lp.Var
	rel lp.Rel
	rhs float64
}

// node is a live search-tree node.
type node struct {
	bound    float64 // LP relaxation objective (a bound on this subtree)
	branches []branch
	// basis is the parent relaxation's optimal basis. A branch appends one
	// bound row, which leaves the parent basis dual feasible for the child
	// (the appended row's auxiliary starts basic at zero cost), so the
	// child relaxation warm starts with a few dual simplex pivots instead
	// of a cold two-phase solve.
	basis []int
}

func (n *node) depth() int { return len(n.branches) }

// ErrNoIntegers is returned by Solve when no variable was marked integer;
// callers should use the LP solver directly in that case (they probably
// constructed the wrong problem type).
var ErrNoIntegers = errors.New("milp: no integer variables; solve as an LP instead")

// Solve runs best-bound branch and bound. Fractional branching variable
// selection is most-fractional; ties break toward the lowest index to keep
// runs deterministic.
func (p *Problem) Solve() (*Solution, error) {
	if len(p.integers) == 0 {
		return nil, ErrNoIntegers
	}

	intVars := make([]lp.Var, 0, len(p.integers))
	for v := range p.integers {
		intVars = append(intVars, v)
	}
	sort.Slice(intVars, func(i, j int) bool { return intVars[i] < intVars[j] })

	better := func(a, b float64) bool { // does a improve on b by more than the gap
		if p.sense == lp.Minimize {
			return a < b-p.gap
		}
		return a > b+p.gap
	}

	root, err := p.solveRelaxation(nil, nil)
	if err != nil {
		return nil, err
	}
	switch root.Status {
	case lp.Infeasible:
		return &Solution{Status: Infeasible, Objective: math.NaN(), Nodes: 1}, nil
	case lp.Unbounded:
		return &Solution{Status: Unbounded, Objective: math.NaN(), Nodes: 1}, nil
	case lp.IterLimit:
		return nil, errors.New("milp: root relaxation hit iteration limit")
	}

	incumbentObj := math.Inf(1)
	if p.sense == lp.Maximize {
		incumbentObj = math.Inf(-1)
	}
	var incumbentX []float64

	open := []node{{bound: root.Objective, branches: nil, basis: root.Basis}}
	nodes := 0

	for len(open) > 0 {
		if nodes >= p.maxNodes {
			st := NodeLimit
			return &Solution{Status: st, Objective: incumbentObj, X: incumbentX, Nodes: nodes}, nil
		}
		// Best-bound selection with depth tie-breaking: among (near-)tied
		// bounds, prefer the deepest node. Scheduling instances have huge
		// plateaus of equal-makespan orderings, and pure best-bound would
		// wander them breadth-first without ever reaching an integer
		// leaf; diving finds an incumbent fast, after which the plateau
		// prunes wholesale against it.
		bi := 0
		for i := 1; i < len(open); i++ {
			if better(open[i].bound, open[bi].bound) ||
				(!better(open[bi].bound, open[i].bound) && open[i].depth() > open[bi].depth()) {
				bi = i
			}
		}
		cur := open[bi]
		open[bi] = open[len(open)-1]
		open = open[:len(open)-1]

		if incumbentX != nil && !better(cur.bound, incumbentObj) {
			continue // pruned by bound
		}

		rel, err := p.solveRelaxation(cur.branches, cur.basis)
		if err != nil {
			return nil, err
		}
		nodes++
		if rel.Status != lp.Optimal {
			continue // infeasible subtree (or numerically stuck: prune)
		}
		if incumbentX != nil && !better(rel.Objective, incumbentObj) {
			continue
		}

		fracVar, fracVal := mostFractional(rel.X, intVars)
		if fracVar < 0 {
			// Integer feasible: new incumbent.
			incumbentObj = rel.Objective
			incumbentX = append([]float64(nil), rel.X...)
			continue
		}

		lo := math.Floor(fracVal)
		down := append(append([]branch(nil), cur.branches...), branch{fracVar, lp.LE, lo})
		up := append(append([]branch(nil), cur.branches...), branch{fracVar, lp.GE, lo + 1})
		open = append(open, node{bound: rel.Objective, branches: down, basis: rel.Basis})
		open = append(open, node{bound: rel.Objective, branches: up, basis: rel.Basis})
	}

	if incumbentX == nil {
		return &Solution{Status: Infeasible, Objective: math.NaN(), Nodes: nodes}, nil
	}
	// Round integer variables exactly in the reported solution.
	for _, v := range intVars {
		incumbentX[v] = math.Round(incumbentX[v])
	}
	return &Solution{Status: Optimal, Objective: incumbentObj, X: incumbentX, Nodes: nodes}, nil
}

// solveRelaxation rebuilds the base LP plus the branch rows and solves it,
// warm starting from the parent basis when one is available. The lp.Problem
// builder has no row-removal, so each node clones the base; instances are
// small by construction (see package comment).
func (p *Problem) solveRelaxation(branches []branch, warm []int) (*lp.Solution, error) {
	clone := p.Problem.Clone()
	for _, b := range branches {
		clone.MustConstraint("branch", lp.Expr{}.Plus(b.v, 1), b.rel, b.rhs)
	}
	return lp.Solve(clone, lp.WithWarmBasis(warm))
}

// mostFractional returns the integer variable whose relaxation value is
// farthest from integral, or (-1, 0) when all are integral.
func mostFractional(x []float64, intVars []lp.Var) (lp.Var, float64) {
	best := lp.Var(-1)
	bestDist := intTol
	bestVal := 0.0
	for _, v := range intVars {
		val := x[v]
		dist := math.Abs(val - math.Round(val))
		if dist > bestDist {
			bestDist = dist
			best = v
			bestVal = val
		}
	}
	return best, bestVal
}
