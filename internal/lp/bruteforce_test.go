package lp

// Brute-force LP verification used by the property-based tests: for small
// instances, the optimum of an LP (if bounded and feasible) is attained at a
// vertex of the feasible polyhedron. Vertices are intersections of n
// linearly independent active constraints drawn from the rows plus the
// nonnegativity bounds. Enumerating every such intersection and filtering by
// feasibility yields the exact optimum to compare against the simplex.

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// denseRow materializes a constraint as a dense coefficient vector.
func denseRow(n int, terms []Term) []float64 {
	row := make([]float64, n)
	for _, t := range terms {
		row[t.Var] += t.Coef
	}
	return row
}

// solveSquare solves an n×n dense linear system via Gaussian elimination
// with partial pivoting. Returns nil when singular.
func solveSquare(a [][]float64, b []float64) []float64 {
	n := len(b)
	m := make([][]float64, n)
	for i := range m {
		m[i] = append(append([]float64{}, a[i]...), b[i])
	}
	for col := 0; col < n; col++ {
		best := col
		for r := col + 1; r < n; r++ {
			if math.Abs(m[r][col]) > math.Abs(m[best][col]) {
				best = r
			}
		}
		if math.Abs(m[best][col]) < 1e-10 {
			return nil
		}
		m[col], m[best] = m[best], m[col]
		pv := m[col][col]
		for j := col; j <= n; j++ {
			m[col][j] /= pv
		}
		for r := 0; r < n; r++ {
			if r == col {
				continue
			}
			f := m[r][col]
			if f == 0 {
				continue
			}
			for j := col; j <= n; j++ {
				m[r][j] -= f * m[col][j]
			}
		}
	}
	x := make([]float64, n)
	for i := range x {
		x[i] = m[i][n]
	}
	return x
}

// bruteForceLP exhaustively enumerates candidate vertices. Returns
// (objective, found); found is false when no feasible vertex exists (either
// infeasible or the only feasible set is unbounded with no vertex, which the
// property generator avoids by bounding every variable).
func bruteForceLP(p *Problem) (float64, bool) {
	n := len(p.names)
	// Active-set candidates: each problem row as equality, plus x_i = 0.
	type cand struct {
		row []float64
		rhs float64
	}
	var cands []cand
	for _, r := range p.rows {
		cands = append(cands, cand{denseRow(n, r.terms), r.rhs})
	}
	for i := 0; i < n; i++ {
		row := make([]float64, n)
		row[i] = 1
		cands = append(cands, cand{row, 0})
	}

	feasible := func(x []float64) bool {
		for _, v := range x {
			if v < -1e-7 {
				return false
			}
		}
		for _, r := range p.rows {
			lhs := 0.0
			for _, t := range r.terms {
				lhs += t.Coef * x[t.Var]
			}
			switch r.rel {
			case LE:
				if lhs > r.rhs+1e-7 {
					return false
				}
			case GE:
				if lhs < r.rhs-1e-7 {
					return false
				}
			case EQ:
				if math.Abs(lhs-r.rhs) > 1e-7 {
					return false
				}
			}
		}
		return true
	}

	best := math.Inf(1)
	if p.sense == Maximize {
		best = math.Inf(-1)
	}
	found := false

	idx := make([]int, n)
	var rec func(start, k int)
	rec = func(start, k int) {
		if k == n {
			a := make([][]float64, n)
			b := make([]float64, n)
			for i, ci := range idx {
				a[i] = cands[ci].row
				b[i] = cands[ci].rhs
			}
			x := solveSquare(a, b)
			if x == nil || !feasible(x) {
				return
			}
			obj := 0.0
			for j, c := range p.obj {
				obj += c * x[j]
			}
			if p.sense == Minimize {
				if obj < best {
					best = obj
				}
			} else if obj > best {
				best = obj
			}
			found = true
			return
		}
		for i := start; i < len(cands); i++ {
			idx[k] = i
			rec(i+1, k+1)
		}
	}
	rec(0, 0)
	return best, found
}

// randomBoundedLP generates a random LP in which every variable has an
// explicit upper bound row, guaranteeing a bounded feasible region whenever
// it is nonempty (so brute force and simplex must agree exactly).
func randomBoundedLP(rng *rand.Rand) *Problem {
	n := 1 + rng.Intn(3) // 1..3 variables keeps brute force fast
	m := 1 + rng.Intn(3)
	sense := Minimize
	if rng.Intn(2) == 0 {
		sense = Maximize
	}
	p := NewProblem(sense)
	vars := make([]Var, n)
	for i := range vars {
		vars[i] = p.AddVar("", float64(rng.Intn(11)-5))
	}
	for i := range vars {
		p.MustConstraint("", Expr{}.Plus(vars[i], 1), LE, float64(1+rng.Intn(10)))
	}
	for r := 0; r < m; r++ {
		var e Expr
		for i := range vars {
			c := float64(rng.Intn(7) - 3)
			if c != 0 {
				e = e.Plus(vars[i], c)
			}
		}
		if len(e) == 0 {
			continue
		}
		rel := Rel(rng.Intn(3))
		rhs := float64(rng.Intn(21) - 5)
		p.MustConstraint("", e, rel, rhs)
	}
	return p
}

func TestPropertySimplexMatchesBruteForce(t *testing.T) {
	cfg := &quick.Config{MaxCount: 300}
	seed := int64(0)
	property := func() bool {
		seed++
		rng := rand.New(rand.NewSource(seed))
		p := randomBoundedLP(rng)
		sol, err := p.Solve()
		if err != nil {
			t.Logf("seed %d: solve error %v", seed, err)
			return false
		}
		bfObj, bfFound := bruteForceLP(p)
		switch sol.Status {
		case Optimal:
			if !bfFound {
				t.Logf("seed %d: simplex optimal %v but brute force found no vertex\n%s", seed, sol.Objective, p)
				return false
			}
			if math.Abs(sol.Objective-bfObj) > 1e-6*(1+math.Abs(bfObj)) {
				t.Logf("seed %d: simplex %v vs brute force %v\n%s", seed, sol.Objective, bfObj, p)
				return false
			}
			if err := Certify(p, sol).Err(); err != nil {
				t.Logf("seed %d: %v\n%s", seed, err, p)
				return false
			}
			// Simplex solution must itself be feasible.
			return simplexSolutionFeasible(p, sol)
		case Infeasible:
			if bfFound {
				t.Logf("seed %d: simplex infeasible but brute force found %v\n%s", seed, bfObj, p)
				return false
			}
			return true
		case Unbounded:
			// Every variable is upper-bounded, so unbounded must not occur.
			t.Logf("seed %d: unexpected unbounded status\n%s", seed, p)
			return false
		default:
			t.Logf("seed %d: status %v", seed, sol.Status)
			return false
		}
	}
	if err := quick.Check(property, cfg); err != nil {
		t.Fatal(err)
	}
}

func simplexSolutionFeasible(p *Problem, sol *Solution) bool {
	for _, v := range sol.X {
		if v < -1e-7 {
			return false
		}
	}
	for _, r := range p.rows {
		lhs := 0.0
		for _, t := range r.terms {
			lhs += t.Coef * sol.X[t.Var]
		}
		switch r.rel {
		case LE:
			if lhs > r.rhs+1e-6 {
				return false
			}
		case GE:
			if lhs < r.rhs-1e-6 {
				return false
			}
		case EQ:
			if math.Abs(lhs-r.rhs) > 1e-6 {
				return false
			}
		}
	}
	return true
}

func TestPropertyLargerRandomFeasibleLPs(t *testing.T) {
	// Larger random instances where we only check internal consistency:
	// reported optimal solutions must be feasible and must not beat the
	// objective of any random feasible point we can construct (spot check
	// with the origin-scaled interior points of the box).
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 60; trial++ {
		n := 4 + rng.Intn(8)
		p := NewProblem(Minimize)
		vars := make([]Var, n)
		for i := range vars {
			vars[i] = p.AddVar("", rng.Float64()*10-5)
		}
		for i := range vars {
			p.MustConstraint("", Expr{}.Plus(vars[i], 1), LE, 1+rng.Float64()*9)
		}
		for r := 0; r < 3+rng.Intn(6); r++ {
			var e Expr
			for i := range vars {
				if rng.Intn(2) == 0 {
					e = e.Plus(vars[i], rng.Float64()*6-3)
				}
			}
			if len(e) == 0 {
				continue
			}
			// Only ≤ rows with positive rhs: origin stays feasible, so the
			// instance is always feasible and bounded.
			p.MustConstraint("", e, LE, rng.Float64()*10)
		}
		sol, err := p.Solve()
		if err != nil {
			t.Fatal(err)
		}
		if sol.Status != Optimal {
			t.Fatalf("trial %d: status %v, want optimal (origin is feasible)", trial, sol.Status)
		}
		if !simplexSolutionFeasible(p, sol) {
			t.Fatalf("trial %d: reported optimum infeasible", trial)
		}
		assertCertified(t, fmt.Sprintf("trial %d", trial), p, sol)
		if sol.Objective > 1e-7 {
			// The origin is feasible with objective 0; a minimum above 0
			// would be suboptimal.
			t.Fatalf("trial %d: objective %v > 0 but origin feasible", trial, sol.Objective)
		}
	}
}
