package lp

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// Dense-oracle equivalence harness: the kernel (scaling, revised simplex)
// and the dense tableau oracle must agree on every instance — statuses
// exactly, objectives within 1e-9. The corpus covers the named instances
// the dense tableau was originally validated on, and one whose rows pin
// every variable. The randomized sweeps reuse the bounded-LP generator
// from the brute-force property tests.
//
// The round-trip tests carry the rows a presolve pass would eliminate —
// empty, duplicate and singleton rows, and zero-cost columns that only one
// equality row holds — into the kernel as stated. Each problem is solved
// in the kernel's default configuration (scaled) and again unscaled, on the
// kernel (the rescue's configuration) and on the dense oracle, and both
// must give the same answer: statuses exactly, objectives and duals within
// 1e-9, and a point that satisfies the stated rows. Infeasible and
// unbounded problems round-trip their statuses.

const equivObjTol = 1e-9

// equivInstance is one named LP for the equivalence corpus, with the
// status both solvers must reach.
type equivInstance struct {
	name  string
	want  Status
	build func() *Problem
}

func equivCorpus() []equivInstance {
	return []equivInstance{
		{"simple-minimize", Optimal, func() *Problem {
			p := NewProblem(Minimize)
			x := p.AddVar("x", 1)
			y := p.AddVar("y", 2)
			p.MustConstraint("", Expr{}.Plus(x, 1).Plus(y, 1), GE, 4)
			p.MustConstraint("", Expr{}.Plus(x, 1), LE, 3)
			return p
		}},
		{"simple-maximize", Optimal, func() *Problem {
			p := NewProblem(Maximize)
			x := p.AddVar("x", 3)
			y := p.AddVar("y", 5)
			p.MustConstraint("", Expr{}.Plus(x, 1), LE, 4)
			p.MustConstraint("", Expr{}.Plus(y, 2), LE, 12)
			p.MustConstraint("", Expr{}.Plus(x, 3).Plus(y, 2), LE, 18)
			return p
		}},
		{"equality-rows", Optimal, func() *Problem {
			p := NewProblem(Minimize)
			x := p.AddVar("x", 1)
			y := p.AddVar("y", 1)
			z := p.AddVar("z", 4)
			p.MustConstraint("", Expr{}.Plus(x, 1).Plus(y, 1).Plus(z, 1), EQ, 10)
			p.MustConstraint("", Expr{}.Plus(x, 1).Plus(y, -1), EQ, 2)
			return p
		}},
		{"infeasible", Infeasible, func() *Problem {
			p := NewProblem(Minimize)
			x := p.AddVar("x", 1)
			p.MustConstraint("", Expr{}.Plus(x, 1), GE, 5)
			p.MustConstraint("", Expr{}.Plus(x, 1), LE, 3)
			return p
		}},
		{"unbounded", Unbounded, func() *Problem {
			p := NewProblem(Maximize)
			x := p.AddVar("x", 1)
			y := p.AddVar("y", 1)
			p.MustConstraint("", Expr{}.Plus(x, 1).Plus(y, -1), LE, 1)
			return p
		}},
		{"negative-rhs-normalization", Optimal, func() *Problem {
			p := NewProblem(Minimize)
			x := p.AddVar("x", 2)
			y := p.AddVar("y", 3)
			p.MustConstraint("", Expr{}.Plus(x, -1).Plus(y, -1), LE, -4)
			p.MustConstraint("", Expr{}.Plus(x, -1), GE, -3)
			return p
		}},
		{"duplicate-terms", Optimal, func() *Problem {
			p := NewProblem(Minimize)
			x := p.AddVar("x", 1)
			p.MustConstraint("", Expr{}.Plus(x, 1).Plus(x, 1).Plus(x, 1), GE, 9)
			return p
		}},
		{"degenerate-beale", Optimal, func() *Problem {
			// Beale's cycling example: degenerate under naive Dantzig.
			p := NewProblem(Minimize)
			x1 := p.AddVar("x1", -0.75)
			x2 := p.AddVar("x2", 150)
			x3 := p.AddVar("x3", -0.02)
			x4 := p.AddVar("x4", 6)
			p.MustConstraint("", Expr{}.Plus(x1, 0.25).Plus(x2, -60).Plus(x3, -0.04).Plus(x4, 9), LE, 0)
			p.MustConstraint("", Expr{}.Plus(x1, 0.5).Plus(x2, -90).Plus(x3, -0.02).Plus(x4, 3), LE, 0)
			p.MustConstraint("", Expr{}.Plus(x3, 1), LE, 1)
			return p
		}},
		{"redundant-equality-rows", Optimal, func() *Problem {
			p := NewProblem(Minimize)
			x := p.AddVar("x", 1)
			y := p.AddVar("y", 2)
			p.MustConstraint("", Expr{}.Plus(x, 1).Plus(y, 1), EQ, 6)
			p.MustConstraint("", Expr{}.Plus(x, 2).Plus(y, 2), EQ, 12) // same hyperplane
			p.MustConstraint("", Expr{}.Plus(x, 1), GE, 1)
			return p
		}},
		{"transportation", Optimal, func() *Problem {
			// 2 supplies × 3 demands, balanced.
			p := NewProblem(Minimize)
			cost := [2][3]float64{{4, 6, 9}, {5, 3, 8}}
			supply := [2]float64{30, 25}
			demand := [3]float64{15, 20, 20}
			var x [2][3]Var
			for i := range x {
				for j := range x[i] {
					x[i][j] = p.AddVar("", cost[i][j])
				}
			}
			for i := range supply {
				e := Expr{}
				for j := range demand {
					e = e.Plus(x[i][j], 1)
				}
				p.MustConstraint("", e, LE, supply[i])
			}
			for j := range demand {
				e := Expr{}
				for i := range supply {
					e = e.Plus(x[i][j], 1)
				}
				p.MustConstraint("", e, GE, demand[j])
			}
			return p
		}},
		{"convex-combination", Optimal, func() *Problem {
			// The shape core builds: per-task convex mixes under a budget.
			p := NewProblem(Minimize)
			t1a := p.AddVar("t1a", 10)
			t1b := p.AddVar("t1b", 6)
			t2a := p.AddVar("t2a", 8)
			t2b := p.AddVar("t2b", 5)
			p.MustConstraint("", Expr{}.Plus(t1a, 1).Plus(t1b, 1), EQ, 1)
			p.MustConstraint("", Expr{}.Plus(t2a, 1).Plus(t2b, 1), EQ, 1)
			p.MustConstraint("", Expr{}.Plus(t1b, 40).Plus(t2b, 35), LE, 50)
			return p
		}},
		{"zero-objective", Optimal, func() *Problem {
			p := NewProblem(Minimize)
			x := p.AddVar("x", 0)
			y := p.AddVar("y", 0)
			p.MustConstraint("", Expr{}.Plus(x, 1).Plus(y, 2), EQ, 7)
			p.MustConstraint("", Expr{}.Plus(x, 1), GE, 1)
			return p
		}},
		{"every-variable-pinned", Optimal, func() *Problem {
			p := NewProblem(Minimize)
			x := p.AddVar("x", 3)
			y := p.AddVar("y", -2)
			p.MustConstraint("", Expr{}.Plus(x, 2), EQ, 5)   // x = 2.5
			p.MustConstraint("", Expr{}.Plus(y, -1), EQ, -4) // y = 4
			p.MustConstraint("", Expr{}.Plus(x, 1).Plus(y, 1), LE, 20)
			return p
		}},
	}
}

// assertBackendsAgree solves p with the dense oracle and the kernel and
// cross-checks the results; returns the two solutions for extra per-case
// assertions.
func assertBackendsAgree(t *testing.T, name string, p *Problem) (dense, sparse *Solution) {
	t.Helper()
	dense, err := denseSolve(p)
	if err != nil {
		t.Fatalf("%s: dense solve error: %v", name, err)
	}
	sparse, err = Solve(p)
	if err != nil {
		t.Fatalf("%s: sparse solve error: %v", name, err)
	}
	if dense.Status != sparse.Status {
		t.Fatalf("%s: status mismatch: dense %v, sparse %v\n%s", name, dense.Status, sparse.Status, p)
	}
	if dense.Status == Optimal {
		tol := equivObjTol * (1 + math.Abs(dense.Objective))
		if math.Abs(dense.Objective-sparse.Objective) > tol {
			t.Fatalf("%s: objective mismatch: dense %.15g, sparse %.15g (tol %g)\n%s",
				name, dense.Objective, sparse.Objective, tol, p)
		}
		if !simplexSolutionFeasible(p, dense) {
			t.Fatalf("%s: dense optimum infeasible\n%s", name, p)
		}
		if !simplexSolutionFeasible(p, sparse) {
			t.Fatalf("%s: sparse optimum infeasible\n%s", name, p)
		}
		assertCertified(t, name+" (dense)", p, dense)
		assertCertified(t, name+" (sparse)", p, sparse)
	}
	return dense, sparse
}

func TestBackendEquivalenceCorpus(t *testing.T) {
	for _, inst := range equivCorpus() {
		t.Run(inst.name, func(t *testing.T) {
			if _, sparse := assertBackendsAgree(t, inst.name, inst.build()); sparse.Status != inst.want {
				t.Fatalf("%s: status %v, want %v", inst.name, sparse.Status, inst.want)
			}
		})
	}
}

func TestBackendEquivalenceRandom(t *testing.T) {
	for seed := int64(1); seed <= 400; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p := randomBoundedLP(rng)
		assertBackendsAgree(t, "", p)
	}
}

// randRedundantRowsLP builds a bounded random LP and sprinkles in rows the
// kernel must carry as stated: a row whose terms cancel to empty, a
// proportional duplicate of another row (strictly looser for an
// inequality, so its dual is uniquely zero), a singleton equality pinning
// one variable, and a zero-cost column that only one equality row holds
// (that row's slack in disguise).
func randRedundantRowsLP(rng *rand.Rand) *Problem {
	sense := Minimize
	if rng.Intn(2) == 0 {
		sense = Maximize
	}
	p := NewProblem(sense)
	n := 2 + rng.Intn(5)
	vars := make([]Var, n)
	for j := 0; j < n; j++ {
		vars[j] = p.AddVar("", rng.NormFloat64())
	}
	// Box rows keep everything bounded so Optimal dominates the sample.
	for j := 0; j < n; j++ {
		p.MustConstraint("", Expr{}.Plus(vars[j], 1), LE, 1+9*rng.Float64())
	}
	m := 1 + rng.Intn(2*n)
	for i := 0; i < m; i++ {
		var e Expr
		for t := 0; t <= rng.Intn(3); t++ {
			e = e.Plus(vars[rng.Intn(n)], rng.NormFloat64())
		}
		rel := Rel(rng.Intn(3))
		rhs := 8 * rng.Float64()
		if rel == GE {
			rhs = -2 * rng.Float64() // loose lower bounds stay feasible
		}
		if rel == EQ {
			continue // free-form equalities infeasible too often; injected below
		}
		p.MustConstraint("", e, rel, rhs)
	}

	v := vars[rng.Intn(n)]
	p.MustConstraint("", Expr{}.Plus(v, 2.5).Plus(v, -2.5), LE, rng.Float64())

	src := p.rows[rng.Intn(len(p.rows))]
	lambda := []float64{0.5, 2, 4}[rng.Intn(3)]
	var e Expr
	for _, t := range src.terms {
		e = e.Plus(t.Var, t.Coef*lambda)
	}
	loosen := 0.5 + rng.Float64()
	switch src.rel {
	case LE:
		p.MustConstraint("", e, LE, src.rhs*lambda+loosen)
	case GE:
		p.MustConstraint("", e, GE, src.rhs*lambda-loosen)
	}

	if rng.Intn(2) == 0 {
		a := 0.5 + 1.5*rng.Float64()
		if rng.Intn(2) == 0 {
			a = -a
		}
		val := 0.5 * rng.Float64()
		p.MustConstraint("", Expr{}.Plus(vars[rng.Intn(n)], a), EQ, a*val)
	}

	if rng.Intn(2) == 0 {
		s := p.AddVar("slacklike", 0)
		e := Expr{}.Plus(vars[rng.Intn(n)], 1+rng.Float64()).Plus(s, 1)
		p.MustConstraint("", e, EQ, 2+4*rng.Float64())
	}
	return p
}

// solveBoth solves p in the kernel's default configuration, and unscaled
// on im: the kernel itself or the dense oracle.
func solveBoth(t *testing.T, p *Problem, im impl) (scaled, unscaled *Solution) {
	t.Helper()
	scaled, err := Solve(p)
	if err != nil {
		t.Fatalf("scaled solve: %v", err)
	}
	unscaled, err = im.solve(p, WithoutScaling())
	if err != nil {
		t.Fatalf("unscaled solve: %v", err)
	}
	return scaled, unscaled
}

func checkRoundTrip(t *testing.T, what string, p *Problem, scaled, unscaled *Solution) {
	t.Helper()
	if scaled.Status != unscaled.Status {
		t.Fatalf("%s: status mismatch: scaled %v, unscaled %v", what, scaled.Status, unscaled.Status)
	}
	if scaled.Status != Optimal {
		return
	}
	assertCertified(t, what+" (scaled)", p, scaled)
	assertCertified(t, what+" (unscaled)", p, unscaled)
	if math.Abs(scaled.Objective-unscaled.Objective) > equivObjTol*math.Max(1, math.Abs(unscaled.Objective)) {
		t.Fatalf("%s: objective mismatch: scaled %.15g, unscaled %.15g", what, scaled.Objective, unscaled.Objective)
	}
	if len(scaled.Dual) != len(unscaled.Dual) {
		t.Fatalf("%s: dual length %d, want %d", what, len(scaled.Dual), len(unscaled.Dual))
	}
	for i := range scaled.Dual {
		if math.Abs(scaled.Dual[i]-unscaled.Dual[i]) > equivObjTol*math.Max(1, math.Abs(unscaled.Dual[i])) {
			t.Fatalf("%s: dual[%d] mismatch: scaled %.15g, unscaled %.15g\nproblem:\n%s",
				what, i, scaled.Dual[i], unscaled.Dual[i], p)
		}
	}
	if !simplexSolutionFeasible(p, scaled) {
		t.Fatalf("%s: scaled optimum violates the stated rows\n%s", what, p)
	}
}

func TestPresolveRoundTripProperty(t *testing.T) {
	for _, im := range impls {
		t.Run(im.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(8021))
			optimal := 0
			for trial := 0; trial < 150; trial++ {
				p := randRedundantRowsLP(rng)
				scaled, unscaled := solveBoth(t, p, im)
				what := fmt.Sprintf("trial %d", trial)
				checkRoundTrip(t, what, p, scaled, unscaled)
				if scaled.Status != Optimal {
					continue
				}
				optimal++
				// The answer's basis must warm start the problem back to
				// the same optimum.
				warm, err := Solve(p, WithWarmBasis(scaled.Basis))
				if err != nil {
					t.Fatalf("%s: warm restart: %v", what, err)
				}
				if warm.Status != Optimal ||
					math.Abs(warm.Objective-scaled.Objective) > equivObjTol*math.Max(1, math.Abs(scaled.Objective)) {
					t.Fatalf("%s: warm restart from the answer's basis: status %v obj %.15g, want optimal %.15g",
						what, warm.Status, warm.Objective, scaled.Objective)
				}
			}
			if optimal < 100 {
				t.Fatalf("only %d/150 trials optimal; generator drifted, property under-exercised", optimal)
			}
		})
	}
}

// TestPresolveRoundTripInfeasible covers infeasibility that rows alone
// show (an inconsistent singleton, conflicting duplicates, an empty row
// with a positive bound) and infeasibility that only the simplex finds
// (crossed bounds).
func TestPresolveRoundTripInfeasible(t *testing.T) {
	cases := map[string]func() *Problem{
		"singleton-negative": func() *Problem {
			p := NewProblem(Minimize)
			x := p.AddVar("x", 1)
			p.MustConstraint("", Expr{}.Plus(x, 2), EQ, -6) // x = −3 < 0
			return p
		},
		"duplicate-conflict": func() *Problem {
			p := NewProblem(Minimize)
			x := p.AddVar("x", 1)
			y := p.AddVar("y", 1)
			p.MustConstraint("", Expr{}.Plus(x, 1).Plus(y, 2), EQ, 4)
			p.MustConstraint("", Expr{}.Plus(x, 2).Plus(y, 4), EQ, 9) // = 2·row0 but rhs ≠ 8
			return p
		},
		"empty-row": func() *Problem {
			p := NewProblem(Minimize)
			x := p.AddVar("x", 1)
			p.MustConstraint("", Expr{}.Plus(x, 1).Plus(x, -1), GE, 3) // 0 ≥ 3
			return p
		},
		"crossed-bounds": func() *Problem {
			p := NewProblem(Minimize)
			x := p.AddVar("x", 1)
			p.MustConstraint("", Expr{}.Plus(x, 1), LE, 1)
			p.MustConstraint("", Expr{}.Plus(x, 1), GE, 2)
			return p
		},
	}
	for name, build := range cases {
		t.Run(name, func(t *testing.T) {
			for _, im := range impls {
				scaled, unscaled := solveBoth(t, build(), im)
				if scaled.Status != Infeasible || unscaled.Status != Infeasible {
					t.Fatalf("%s: scaled %v, unscaled %v, want infeasible/infeasible",
						im.name, scaled.Status, unscaled.Status)
				}
			}
		})
	}
}

// TestPresolveRoundTripUnbounded covers the unbounded status, including a
// problem whose every row could be eliminated: a singleton row pins one
// variable and the other row cancels to empty, so nothing limits the
// improving column.
func TestPresolveRoundTripUnbounded(t *testing.T) {
	cases := map[string]func() *Problem{
		"free-improving-var": func() *Problem {
			p := NewProblem(Maximize)
			p.AddVar("x", 1) // in no row, improving
			y := p.AddVar("y", 1)
			p.MustConstraint("", Expr{}.Plus(y, 1), LE, 5)
			return p
		},
		"rows-all-eliminated": func() *Problem {
			p := NewProblem(Minimize)
			x := p.AddVar("x", -1) // improving without limit
			y := p.AddVar("y", 2)
			p.MustConstraint("", Expr{}.Plus(y, 1), EQ, 3)                 // a singleton row pins y
			p.MustConstraint("", Expr{}.Plus(x, 0.5).Plus(x, -0.5), LE, 1) // cancels to empty
			return p
		},
	}
	for name, build := range cases {
		t.Run(name, func(t *testing.T) {
			for _, im := range impls {
				scaled, unscaled := solveBoth(t, build(), im)
				if scaled.Status != Unbounded || unscaled.Status != Unbounded {
					t.Fatalf("%s: scaled %v, unscaled %v, want unbounded/unbounded",
						im.name, scaled.Status, unscaled.Status)
				}
			}
		})
	}
}

// TestBackendEquivalenceLargerRandom covers instances wider than the
// brute-forceable ones: always-feasible ≤ systems with mixed-sign costs.
func TestBackendEquivalenceLargerRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 60; trial++ {
		n := 5 + rng.Intn(10)
		p := NewProblem(Minimize)
		vars := make([]Var, n)
		for i := range vars {
			vars[i] = p.AddVar("", rng.Float64()*10-5)
		}
		for i := range vars {
			p.MustConstraint("", Expr{}.Plus(vars[i], 1), LE, 1+rng.Float64()*9)
		}
		for r := 0; r < 4+rng.Intn(8); r++ {
			var e Expr
			for i := range vars {
				if rng.Intn(2) == 0 {
					e = e.Plus(vars[i], rng.Float64()*6-3)
				}
			}
			if len(e) == 0 {
				continue
			}
			p.MustConstraint("", e, LE, rng.Float64()*10)
		}
		assertBackendsAgree(t, "", p)
	}
}

// TestSparseDualsStrongDuality mirrors the dense strong-duality property on
// the kernel: yᵀb equals the primal objective at optimum.
func TestSparseDualsStrongDuality(t *testing.T) {
	rng := rand.New(rand.NewSource(321))
	checked := 0
	for trial := 0; trial < 200; trial++ {
		n := 2 + rng.Intn(4)
		p := NewProblem(Minimize)
		vars := make([]Var, n)
		for i := range vars {
			vars[i] = p.AddVar("", rng.Float64()*10)
		}
		var rhs []float64
		for r := 0; r < 1+rng.Intn(4); r++ {
			var e Expr
			any := false
			for i := range vars {
				c := float64(rng.Intn(5))
				if c != 0 {
					e = e.Plus(vars[i], c)
					any = true
				}
			}
			if !any {
				continue
			}
			b := rng.Float64() * 8
			p.MustConstraint("", e, GE, b)
			rhs = append(rhs, b)
		}
		if len(rhs) == 0 {
			continue
		}
		sol, err := Solve(p)
		if err != nil {
			t.Fatal(err)
		}
		if sol.Status != Optimal {
			continue
		}
		assertCertified(t, fmt.Sprintf("trial %d", trial), p, sol)
		checked++
		dualObj := 0.0
		for i, b := range rhs {
			y := sol.Dual[i]
			if y < -1e-7 {
				t.Fatalf("trial %d: negative dual %v on a ≥ row of a minimization", trial, y)
			}
			dualObj += y * b
		}
		if math.Abs(dualObj-sol.Objective) > 1e-6*(1+math.Abs(sol.Objective)) {
			t.Fatalf("trial %d: strong duality violated: primal %v dual %v", trial, sol.Objective, dualObj)
		}
	}
	if checked < 50 {
		t.Fatalf("only %d instances reached optimality; generator broken?", checked)
	}
}
