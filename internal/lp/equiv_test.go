package lp

import (
	"math"
	"math/rand"
	"testing"
)

// Dense-oracle equivalence harness: the kernel (presolve, revised simplex,
// postsolve) and the dense tableau oracle must agree on every instance —
// statuses exactly, objectives within 1e-9. The corpus covers the named
// instances the dense tableau was originally validated on, and the
// randomized sweep reuses the bounded-LP generator from the brute-force
// property tests.

const equivObjTol = 1e-9

// equivInstance is one named LP for the equivalence corpus.
type equivInstance struct {
	name  string
	build func() *Problem
}

func equivCorpus() []equivInstance {
	return []equivInstance{
		{"simple-minimize", func() *Problem {
			p := NewProblem(Minimize)
			x := p.AddVar("x", 1)
			y := p.AddVar("y", 2)
			p.MustConstraint("", Expr{}.Plus(x, 1).Plus(y, 1), GE, 4)
			p.MustConstraint("", Expr{}.Plus(x, 1), LE, 3)
			return p
		}},
		{"simple-maximize", func() *Problem {
			p := NewProblem(Maximize)
			x := p.AddVar("x", 3)
			y := p.AddVar("y", 5)
			p.MustConstraint("", Expr{}.Plus(x, 1), LE, 4)
			p.MustConstraint("", Expr{}.Plus(y, 2), LE, 12)
			p.MustConstraint("", Expr{}.Plus(x, 3).Plus(y, 2), LE, 18)
			return p
		}},
		{"equality-rows", func() *Problem {
			p := NewProblem(Minimize)
			x := p.AddVar("x", 1)
			y := p.AddVar("y", 1)
			z := p.AddVar("z", 4)
			p.MustConstraint("", Expr{}.Plus(x, 1).Plus(y, 1).Plus(z, 1), EQ, 10)
			p.MustConstraint("", Expr{}.Plus(x, 1).Plus(y, -1), EQ, 2)
			return p
		}},
		{"infeasible", func() *Problem {
			p := NewProblem(Minimize)
			x := p.AddVar("x", 1)
			p.MustConstraint("", Expr{}.Plus(x, 1), GE, 5)
			p.MustConstraint("", Expr{}.Plus(x, 1), LE, 3)
			return p
		}},
		{"unbounded", func() *Problem {
			p := NewProblem(Maximize)
			x := p.AddVar("x", 1)
			y := p.AddVar("y", 1)
			p.MustConstraint("", Expr{}.Plus(x, 1).Plus(y, -1), LE, 1)
			return p
		}},
		{"negative-rhs-normalization", func() *Problem {
			p := NewProblem(Minimize)
			x := p.AddVar("x", 2)
			y := p.AddVar("y", 3)
			p.MustConstraint("", Expr{}.Plus(x, -1).Plus(y, -1), LE, -4)
			p.MustConstraint("", Expr{}.Plus(x, -1), GE, -3)
			return p
		}},
		{"duplicate-terms", func() *Problem {
			p := NewProblem(Minimize)
			x := p.AddVar("x", 1)
			p.MustConstraint("", Expr{}.Plus(x, 1).Plus(x, 1).Plus(x, 1), GE, 9)
			return p
		}},
		{"degenerate-beale", func() *Problem {
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
		{"redundant-equality-rows", func() *Problem {
			p := NewProblem(Minimize)
			x := p.AddVar("x", 1)
			y := p.AddVar("y", 2)
			p.MustConstraint("", Expr{}.Plus(x, 1).Plus(y, 1), EQ, 6)
			p.MustConstraint("", Expr{}.Plus(x, 2).Plus(y, 2), EQ, 12) // same hyperplane
			p.MustConstraint("", Expr{}.Plus(x, 1), GE, 1)
			return p
		}},
		{"transportation", func() *Problem {
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
		{"convex-combination", func() *Problem {
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
		{"zero-objective", func() *Problem {
			p := NewProblem(Minimize)
			x := p.AddVar("x", 0)
			y := p.AddVar("y", 0)
			p.MustConstraint("", Expr{}.Plus(x, 1).Plus(y, 2), EQ, 7)
			p.MustConstraint("", Expr{}.Plus(x, 1), GE, 1)
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
	}
	return dense, sparse
}

func TestBackendEquivalenceCorpus(t *testing.T) {
	for _, inst := range equivCorpus() {
		t.Run(inst.name, func(t *testing.T) {
			assertBackendsAgree(t, inst.name, inst.build())
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
