package lp

import (
	"math"
	"math/rand"
	"testing"
)

// Presolve round-trip property test: on randomized problems seeded with
// exactly the structures presolve eliminates — duplicate rows, canceling
// (empty) rows, singleton equality rows, and zero-cost slack-direction
// singleton columns — a presolved solve must agree with a direct solve of
// the stated problem, both on the kernel (WithoutPresolve) and on the dense
// oracle: statuses exactly, objectives and duals to 1e-9, and the
// postsolved primal point must satisfy the original constraints. Infeasible
// and unbounded problems round-trip their statuses too.

const rtTol = 1e-9

// randPresolvableProblem builds a bounded random LP and sprinkles in
// presolve-target structures. Duplicate rows are made STRICTLY looser than
// their originals so the dual on the dropped row is uniquely zero (exact
// duplicates have an ambiguous dual split and would flake the comparison).
func randPresolvableProblem(rng *rand.Rand) *Problem {
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

	// A canceling row: terms accumulate to zero, so presolve sees an empty
	// satisfied row.
	v := vars[rng.Intn(n)]
	p.MustConstraint("", Expr{}.Plus(v, 2.5).Plus(v, -2.5), LE, rng.Float64())

	// A strictly-looser proportional duplicate of an existing row.
	if len(p.rows) > 0 {
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
		case EQ:
			p.MustConstraint("", e, EQ, src.rhs*lambda)
		}
	}

	// A singleton equality pinning one variable.
	if rng.Intn(2) == 0 {
		a := 0.5 + 1.5*rng.Float64()
		if rng.Intn(2) == 0 {
			a = -a
		}
		val := 0.5 * rng.Float64()
		p.MustConstraint("", Expr{}.Plus(vars[rng.Intn(n)], a), EQ, a*val)
	}

	// A zero-cost column appearing only in one equality row: the column is
	// that row's slack in disguise.
	if rng.Intn(2) == 0 {
		s := p.AddVar("slacklike", 0)
		e := Expr{}.Plus(vars[rng.Intn(n)], 1+rng.Float64()).Plus(s, 1)
		p.MustConstraint("", e, EQ, 2+4*rng.Float64())
	}
	return p
}

// solveBoth solves p presolved on the kernel, and directly (no presolve) on
// im: the kernel itself or the dense oracle.
func solveBoth(t *testing.T, p *Problem, im impl) (*Solution, *Solution) {
	t.Helper()
	pre, err := Solve(p)
	if err != nil {
		t.Fatalf("presolved solve: %v", err)
	}
	direct, err := im.solve(p, WithoutPresolve())
	if err != nil {
		t.Fatalf("direct solve: %v", err)
	}
	return pre, direct
}

func checkRoundTrip(t *testing.T, p *Problem, pre, direct *Solution) {
	t.Helper()
	if pre.Status != direct.Status {
		t.Fatalf("status mismatch: presolved %v, direct %v", pre.Status, direct.Status)
	}
	if pre.Status != Optimal {
		return
	}
	assertCertified(t, "presolved", p, pre)
	assertCertified(t, "direct", p, direct)
	scale := math.Max(1, math.Abs(direct.Objective))
	if math.Abs(pre.Objective-direct.Objective) > rtTol*scale {
		t.Fatalf("objective mismatch: presolved %.15g, direct %.15g", pre.Objective, direct.Objective)
	}
	if len(pre.Dual) != len(direct.Dual) {
		t.Fatalf("dual length %d, want %d", len(pre.Dual), len(direct.Dual))
	}
	for i := range pre.Dual {
		ds := math.Max(1, math.Abs(direct.Dual[i]))
		if math.Abs(pre.Dual[i]-direct.Dual[i]) > rtTol*ds {
			t.Fatalf("dual[%d] mismatch: presolved %.15g, direct %.15g\nproblem:\n%s",
				i, pre.Dual[i], direct.Dual[i], p)
		}
	}
	// The postsolved point must satisfy the ORIGINAL rows.
	for i, r := range p.rows {
		lhs := 0.0
		for _, term := range r.terms {
			lhs += term.Coef * pre.X[term.Var]
		}
		viol := 0.0
		switch r.rel {
		case LE:
			viol = lhs - r.rhs
		case GE:
			viol = r.rhs - lhs
		case EQ:
			viol = math.Abs(lhs - r.rhs)
		}
		if viol > 1e-6 {
			t.Fatalf("row %d violated by %g at postsolved point", i, viol)
		}
	}
	for j, v := range pre.X {
		if v < -1e-7 {
			t.Fatalf("x[%d] = %g negative after postsolve", j, v)
		}
	}
}

func TestPresolveRoundTripProperty(t *testing.T) {
	for _, im := range impls {
		t.Run(im.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(8021))
			optimal := 0
			for trial := 0; trial < 150; trial++ {
				p := randPresolvableProblem(rng)
				pre, direct := solveBoth(t, p, im)
				checkRoundTrip(t, p, pre, direct)
				if pre.Status == Optimal {
					optimal++
					if len(pre.Basis) > 0 {
						// The mapped basis must warm start the original
						// problem back to the same optimum.
						warm, err := Solve(p, WithWarmBasis(pre.Basis))
						if err != nil {
							t.Fatalf("trial %d: warm restart: %v", trial, err)
						}
						if warm.Status != Optimal ||
							math.Abs(warm.Objective-pre.Objective) > rtTol*math.Max(1, math.Abs(pre.Objective)) {
							t.Fatalf("trial %d: warm restart from mapped basis: status %v obj %.15g, want optimal %.15g",
								trial, warm.Status, warm.Objective, pre.Objective)
						}
					}
				}
			}
			if optimal < 100 {
				t.Fatalf("only %d/150 trials optimal; generator drifted, property under-exercised", optimal)
			}
		})
	}
}

// TestPresolveRoundTripInfeasible covers infeasibility both where presolve
// itself proves it (inconsistent singleton, conflicting duplicates, bad
// empty row) and where only the simplex can (crossed bounds).
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
				pre, direct := solveBoth(t, build(), im)
				if pre.Status != Infeasible || direct.Status != Infeasible {
					t.Fatalf("%s: presolved %v, direct %v, want infeasible/infeasible",
						im.name, pre.Status, direct.Status)
				}
			}
		})
	}
}

// TestPresolveRoundTripUnbounded covers the unbounded status, including the
// all-rows-eliminated path where the hook itself must detect the ray.
func TestPresolveRoundTripUnbounded(t *testing.T) {
	cases := map[string]func() *Problem{
		"free-improving-var": func() *Problem {
			p := NewProblem(Maximize)
			x := p.AddVar("x", 1)
			y := p.AddVar("y", 1)
			p.MustConstraint("", Expr{}.Plus(y, 1), LE, 5)
			_ = x // x unbounded above, improving
			return p
		},
		"rows-all-eliminated": func() *Problem {
			p := NewProblem(Minimize)
			x := p.AddVar("x", -1) // improving without limit
			y := p.AddVar("y", 2)
			p.MustConstraint("", Expr{}.Plus(y, 1), EQ, 3)                 // fixes y, row removed
			p.MustConstraint("", Expr{}.Plus(x, 0.5).Plus(x, -0.5), LE, 1) // cancels to empty
			return p
		},
	}
	for name, build := range cases {
		t.Run(name, func(t *testing.T) {
			for _, im := range impls {
				pre, direct := solveBoth(t, build(), im)
				if pre.Status != Unbounded || direct.Status != Unbounded {
					t.Fatalf("%s: presolved %v, direct %v, want unbounded/unbounded",
						im.name, pre.Status, direct.Status)
				}
			}
		})
	}
}

// TestPresolveFullyEliminated exercises OutcomeSolved: every variable
// pinned, every row consumed, solution assembled purely from the journal.
func TestPresolveFullyEliminated(t *testing.T) {
	p := NewProblem(Minimize)
	x := p.AddVar("x", 3)
	y := p.AddVar("y", -2)
	p.MustConstraint("", Expr{}.Plus(x, 2), EQ, 5)   // x = 2.5
	p.MustConstraint("", Expr{}.Plus(y, -1), EQ, -4) // y = 4
	p.MustConstraint("", Expr{}.Plus(x, 1).Plus(y, 1), LE, 20)

	for _, im := range impls {
		pre, direct := solveBoth(t, p, im)
		checkRoundTrip(t, p, pre, direct)
		if pre.Status != Optimal {
			t.Fatalf("%s: status %v", im.name, pre.Status)
		}
		if math.Abs(pre.Objective-(-0.5)) > rtTol {
			t.Fatalf("%s: objective %g, want -0.5", im.name, pre.Objective)
		}
		if math.Abs(pre.X[0]-2.5) > rtTol || math.Abs(pre.X[1]-4) > rtTol {
			t.Fatalf("%s: X = %v, want [2.5 4]", im.name, pre.X)
		}
	}
}
