package lp

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

func TestDualsKnownInstance(t *testing.T) {
	// max 3x + 5y  s.t. x <= 4, 2y <= 12, 3x + 2y <= 18 → duals 0, 1.5, 1.
	p := NewProblem(Maximize)
	x := p.AddVar("x", 3)
	y := p.AddVar("y", 5)
	p.MustConstraint("c1", Expr{}.Plus(x, 1), LE, 4)
	p.MustConstraint("c2", Expr{}.Plus(y, 2), LE, 12)
	p.MustConstraint("c3", Expr{}.Plus(x, 3).Plus(y, 2), LE, 18)
	sol, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{0, 1.5, 1}
	for i, w := range want {
		if math.Abs(sol.DualOf(i)-w) > 1e-8 {
			t.Fatalf("dual %d = %v, want %v (all: %v)", i, sol.DualOf(i), w, sol.Dual)
		}
	}
}

func TestDualsMinimizationWithGE(t *testing.T) {
	// min 2x + 3y  s.t. x + y >= 4, x >= 1. Optimum: x=4... check: put all
	// weight on x (cheaper): x=4, y=0, obj 8. Dual of first row: 2 (the
	// binding resource priced at x's cost); second row slack → 0.
	p := NewProblem(Minimize)
	x := p.AddVar("x", 2)
	y := p.AddVar("y", 3)
	p.MustConstraint("demand", Expr{}.Plus(x, 1).Plus(y, 1), GE, 4)
	p.MustConstraint("xmin", Expr{}.Plus(x, 1), GE, 1)
	sol, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sol.Objective-8) > 1e-8 {
		t.Fatalf("objective = %v, want 8", sol.Objective)
	}
	if math.Abs(sol.DualOf(0)-2) > 1e-8 {
		t.Fatalf("dual(demand) = %v, want 2", sol.DualOf(0))
	}
	if math.Abs(sol.DualOf(1)) > 1e-8 {
		t.Fatalf("dual(xmin) = %v, want 0 (non-binding)", sol.DualOf(1))
	}
}

func TestDualsEqualityRow(t *testing.T) {
	// min x + 2y  s.t. x + y = 3. Optimum x=3: dual = 1 (cost of the
	// cheapest variable feeding the row).
	p := NewProblem(Minimize)
	x := p.AddVar("x", 1)
	y := p.AddVar("y", 2)
	p.MustConstraint("bal", Expr{}.Plus(x, 1).Plus(y, 1), EQ, 3)
	sol, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sol.DualOf(0)-1) > 1e-8 {
		t.Fatalf("dual = %v, want 1", sol.DualOf(0))
	}
}

func TestDualsNegativeRHSNormalization(t *testing.T) {
	// −x ≤ −2 is x ≥ 2; min x → obj 2. Sensitivity to the rhs as STATED:
	// raising −2 to −1 relaxes to x ≥ 1 → objective falls by 1 ⇒ dual +1.
	p := NewProblem(Minimize)
	x := p.AddVar("x", 1)
	p.MustConstraint("neg", Expr{}.Plus(x, -1), LE, -2)
	sol, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sol.Objective-2) > 1e-9 {
		t.Fatalf("objective = %v", sol.Objective)
	}
	// Verify numerically against a perturbed solve.
	p2 := NewProblem(Minimize)
	x2 := p2.AddVar("x", 1)
	p2.MustConstraint("neg", Expr{}.Plus(x2, -1), LE, -2+0.25)
	sol2, err := p2.Solve()
	if err != nil {
		t.Fatal(err)
	}
	numeric := (sol2.Objective - sol.Objective) / 0.25
	if math.Abs(sol.DualOf(0)-numeric) > 1e-6 {
		t.Fatalf("dual = %v, finite difference = %v", sol.DualOf(0), numeric)
	}
}

// TestPropertyStrongDuality: on random feasible bounded LPs, the dual
// objective yᵀb must equal the primal objective (strong duality), and
// complementary slackness must hold row-wise.
func TestPropertyStrongDuality(t *testing.T) {
	rng := rand.New(rand.NewSource(123))
	checked := 0
	for trial := 0; trial < 200; trial++ {
		n := 2 + rng.Intn(4)
		p := NewProblem(Minimize)
		vars := make([]Var, n)
		costs := make([]float64, n)
		for i := range vars {
			costs[i] = rng.Float64() * 10
			vars[i] = p.AddVar("", costs[i]) // nonnegative costs → bounded min
		}
		type rowRec struct {
			coef []float64
			rel  Rel
			rhs  float64
		}
		var rows []rowRec
		for r := 0; r < 1+rng.Intn(4); r++ {
			coef := make([]float64, n)
			var e Expr
			any := false
			for i := range vars {
				c := float64(rng.Intn(5))
				coef[i] = c
				if c != 0 {
					e = e.Plus(vars[i], c)
					any = true
				}
			}
			if !any {
				continue
			}
			// ≥ rows with nonneg coefficients keep the problem feasible.
			rhs := rng.Float64() * 8
			p.MustConstraint("", e, GE, rhs)
			rows = append(rows, rowRec{coef, GE, rhs})
		}
		if len(rows) == 0 {
			continue
		}
		sol, err := p.Solve()
		if err != nil {
			t.Fatal(err)
		}
		if sol.Status != Optimal {
			continue
		}
		assertCertified(t, fmt.Sprintf("trial %d", trial), p, sol)
		checked++
		dualObj := 0.0
		for i, r := range rows {
			y := sol.Dual[i]
			if y < -1e-7 {
				t.Fatalf("trial %d: negative dual %v on a ≥ row of a minimization", trial, y)
			}
			dualObj += y * r.rhs
			// Complementary slackness: y_i > 0 ⇒ row binding.
			lhs := 0.0
			for j, c := range r.coef {
				lhs += c * sol.X[j]
			}
			if y > 1e-6 && lhs > r.rhs+1e-6*(1+math.Abs(r.rhs)) {
				t.Fatalf("trial %d: dual %v on slack row (lhs %v > rhs %v)", trial, y, lhs, r.rhs)
			}
		}
		if math.Abs(dualObj-sol.Objective) > 1e-6*(1+math.Abs(sol.Objective)) {
			t.Fatalf("trial %d: dual objective %v != primal %v (duals %v)", trial, dualObj, sol.Objective, sol.Dual)
		}
		// Dual feasibility: Aᵀy ≤ c for a min problem with ≥ rows.
		for j := range vars {
			sum := 0.0
			for i, r := range rows {
				sum += sol.Dual[i] * r.coef[j]
			}
			if sum > costs[j]+1e-6 {
				t.Fatalf("trial %d: dual infeasible at var %d: %v > %v", trial, j, sum, costs[j])
			}
		}
	}
	if checked < 50 {
		t.Fatalf("only %d optimal instances checked", checked)
	}
}
