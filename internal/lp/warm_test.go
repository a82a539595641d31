package lp

import (
	"math"
	"math/rand"
	"testing"
)

func randomBoundedLPSeed(seed int64) *Problem {
	return randomBoundedLP(rand.New(rand.NewSource(seed)))
}

// Warm-start tests: a basis exported by one solve must speed up — and never
// change — the result of the next solve after an RHS change or appended
// rows. Every assertion compares the warm result against an independent
// cold solve of the same modified problem.

// sweepLikeLP builds a small LP shaped like core's power-capped scheduling
// program: convex mixes with a shared capacity row whose RHS is the cap.
// Returns the problem and the index of the capacity row.
func sweepLikeLP() (*Problem, int) {
	p := NewProblem(Minimize)
	// Three tasks, two configurations each: fast/hungry vs slow/frugal.
	times := [3][2]float64{{4, 9}, {6, 11}, {3, 8}}
	power := [3][2]float64{{50, 20}, {55, 25}, {45, 15}}
	capRow := -1
	capExpr := Expr{}
	for ti := range times {
		a := p.AddVar("", times[ti][0])
		b := p.AddVar("", times[ti][1])
		p.MustConstraint("", Expr{}.Plus(a, 1).Plus(b, 1), EQ, 1)
		capExpr = capExpr.Plus(a, power[ti][0]).Plus(b, power[ti][1])
	}
	p.MustConstraint("cap", capExpr, LE, 150)
	capRow = p.NumConstraints() - 1
	return p, capRow
}

func TestWarmStartRHSSweep(t *testing.T) {
	p, capRow := sweepLikeLP()

	var basis []int
	warmPivots, coldPivots := 0, 0
	for _, cap := range []float64{150, 130, 110, 90, 75, 62} {
		if err := p.SetRHS(capRow, cap); err != nil {
			t.Fatal(err)
		}

		cold, err := Solve(p)
		if err != nil {
			t.Fatal(err)
		}

		var opts []Option
		if basis != nil {
			opts = append(opts, WithWarmBasis(basis))
		}
		warm, err := Solve(p, opts...)
		if err != nil {
			t.Fatal(err)
		}

		if warm.Status != cold.Status {
			t.Fatalf("cap %v: warm status %v, cold %v", cap, warm.Status, cold.Status)
		}
		if cold.Status == Optimal {
			if math.Abs(warm.Objective-cold.Objective) > 1e-9*(1+math.Abs(cold.Objective)) {
				t.Fatalf("cap %v: warm objective %v, cold %v", cap, warm.Objective, cold.Objective)
			}
			if basis != nil && !warm.Stats.WarmStarted {
				t.Fatalf("cap %v: warm basis supplied but not used", cap)
			}
			basis = warm.Basis
			warmPivots += warm.Stats.Pivots()
			coldPivots += cold.Stats.Pivots()
		}
	}
	// The whole point: warm-started sweeps pivot less than cold ones.
	if warmPivots >= coldPivots {
		t.Fatalf("warm sweep took %d pivots, cold %d — warm starting saved nothing", warmPivots, coldPivots)
	}
}

func TestWarmStartSweepToInfeasible(t *testing.T) {
	p, capRow := sweepLikeLP()
	sol, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal {
		t.Fatalf("status %v", sol.Status)
	}
	// Below the frugal-most total power (20+25+15=60) the cap is infeasible.
	if err := p.SetRHS(capRow, 45); err != nil {
		t.Fatal(err)
	}
	warm, err := Solve(p, WithWarmBasis(sol.Basis))
	if err != nil {
		t.Fatal(err)
	}
	if warm.Status != Infeasible {
		t.Fatalf("status %v, want infeasible", warm.Status)
	}
}

func TestWarmStartAppendedRows(t *testing.T) {
	// Branch-and-bound shape: solve a relaxation, then append a bound row
	// (as milp does for x ≤ floor / x ≥ ceil branches) and warm start the
	// child from the parent basis.
	p, _ := sweepLikeLP()
	parent, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if parent.Status != Optimal {
		t.Fatalf("parent status %v", parent.Status)
	}

	child := p.Clone()
	child.MustConstraint("branch", Expr{}.Plus(Var(0), 1), LE, 0.25)
	child.MustConstraint("branch2", Expr{}.Plus(Var(2), 1), GE, 0.5)

	cold, err := Solve(child)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := Solve(child, WithWarmBasis(parent.Basis))
	if err != nil {
		t.Fatal(err)
	}
	if warm.Status != cold.Status {
		t.Fatalf("warm status %v, cold %v", warm.Status, cold.Status)
	}
	if cold.Status == Optimal {
		if math.Abs(warm.Objective-cold.Objective) > 1e-9*(1+math.Abs(cold.Objective)) {
			t.Fatalf("warm objective %v, cold %v", warm.Objective, cold.Objective)
		}
	}
}

func TestWarmStartGarbageBasisFallsBack(t *testing.T) {
	p, _ := sweepLikeLP()
	cold, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	for _, garbage := range [][]int{
		{0, 0, 0, 0},             // duplicates
		{-1, 1, 2, 3},            // out of range (negative)
		{1000, 1001, 1002, 1003}, // out of range (too large)
		{0, 1, 2, 3, 4, 5, 6, 7}, // longer than the row count
	} {
		warm, err := Solve(p, WithWarmBasis(garbage))
		if err != nil {
			t.Fatalf("basis %v: %v", garbage, err)
		}
		if warm.Status != Optimal {
			t.Fatalf("basis %v: status %v", garbage, warm.Status)
		}
		if math.Abs(warm.Objective-cold.Objective) > 1e-9*(1+math.Abs(cold.Objective)) {
			t.Fatalf("basis %v: objective %v, cold %v", garbage, warm.Objective, cold.Objective)
		}
		if warm.Stats.WarmStarted {
			t.Fatalf("basis %v: unusable basis reported as warm-started", garbage)
		}
	}
}

func TestWarmStartRandomizedAgainstCold(t *testing.T) {
	// Property: for random bounded LPs, perturbing every RHS and warm
	// starting from the original basis always matches a cold solve.
	for seed := int64(1); seed <= 150; seed++ {
		p := randomBoundedLPSeed(seed)
		first, err := Solve(p)
		if err != nil || first.Status != Optimal {
			continue
		}
		for r := 0; r < p.NumConstraints(); r++ {
			p.SetRHS(r, p.RHS(r)+float64((seed%5))-2)
		}
		cold, err := Solve(p)
		if err != nil {
			t.Fatal(err)
		}
		warm, err := Solve(p, WithWarmBasis(first.Basis))
		if err != nil {
			t.Fatal(err)
		}
		if warm.Status != cold.Status {
			t.Fatalf("seed %d: warm %v cold %v\n%s", seed, warm.Status, cold.Status, p)
		}
		if cold.Status == Optimal &&
			math.Abs(warm.Objective-cold.Objective) > 1e-9*(1+math.Abs(cold.Objective)) {
			t.Fatalf("seed %d: warm obj %v cold %v\n%s", seed, warm.Objective, cold.Objective, p)
		}
	}
}
