package lp

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"powercap/internal/obs"
)

func randomBoundedLPSeed(seed int64) *Problem {
	return randomBoundedLP(rand.New(rand.NewSource(seed)))
}

// solveStart solves p from basis under a trace of its own and returns the
// solution with the start its lp.solve span reports.
func solveStart(t *testing.T, p *Problem, basis []int) (*Solution, string) {
	t.Helper()
	tr := obs.NewTrace(0)
	defer tr.Release()
	sol, err := Solve(p, WithSpanContext(obs.WithTrace(context.Background(), tr)), WithWarmBasis(basis))
	if err != nil {
		t.Fatal(err)
	}
	start := ""
	for _, rec := range tr.Snapshot() {
		if rec.Name == "lp.solve" {
			start, _ = rec.Attrs["start"].(string)
		}
	}
	return sol, start
}

// perturbCosts shifts every objective coefficient of p by an integer in
// [−4, 4] drawn from rng.
func perturbCosts(p *Problem, rng *rand.Rand) {
	for j, c := range p.obj {
		p.obj[j] = c + float64(rng.Intn(9)-4)
	}
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

// TestWarmStartSweepToInfeasible lowers the cap below the program's floor:
// the dual simplex proves the warm basis infeasible, the verdict is
// re-verified cold, and the abandoned dual attempt's pivots and
// refactorizations stay in the returned stats.
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
	cold, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	warm, start := solveStart(t, p, sol.Basis)
	if warm.Status != Infeasible || cold.Status != Infeasible {
		t.Fatalf("status %v warm, %v cold; want infeasible", warm.Status, cold.Status)
	}
	if start != "cold" || warm.Stats.WarmStarted {
		t.Fatalf("start %q, warm %v: the infeasible verdict must come from the cold re-verification", start, warm.Stats.WarmStarted)
	}
	if cold.Stats.DualIters != 0 || warm.Stats.DualIters == 0 {
		t.Fatalf("dual pivots %d warm, %d cold: the abandoned dual attempt's pivots are lost", warm.Stats.DualIters, cold.Stats.DualIters)
	}
	if warm.Stats.Refactorizations <= cold.Stats.Refactorizations || warm.Iters != warm.Stats.Pivots() {
		t.Fatalf("warm refactorizations %d (cold %d), pivots %d of %d counted", warm.Stats.Refactorizations, cold.Stats.Refactorizations, warm.Iters, warm.Stats.Pivots())
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

// TestWarmBasisArtificialOffZero warm starts from the all-auxiliary basis,
// whose equality-row artificials are basic at their nonzero right-hand
// sides. No warm pivot can repair such a basis, so the solve must fall back
// cold rather than report its point as optimal.
func TestWarmBasisArtificialOffZero(t *testing.T) {
	p, _ := sweepLikeLP()
	cold, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	aux := make([]int, p.NumConstraints())
	for r := range aux {
		aux[r] = p.NumVars() + r
	}
	warm, err := Solve(p, WithWarmBasis(aux))
	if err != nil {
		t.Fatal(err)
	}
	if warm.Status != cold.Status || math.Abs(warm.Objective-cold.Objective) > 1e-9*(1+math.Abs(cold.Objective)) {
		t.Fatalf("warm %v objective %v, cold %v objective %v", warm.Status, warm.Objective, cold.Status, cold.Objective)
	}
	if warm.Stats.WarmStarted {
		t.Fatal("a basis with artificials off zero was used as a warm start")
	}
}

// TestWarmBasisPrimalStart: an optimal basis stays primal feasible when
// only the costs change, though in general no longer dual feasible.
// Solved from it, the kernel must skip phase 1 and use the basis, taking a
// primal start where the dual test fails, and reach the cold solve's
// objective with a certified answer.
func TestWarmBasisPrimalStart(t *testing.T) {
	primal := 0
	for seed := int64(1); seed <= 150; seed++ {
		p := randomBoundedLPSeed(seed)
		first, err := Solve(p)
		if err != nil || first.Status != Optimal {
			continue
		}
		perturbCosts(p, rand.New(rand.NewSource(seed)))
		cold, err := Solve(p)
		if err != nil || cold.Status != Optimal {
			t.Fatalf("seed %d: cold %v, %v after a cost change on a bounded program", seed, cold, err)
		}
		warm, start := solveStart(t, p, first.Basis)
		if warm.Status != Optimal || !warm.Stats.WarmStarted || warm.Stats.Phase1Iters != 0 {
			t.Fatalf("seed %d: %v from start %q, warm %v, phase 1 %d pivots", seed, warm.Status, start, warm.Stats.WarmStarted, warm.Stats.Phase1Iters)
		}
		if start == "primal" {
			primal++
			if warm.Stats.DualIters != 0 {
				t.Fatalf("seed %d: primal start spent %d dual pivots", seed, warm.Stats.DualIters)
			}
		}
		if math.Abs(warm.Objective-cold.Objective) > 1e-9*(1+math.Abs(cold.Objective)) {
			t.Fatalf("seed %d: warm objective %v, cold %v\n%s", seed, warm.Objective, cold.Objective, p)
		}
		if err := Certify(p, warm).Err(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
	if primal == 0 {
		t.Fatal("no cost change left the basis dual infeasible; the primal start went untested")
	}
}

// FuzzWarmBasis warm starts random bounded LPs from fuzz-decoded bases (any
// mix of structural and auxiliary entries, duplicates included) and
// requires the cold solve's status and objective: a warm basis may cost
// time, never correctness. A byte below 128 names structural variable
// b mod n; one at or above names row (b−128) mod m's auxiliary. Then the
// costs change: the cold optimum's basis stays primal feasible, so a solve
// from it must skip phase 1, use the basis, and reach the new cold
// objective with a certified answer.
func FuzzWarmBasis(f *testing.F) {
	f.Add(int64(1), []byte{128, 129, 130, 131, 132, 133})
	f.Add(int64(7), []byte{0, 1, 2, 131, 132, 133})
	f.Add(int64(42), []byte{2, 129, 0, 130})
	f.Fuzz(func(t *testing.T, seed int64, data []byte) {
		p := randomBoundedLPSeed(seed)
		n, m := p.NumVars(), p.NumConstraints()
		basis := make([]int, 0, m)
		for r := 0; r < m && r < len(data); r++ {
			if b := int(data[r]); b < 128 {
				basis = append(basis, b%n)
			} else {
				basis = append(basis, n+(b-128)%m)
			}
		}
		cold, err := Solve(p)
		if err != nil {
			t.Fatal(err)
		}
		warm, err := Solve(p, WithWarmBasis(basis))
		if err != nil {
			t.Fatal(err)
		}
		if warm.Status != cold.Status {
			t.Fatalf("basis %v: warm %v, cold %v\n%s", basis, warm.Status, cold.Status, p)
		}
		if cold.Status != Optimal {
			return
		}
		if math.Abs(warm.Objective-cold.Objective) > 1e-9*(1+math.Abs(cold.Objective)) {
			t.Fatalf("basis %v: warm objective %v, cold %v\n%s", basis, warm.Objective, cold.Objective, p)
		}

		perturbCosts(p, rand.New(rand.NewSource(seed^int64(len(data)))))
		recold, err := Solve(p)
		if err != nil {
			t.Fatal(err)
		}
		rewarm, err := Solve(p, WithWarmBasis(cold.Basis))
		if err != nil {
			t.Fatal(err)
		}
		if rewarm.Status != recold.Status || rewarm.Status != Optimal {
			t.Fatalf("after a cost change: warm %v, cold %v\n%s", rewarm.Status, recold.Status, p)
		}
		if !rewarm.Stats.WarmStarted || rewarm.Stats.Phase1Iters != 0 {
			t.Fatalf("after a cost change: basis %v used %v, phase 1 %d pivots\n%s", cold.Basis, rewarm.Stats.WarmStarted, rewarm.Stats.Phase1Iters, p)
		}
		if math.Abs(rewarm.Objective-recold.Objective) > 1e-9*(1+math.Abs(recold.Objective)) {
			t.Fatalf("after a cost change: warm objective %v, cold %v\n%s", rewarm.Objective, recold.Objective, p)
		}
		if err := Certify(p, rewarm).Err(); err != nil {
			t.Fatalf("after a cost change: %v\n%s", err, p)
		}
	})
}
