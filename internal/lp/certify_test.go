package lp

import (
	"math"
	"math/rand"
	"testing"
)

// assertCertified fails t when sol, an Optimal answer to p, does not pass
// Certify; other statuses carry no certificate.
func assertCertified(t *testing.T, what string, p *Problem, sol *Solution) {
	t.Helper()
	if sol == nil || sol.Status != Optimal {
		return
	}
	if err := Certify(p, sol).Err(); err != nil {
		t.Fatalf("%s: %v (%+v)\n%s", what, err, Certify(p, sol), p)
	}
}

// A certificate rejects a solution whose primal point or duals are moved
// off the optimum: an x entry with a nonzero cost, raised, and the dual of
// a row with a nonzero right-hand side, raised. Both move bᵀy or cᵀx away
// from the other, and the moved point may also leave a row or the moved
// dual turn a reduced cost.
func TestCertifyRejectsPerturbed(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	checked := 0
	for trial := 0; trial < 200 && checked < 40; trial++ {
		p := randomBoundedLP(rng)
		sol, err := Solve(p)
		if err != nil || sol.Status != Optimal {
			continue
		}
		assertCertified(t, "unperturbed", p, sol)
		j := -1
		for k, c := range p.obj {
			if c != 0 && (j < 0 || math.Abs(c) > math.Abs(p.obj[j])) {
				j = k
			}
		}
		i := -1
		for k, r := range p.rows {
			if r.rhs != 0 && (i < 0 || math.Abs(r.rhs) > math.Abs(p.rows[i].rhs)) {
				i = k
			}
		}
		if j < 0 || i < 0 {
			continue
		}
		checked++

		bad := *sol
		bad.X = append([]float64(nil), sol.X...)
		bad.X[j] += 0.01 * (1 + math.Abs(sol.X[j]))
		if Certify(p, &bad).Err() == nil {
			t.Errorf("trial %d: x[%d] moved from %g to %g still certifies\n%s", trial, j, sol.X[j], bad.X[j], p)
		}
		bad = *sol
		bad.Dual = append([]float64(nil), sol.Dual...)
		bad.Dual[i] += 0.01 * (1 + math.Abs(sol.Dual[i]))
		if Certify(p, &bad).Err() == nil {
			t.Errorf("trial %d: dual %d moved from %g to %g still certifies\n%s", trial, i, sol.Dual[i], bad.Dual[i], p)
		}
	}
	if checked < 40 {
		t.Fatalf("only %d instances had a perturbable entry", checked)
	}
	if c := Certify(NewProblem(Minimize), nil); c.Err() == nil {
		t.Error("a missing solution certifies")
	}
}
