package lp

import (
	"context"
	"fmt"
	"math"
	"testing"
)

// TestCancellationTable drives the kernel and the dense oracle into context expiry at tight,
// medium, and loose pivot deadlines and asserts the contract from DESIGN.md
// §10: an expired context always surfaces as Status Canceled with a zeroed
// primal point and a NaN objective — never a partial or NaN-laced solution.
// The countdownCtx expires after a fixed number of Err polls; the loops poll
// once per cancelCheckEvery pivots, so an N-pivot deadline allows at most
// N/cancelCheckEvery+1 polls before dying.
func TestCancellationTable(t *testing.T) {
	p := bigRandomLP(6)
	full, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if full.Status != Optimal {
		t.Fatalf("baseline status = %v", full.Status)
	}

	for _, deadline := range []int{1, 10, 100} {
		polls := deadline/cancelCheckEvery + 1
		if full.Iters <= polls*cancelCheckEvery {
			t.Fatalf("test LP too easy for a %d-pivot deadline: %d pivots total", deadline, full.Iters)
		}
		for _, im := range impls {
			t.Run(fmt.Sprintf("%s/%d-pivots", im.name, deadline), func(t *testing.T) {
				ctx := &countdownCtx{Context: context.Background(), remaining: polls}
				sol, err := im.solve(p, WithContext(ctx))
				if err != nil {
					t.Fatal(err)
				}
				if sol.Status != Canceled {
					t.Fatalf("status = %v, want Canceled", sol.Status)
				}
				if sol.Iters > polls*cancelCheckEvery {
					t.Fatalf("canceled after %d pivots, deadline allowed at most %d",
						sol.Iters, polls*cancelCheckEvery)
				}
				if !math.IsNaN(sol.Objective) {
					t.Fatalf("canceled solve leaked objective %v", sol.Objective)
				}
				for j, x := range sol.X {
					if x != 0 {
						t.Fatalf("canceled solve leaked partial X[%d] = %v", j, x)
					}
					if math.IsNaN(x) || math.IsInf(x, 0) {
						t.Fatalf("canceled solve leaked non-finite X[%d]", j)
					}
				}
			})
		}
	}
}

// TestCancellationTableWarmStart covers the same contract on the
// warm-started dual-simplex path, at deadlines tight enough that the dual
// repair cannot finish first (a unit RHS shift forces a few dozen dual
// pivots; 100-pivot deadlines would let the repair complete legitimately).
func TestCancellationTableWarmStart(t *testing.T) {
	p := bigRandomLP(8)
	sol, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal {
		t.Fatalf("baseline status = %v", sol.Status)
	}
	for r := 0; r < p.NumConstraints(); r++ {
		p.SetRHS(r, p.RHS(r)-1)
	}
	repair, err := Solve(p, WithWarmBasis(sol.Basis))
	if err != nil {
		t.Fatal(err)
	}
	if !repair.Stats.WarmStarted || repair.Stats.DualIters == 0 {
		t.Fatalf("perturbation produced no dual repair (warm=%v dual=%d)",
			repair.Stats.WarmStarted, repair.Stats.DualIters)
	}
	for _, deadline := range []int{1, 10} {
		polls := deadline/cancelCheckEvery + 1
		if repair.Iters <= polls*cancelCheckEvery {
			t.Fatalf("repair too short (%d pivots) for a %d-pivot deadline", repair.Iters, deadline)
		}
		t.Run(fmt.Sprintf("%d-pivots", deadline), func(t *testing.T) {
			ctx := &countdownCtx{Context: context.Background(), remaining: polls}
			warm, err := Solve(p, WithWarmBasis(sol.Basis), WithContext(ctx))
			if err != nil {
				t.Fatal(err)
			}
			if warm.Status != Canceled {
				t.Fatalf("status = %v, want Canceled", warm.Status)
			}
			if !math.IsNaN(warm.Objective) {
				t.Fatalf("canceled warm solve leaked objective %v", warm.Objective)
			}
			for j, x := range warm.X {
				if x != 0 {
					t.Fatalf("canceled warm solve leaked partial X[%d] = %v", j, x)
				}
			}
		})
	}
}
