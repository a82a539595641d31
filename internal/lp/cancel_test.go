package lp

import (
	"context"
	"math/rand"
	"testing"
	"time"
)

// bigRandomLP builds an always-feasible minimization with enough columns
// and rows that the kernel and the dense oracle both need well over
// cancelCheckEvery pivots.
func bigRandomLP(seed int64) *Problem {
	rng := rand.New(rand.NewSource(seed))
	const n = 120
	p := NewProblem(Minimize)
	vars := make([]Var, n)
	for i := range vars {
		vars[i] = p.AddVar("", rng.Float64()*10-5)
	}
	for i := range vars {
		p.MustConstraint("", Expr{}.Plus(vars[i], 1), LE, 1+rng.Float64()*9)
	}
	for r := 0; r < 90; r++ {
		var e Expr
		for i := range vars {
			if rng.Intn(3) == 0 {
				e = e.Plus(vars[i], rng.Float64()*6-3)
			}
		}
		if len(e) == 0 {
			continue
		}
		p.MustConstraint("", e, GE, -rng.Float64()*10)
	}
	return p
}

// countdownCtx is a context.Context whose Err becomes non-nil after a fixed
// number of Err calls — a deterministic stand-in for a deadline expiring
// mid-solve, since the backends poll Err once per cancelCheckEvery pivots.
type countdownCtx struct {
	context.Context
	remaining int
}

func (c *countdownCtx) Err() error {
	if c.remaining <= 0 {
		return context.DeadlineExceeded
	}
	c.remaining--
	return nil
}

func (c *countdownCtx) Done() <-chan struct{} { return nil }

func (c *countdownCtx) Deadline() (time.Time, bool) { return time.Time{}, false }

func TestSolveCanceledBeforeFirstPivot(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	p := bigRandomLP(1)
	for _, im := range impls {
		sol, err := im.solve(p, WithContext(ctx))
		if err != nil {
			t.Fatalf("%s: %v", im.name, err)
		}
		if sol.Status != Canceled {
			t.Fatalf("%s: status = %v, want Canceled", im.name, sol.Status)
		}
		if sol.Iters != 0 {
			t.Fatalf("%s: %d pivots spent on a dead context, want 0", im.name, sol.Iters)
		}
	}
}

func TestSolveCanceledMidPivotLoop(t *testing.T) {
	p := bigRandomLP(2)
	// Establish the uncancelled pivot count first, so the mid-solve
	// cancellation provably stopped early.
	full, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if full.Status != Optimal {
		t.Fatalf("baseline status = %v", full.Status)
	}
	if full.Iters <= 2*cancelCheckEvery {
		t.Fatalf("test LP too easy: %d pivots, need > %d", full.Iters, 2*cancelCheckEvery)
	}

	for _, im := range impls {
		ctx := &countdownCtx{Context: context.Background(), remaining: 2}
		sol, err := im.solve(p, WithContext(ctx))
		if err != nil {
			t.Fatalf("%s: %v", im.name, err)
		}
		if sol.Status != Canceled {
			t.Fatalf("%s: status = %v, want Canceled", im.name, sol.Status)
		}
		if sol.Iters == 0 || sol.Iters > 3*cancelCheckEvery {
			t.Fatalf("%s: canceled after %d pivots, want in (0, %d]", im.name, sol.Iters, 3*cancelCheckEvery)
		}
	}
}

// TestSolveWarmStartCanceled covers the warm-start dual-simplex path: a
// canceled warm repair must report Canceled rather than silently falling
// back to a cold solve.
func TestSolveWarmStartCanceled(t *testing.T) {
	p := bigRandomLP(3)
	sol, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal {
		t.Fatalf("baseline status = %v", sol.Status)
	}
	// Perturb every RHS so the dual repair has real work to do, then hand
	// it a dead context.
	for r := 0; r < p.NumConstraints(); r++ {
		p.SetRHS(r, p.RHS(r)*0.5)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	warm, err := Solve(p, WithWarmBasis(sol.Basis), WithContext(ctx))
	if err != nil {
		t.Fatal(err)
	}
	if warm.Status != Canceled {
		t.Fatalf("warm status = %v, want Canceled", warm.Status)
	}
}

// TestSolveWithLiveContextUnaffected asserts a never-canceled context does
// not change the solution.
func TestSolveWithLiveContextUnaffected(t *testing.T) {
	p := bigRandomLP(4)
	plain, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	withCtx, err := Solve(p, WithContext(context.Background()))
	if err != nil {
		t.Fatal(err)
	}
	if plain.Status != withCtx.Status || plain.Objective != withCtx.Objective {
		t.Fatalf("context changed the solve: %v/%v vs %v/%v",
			plain.Status, plain.Objective, withCtx.Status, withCtx.Objective)
	}
}
