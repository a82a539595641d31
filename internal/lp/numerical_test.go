package lp

import (
	"context"
	"errors"
	"math"
	"testing"

	"powercap/internal/faultinject"
)

// smallLP is an always-feasible minimization that solves in well under one
// checkpoint window (cancelCheckEvery pivots), so a rate-1.0 NaN injection
// fires exactly once — at the iteration-0 checkpoint — and a single
// refactorization recovery must carry the solve to optimality.
func smallLP() *Problem {
	p := NewProblem(Minimize)
	x := p.AddVar("x", -1)
	y := p.AddVar("y", -2)
	z := p.AddVar("z", 1)
	p.MustConstraint("", Expr{}.Plus(x, 1).Plus(y, 1), LE, 4)
	p.MustConstraint("", Expr{}.Plus(x, 1).Plus(z, 2), LE, 6)
	p.MustConstraint("", Expr{}.Plus(y, 1).Plus(z, -1), LE, 3)
	return p
}

// TestInjectedNaNSparseRecovers: one injected NaN must be repaired by
// reinversion, and because reinversion rebuilds exactly the state the solve
// already had, the objective must match the fault-free solve bit for bit.
func TestInjectedNaNSparseRecovers(t *testing.T) {
	p := smallLP()
	clean, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if clean.Status != Optimal {
		t.Fatalf("baseline status = %v", clean.Status)
	}
	if clean.Iters >= cancelCheckEvery {
		t.Fatalf("test LP too hard: %d pivots, need < %d for a single injection", clean.Iters, cancelCheckEvery)
	}

	faultinject.Configure(11, map[faultinject.Class]float64{faultinject.LPNaN: 1.0})
	defer faultinject.Disable()
	sol, err := Solve(p)
	if err != nil {
		t.Fatalf("sparse solve with one recoverable NaN: %v", err)
	}
	if faultinject.Count(faultinject.LPNaN) == 0 {
		t.Fatal("fault never fired; test exercises nothing")
	}
	if sol.Status != Optimal {
		t.Fatalf("status = %v, want Optimal after NaN recovery", sol.Status)
	}
	if math.Float64bits(sol.Objective) != math.Float64bits(clean.Objective) {
		t.Fatalf("objective %v != clean %v after recovery", sol.Objective, clean.Objective)
	}
	if sol.Stats.Refactorizations <= clean.Stats.Refactorizations {
		t.Fatalf("recovery left no reinversion trace: %d <= %d",
			sol.Stats.Refactorizations, clean.Stats.Refactorizations)
	}
}

// TestInjectedNaNSparseExhaustsRetries: a NaN at every checkpoint outlives
// the maxNaNRetries budget on a long solve — scaled and again in the
// rescue — and must surface as a typed *NumericalError, not as a NaN-laced
// solution or a bare IterLimit.
func TestInjectedNaNSparseExhaustsRetries(t *testing.T) {
	p := bigRandomLP(1)
	clean, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if clean.Iters <= (maxNaNRetries+1)*cancelCheckEvery {
		t.Fatalf("test LP too easy: %d pivots, need > %d to exhaust retries",
			clean.Iters, (maxNaNRetries+1)*cancelCheckEvery)
	}

	faultinject.Configure(12, map[faultinject.Class]float64{faultinject.LPNaN: 1.0})
	defer faultinject.Disable()
	sol, err := Solve(p)
	if err == nil {
		t.Fatalf("want *NumericalError, got status %v", sol.Status)
	}
	var ne *NumericalError
	if !errors.As(err, &ne) {
		t.Fatalf("error %T is not *NumericalError: %v", err, err)
	}
	if ne.Reason == "" {
		t.Fatal("empty Reason")
	}
}

// TestInjectedStallSurfacesIterLimit: the LPStall fault reports budget
// exhaustion through the normal IterLimit status, no error — the ladder
// treats it as a transient, like a genuinely hard solve.
func TestInjectedStallSurfacesIterLimit(t *testing.T) {
	faultinject.Configure(14, map[faultinject.Class]float64{faultinject.LPStall: 1.0})
	defer faultinject.Disable()
	sol, err := Solve(bigRandomLP(3))
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != IterLimit {
		t.Fatalf("status = %v, want IterLimit", sol.Status)
	}
	if !math.IsNaN(sol.Objective) {
		t.Fatalf("stalled solve leaked objective %v", sol.Objective)
	}
}

// TestCancellationBeatsInjectedFaults: a dead context must surface as
// Canceled even when every checkpoint would also inject a fault — the
// checkpoint ordering guarantees cancellation is never masked.
func TestCancellationBeatsInjectedFaults(t *testing.T) {
	faultinject.Configure(15, map[faultinject.Class]float64{
		faultinject.LPNaN:   1.0,
		faultinject.LPStall: 1.0,
	})
	defer faultinject.Disable()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	sol, err := Solve(bigRandomLP(4), WithContext(ctx))
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Canceled {
		t.Fatalf("status = %v, want Canceled", sol.Status)
	}
}

// TestFaultsOffBitIdentical: arming and disarming the registry must leave no
// residue — a disarmed solve after a chaos run is bit-identical to one from
// a pristine process state.
func TestFaultsOffBitIdentical(t *testing.T) {
	p := bigRandomLP(5)
	type res struct {
		status Status
		obj    uint64
		iters  int
	}
	solve := func() res {
		sol, err := Solve(p)
		if err != nil {
			t.Fatal(err)
		}
		return res{sol.Status, math.Float64bits(sol.Objective), sol.Iters}
	}
	before := solve()
	faultinject.Configure(16, map[faultinject.Class]float64{faultinject.LPNaN: 1.0})
	if _, err := Solve(p); err == nil {
		t.Fatal("armed solve unexpectedly survived rate-1.0 NaN injection")
	}
	faultinject.Disable()
	if after := solve(); before != after {
		t.Fatalf("disarmed solve changed: %+v vs %+v", before, after)
	}
}

// TestRescueCostsAtMostOneColdSolve pins the in-kernel rescue: a scaled
// solve that breaks down is re-solved once, cold and unscaled, and never
// more. Under rate-limited NaN injection every checkpoint is a draw,
// and an attempt breaks down at exactly its (maxNaNRetries+1)th NaN, so
// the number of NaNs fired accounts for every attempt: a solve that
// survives its first attempt saw at most maxNaNRetries, a rescued one
// between one and two budgets' worth, and a failed one exactly two budgets
// — a third attempt would show up as more. Across seeds all three outcomes
// must occur, and a rescued solve must report Stats.Rescues = 1, carry no
// scaling (the rescue solves the stated rows unscaled), and land on the
// clean optimum.
func TestRescueCostsAtMostOneColdSolve(t *testing.T) {
	p := bigRandomLP(7)
	clean, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := Solve(p, WithoutScaling())
	if err != nil {
		t.Fatal(err)
	}
	budget := maxNaNRetries + 1
	for _, sol := range []*Solution{clean, direct} {
		if sol.Iters <= budget*cancelCheckEvery {
			t.Fatalf("test LP too easy: %d pivots, need > %d for a breakdown", sol.Iters, budget*cancelCheckEvery)
		}
		if sol.Stats.Rescues != 0 {
			t.Fatalf("clean solve reports %d rescues", sol.Stats.Rescues)
		}
	}
	if clean.Stats.RowNormMax == 0 || direct.Stats.RowNormMax != 0 {
		t.Fatalf("row norms %g scaled, %g unscaled: want only the default solve scaled",
			clean.Stats.RowNormMax, direct.Stats.RowNormMax)
	}

	defer faultinject.Disable()
	var survived, rescued, failed int
	for seed := uint64(1); seed <= 64; seed++ {
		faultinject.Configure(seed, map[faultinject.Class]float64{faultinject.LPNaN: 0.4})
		sol, err := Solve(p)
		fired := int(faultinject.Count(faultinject.LPNaN))
		faultinject.Disable()

		var ne *NumericalError
		switch {
		case errors.As(err, &ne):
			failed++
			if fired != 2*budget {
				t.Fatalf("seed %d: failed after %d NaNs, want exactly %d (scaled attempt + one rescue)", seed, fired, 2*budget)
			}
		case err != nil:
			t.Fatalf("seed %d: %v", seed, err)
		case sol.Stats.Rescues == 0:
			survived++
			if fired > maxNaNRetries {
				t.Fatalf("seed %d: %d NaNs without a breakdown or rescue", seed, fired)
			}
		case sol.Stats.Rescues == 1:
			rescued++
			if fired < budget || fired > budget+maxNaNRetries {
				t.Fatalf("seed %d: rescued after %d NaNs, want %d..%d", seed, fired, budget, budget+maxNaNRetries)
			}
			if sol.Stats.RowNormMax != 0 || sol.Stats.WarmStarted {
				t.Fatalf("seed %d: rescued solve was scaled (row norm %g) or warm (%v)", seed, sol.Stats.RowNormMax, sol.Stats.WarmStarted)
			}
			if sol.Status != Optimal || math.Abs(sol.Objective-clean.Objective) > 1e-9*math.Max(1, math.Abs(clean.Objective)) {
				t.Fatalf("seed %d: rescued solve %v objective %.15g, clean %.15g", seed, sol.Status, sol.Objective, clean.Objective)
			}
		default:
			t.Fatalf("seed %d: Stats.Rescues = %d, want 0 or 1", seed, sol.Stats.Rescues)
		}
	}
	t.Logf("64 seeds: %d survived, %d rescued, %d failed", survived, rescued, failed)
	if survived == 0 || rescued == 0 || failed == 0 {
		t.Fatalf("outcomes survived/rescued/failed = %d/%d/%d; every kind must occur", survived, rescued, failed)
	}
}
