package lp

import (
	"math"
	"testing"
)

// Degenerate-cycling regressions: on a classic cycling instance, forcing the
// stall threshold to its minimum must activate Bland's rule in the kernel
// and in the dense oracle, and both must still terminate at the optimum
// within a finite pivot budget (no cycling).

// bealeProblem is Beale's example, the canonical LP on which textbook
// Dantzig pricing cycles forever. Optimum: x = (1/25, 0, 1, 0), obj −1/20.
func bealeProblem() *Problem {
	p := NewProblem(Minimize)
	x1 := p.AddVar("x1", -0.75)
	x2 := p.AddVar("x2", 150)
	x3 := p.AddVar("x3", -0.02)
	x4 := p.AddVar("x4", 6)
	p.MustConstraint("", Expr{}.Plus(x1, 0.25).Plus(x2, -60).Plus(x3, -0.04).Plus(x4, 9), LE, 0)
	p.MustConstraint("", Expr{}.Plus(x1, 0.5).Plus(x2, -90).Plus(x3, -0.02).Plus(x4, 3), LE, 0)
	p.MustConstraint("", Expr{}.Plus(x3, 1), LE, 1)
	return p
}

func TestDegenerateCyclingBlandActivation(t *testing.T) {
	for _, im := range impls {
		t.Run(im.name, func(t *testing.T) {
			p := bealeProblem()
			// StallWindow 1 means the very first non-improving (degenerate)
			// pivot flips the solver into Bland's rule; the tight MaxIters
			// budget makes any cycling show up as IterLimit instead of a
			// hung test.
			sol, err := im.solve(p,
				WithStallWindow(1),
				WithMaxIters(500))
			if err != nil {
				t.Fatal(err)
			}
			if sol.Status != Optimal {
				t.Fatalf("status %v, want optimal (cycled or stuck?)", sol.Status)
			}
			if math.Abs(sol.Objective-(-0.05)) > 1e-9 {
				t.Fatalf("objective %v, want -0.05", sol.Objective)
			}
			if !sol.Stats.BlandActivated {
				t.Fatalf("Bland's rule never activated despite StallWindow=1 on a degenerate instance")
			}
			if sol.Iters > 500 {
				t.Fatalf("iteration budget exceeded: %d", sol.Iters)
			}
		})
	}
}

// TestDegenerateSteepestEdgeNoCycling pins the anti-cycling story for the
// steepest-edge pricer: when Bland's rule engages it refreshes reduced costs
// exactly every iteration (first-negative over exact d[]), so the
// finite-termination guarantee survives the incremental pricing layer.
// Beale's instance must terminate at the optimum with and without a forced
// Bland flip, scaled and in the rescue's configuration (unscaled).
func TestDegenerateSteepestEdgeNoCycling(t *testing.T) {
	// The kernel's one configuration: LU basis engine, steepest-edge pricing.
	t.Run("lu/steepest", func(t *testing.T) {
		for _, forceBland := range []bool{false, true} {
			for _, scale := range []bool{true, false} {
				opts := []Option{WithMaxIters(500)}
				if forceBland {
					opts = append(opts, WithStallWindow(1))
				}
				if !scale {
					opts = append(opts, WithoutScaling())
				}
				sol, err := Solve(bealeProblem(), opts...)
				if err != nil {
					t.Fatalf("forceBland=%v scale=%v: %v", forceBland, scale, err)
				}
				if sol.Status != Optimal {
					t.Fatalf("forceBland=%v scale=%v: status %v, want optimal (cycled?)", forceBland, scale, sol.Status)
				}
				if math.Abs(sol.Objective-(-0.05)) > 1e-9 {
					t.Fatalf("forceBland=%v scale=%v: objective %v, want -0.05", forceBland, scale, sol.Objective)
				}
				if forceBland && !sol.Stats.BlandActivated {
					t.Fatalf("scale=%v: Bland's rule never activated despite StallWindow=1", scale)
				}
			}
		}
	})
}

// TestDegenerateDefaultStallWindow makes sure the default configuration
// also solves the cycling instance (the stall heuristic engages on its
// own if needed — either way termination and the optimum are required).
func TestDegenerateDefaultStallWindow(t *testing.T) {
	for _, im := range impls {
		t.Run(im.name, func(t *testing.T) {
			sol, err := im.solve(bealeProblem())
			if err != nil {
				t.Fatal(err)
			}
			if sol.Status != Optimal {
				t.Fatalf("status %v, want optimal", sol.Status)
			}
			if math.Abs(sol.Objective-(-0.05)) > 1e-9 {
				t.Fatalf("objective %v, want -0.05", sol.Objective)
			}
		})
	}
}
