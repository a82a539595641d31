package core

import (
	"context"
	"errors"
	"math"
	"testing"

	"powercap/internal/dag"
	"powercap/internal/lp"
)

// unpresolvedMakespan solves b at capW in the configuration of the kernel's
// numerical rescue — cold, without presolve — and returns the makespan, or
// ok=false when the cap is infeasible.
func unpresolvedMakespan(t *testing.T, s *Solver, b *builtLP, g *dag.Graph, capW float64) (makespan float64, ok bool) {
	t.Helper()
	if b.fixedFloorW > capW {
		return 0, false
	}
	for _, pr := range b.powerRows {
		if err := b.prob.SetRHS(pr.row, capW-pr.deduct); err != nil {
			t.Fatal(err)
		}
	}
	sol, err := lp.Solve(b.prob, lp.WithoutPresolve())
	if err != nil {
		t.Fatalf("cap %v unpresolved: %v", capW, err)
	}
	switch sol.Status {
	case lp.Optimal:
	case lp.Infeasible:
		return 0, false
	default:
		t.Fatalf("cap %v unpresolved: status %v", capW, sol.Status)
	}
	sched := &Schedule{Choices: make([]TaskChoice, len(g.Tasks)), VertexTimeS: make([]float64, len(g.Vertices))}
	s.extractInto(b, sol, sched, identityTaskMap(len(g.Tasks)), sched.VertexTimeS)
	return finalizeTime(g, sched.VertexTimeS), true
}

// The LP kernel runs in two configurations: presolved, and the numerical
// rescue's cold solve of the stated problem without presolve. A rescued
// answer is an ordinary answer, so both must land on the pre-refactor
// golden objectives.
func TestEngineEquivalenceGoldenObjectives(t *testing.T) {
	for _, name := range []string{"BT", "CoMD"} {
		want := goldenLP[name]
		g := goldenSlice(t, name)
		s := solver()
		b, err := s.buildLP(context.Background(), g)
		if err != nil {
			t.Fatal(err)
		}
		for i, perSocket := range goldenCaps {
			sched, err := s.Solve(g, perSocket*8)
			if err != nil {
				t.Fatalf("%s cap %v: %v", name, perSocket, err)
			}
			rescue, ok := unpresolvedMakespan(t, s, b, g, perSocket*8)
			if !ok {
				t.Fatalf("%s cap %v unpresolved: infeasible", name, perSocket)
			}
			for cfg, got := range map[string]float64{"presolved": sched.MakespanS, "unpresolved": rescue} {
				if rel := math.Abs(got-want[i]) / want[i]; rel > 1e-9 {
					t.Errorf("%s %s cap %v: makespan %.12f, golden %.12f (rel %g)",
						name, cfg, perSocket, got, want[i], rel)
				}
			}
		}
	}
}

// TestBackendEquivalenceOnSchedulingLPs cross-checks the kernel's two
// configurations on the real scheduling LPs core builds, not just synthetic
// corpus instances: the presolved solve every caller gets and the rescue's
// cold solve without presolve must reach identical feasibility verdicts and
// makespans. (internal/lp checks the kernel against the dense-tableau
// oracle.)
func TestBackendEquivalenceOnSchedulingLPs(t *testing.T) {
	g := imbalancedGraph()
	s := solver()
	b, err := s.buildLP(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	for _, capW := range []float64{160, 100, 70, 45, 15} {
		sched, err := s.Solve(g, capW)
		if err != nil && !errors.Is(err, ErrInfeasible) {
			t.Fatalf("cap %v: %v", capW, err)
		}
		rescue, ok := unpresolvedMakespan(t, s, b, g, capW)
		if ok != (err == nil) {
			t.Fatalf("cap %v: presolved err %v, unpresolved feasible=%v", capW, err, ok)
		}
		if ok && math.Abs(sched.MakespanS-rescue) > 1e-9*(1+rescue) {
			t.Fatalf("cap %v: presolved makespan %.15g, unpresolved %.15g", capW, sched.MakespanS, rescue)
		}
	}
}
