package core

import (
	"math"
	"testing"

	"powercap/internal/dag"
	"powercap/internal/workloads"
)

// Golden pre-refactor objectives. These makespans were captured from the
// private-builder implementations (core building its own activity sets and
// frontiers per backend) immediately before the solve path moved onto the
// shared internal/problem IR, on one measured iteration of each 8-rank
// workload proxy (Ranks 8, Iterations 4, Seed 1, WorkScale 0.5, slice 2)
// across four job caps. Any drift in activity sets, event order, frontier
// columns, or row emission shows up here as an objective change. The dense
// tableau and the sparse kernel agreed on every instance then; the table now
// pins the one kernel.
var goldenLP = map[string][4]float64{
	//            cap 70 W/socket  50 W         40 W         30 W
	"SP":     {0.119566612562, 0.144461208842, 0.170885324449, 0.232723018415},
	"BT":     {0.269011383734, 0.325771963927, 0.385924167022, 0.526868327779},
	"LULESH": {0.633797923242, 0.633797923242, 0.687703739237, 0.839460991070},
	"CoMD":   {0.336608320991, 0.370807751147, 0.443120572798, 0.620180402677},
}

// goldenSlackAware is the slack-aware variant's own pre-refactor table on
// the same instances. Idle-priced slack can free budget (landing below
// goldenLP) or its extra boundary events can tighten the fixed order
// (landing above); on these particular instances neither effect moves the
// optimum and the two tables coincide, but they are pinned independently so
// a regression in either formulation is caught on its own.
var goldenSlackAware = map[string][4]float64{
	"SP":     {0.119566612562, 0.144461208842, 0.170885324449, 0.232723018415},
	"BT":     {0.269011383734, 0.325771963927, 0.385924167022, 0.526868327779},
	"LULESH": {0.633797923242, 0.633797923242, 0.687703739237, 0.839460991070},
	"CoMD":   {0.336608320991, 0.370807751147, 0.443120572798, 0.620180402677},
}

var goldenCaps = [4]float64{70, 50, 40, 30}

func goldenSlice(t *testing.T, name string) *dag.Graph {
	t.Helper()
	w, err := workloads.ByName(name, workloads.Params{Ranks: 8, Iterations: 4, Seed: 1, WorkScale: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	slices, err := dag.SliceAll(w.Graph)
	if err != nil {
		t.Fatal(err)
	}
	if len(slices) < 3 {
		t.Fatalf("workload %s produced %d slices, want ≥ 3", name, len(slices))
	}
	return slices[2].Graph
}

// TestEquivalenceWithPreRefactorObjectives verifies that the continuous
// fixed-order LP consuming the shared IR reproduces the pre-refactor
// objectives exactly (to solver tolerance).
func TestEquivalenceWithPreRefactorObjectives(t *testing.T) {
	for name, want := range goldenLP {
		g := goldenSlice(t, name)
		s := solver()
		for i, perSocket := range goldenCaps {
			sched, err := s.Solve(g, perSocket*8)
			if err != nil {
				t.Fatalf("%s cap %v: %v", name, perSocket, err)
			}
			if rel := math.Abs(sched.MakespanS-want[i]) / want[i]; rel > 1e-9 {
				t.Errorf("%s cap %v: makespan %.12f, pre-refactor %.12f (rel %g)",
					name, perSocket, sched.MakespanS, want[i], rel)
			}
		}
	}
}

// TestSlackAwareEquivalence pins the slack-aware variant to its own
// pre-refactor objectives.
func TestSlackAwareEquivalence(t *testing.T) {
	for name, want := range goldenSlackAware {
		g := goldenSlice(t, name)
		s := solver()
		for i, perSocket := range goldenCaps {
			sched, err := s.SolveSlackAware(g, perSocket*8)
			if err != nil {
				t.Fatalf("%s cap %v: %v", name, perSocket, err)
			}
			if rel := math.Abs(sched.MakespanS-want[i]) / want[i]; rel > 1e-9 {
				t.Errorf("%s cap %v: slack-aware makespan %.12f, pre-refactor %.12f (rel %g)",
					name, perSocket, sched.MakespanS, want[i], rel)
			}
		}
	}
}

// TestDiscreteEquivalence pins the MILP branch-and-bound backend on a tiny
// instance (2 ranks) to its pre-refactor objectives.
func TestDiscreteEquivalence(t *testing.T) {
	w, err := workloads.ByName("SP", workloads.Params{Ranks: 2, Iterations: 2, Seed: 1, WorkScale: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	slices, err := dag.SliceAll(w.Graph)
	if err != nil {
		t.Fatal(err)
	}
	g := slices[1].Graph
	want := map[float64]float64{
		70: 0.122498476219,
		40: 0.174644225228,
		25: 0.342886291177,
	}
	s := solver()
	for perSocket, m := range want {
		sched, err := s.SolveDiscrete(g, perSocket*2)
		if err != nil {
			t.Fatalf("cap %v: %v", perSocket, err)
		}
		if rel := math.Abs(sched.MakespanS-m) / m; rel > 1e-9 {
			t.Errorf("cap %v: discrete makespan %.12f, pre-refactor %.12f (rel %g)",
				perSocket, sched.MakespanS, m, rel)
		}
	}
}

// TestIRCacheReusedAcrossSolves asserts the Solver builds the IR once per
// graph digest: the whole point of the cap-independent IR is that sweeps
// and repeated solves share one build.
func TestIRCacheReusedAcrossSolves(t *testing.T) {
	g := imbalancedGraph()
	s := solver()
	ir1, err := s.IR(g)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Solve(g, 70); err != nil {
		t.Fatal(err)
	}
	ir2, err := s.IR(g)
	if err != nil {
		t.Fatal(err)
	}
	if ir1 != ir2 {
		t.Fatal("IR rebuilt for an unchanged graph")
	}
}
