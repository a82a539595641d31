package core

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"time"

	"powercap/internal/machine"
	"powercap/internal/obs"
	"powercap/internal/workloads"
)

// TestWindowedSingleWindowMatchesGolden: one window with coarsening
// disabled is the monolithic formulation run through the windowed path
// (speculative solve, canonical replay, stitch), so it must reproduce the
// pinned pre-refactor objectives bit-for-bit to solver tolerance.
func TestWindowedSingleWindowMatchesGolden(t *testing.T) {
	for name, want := range goldenLP {
		g := goldenSlice(t, name)
		s := solver()
		for i, perSocket := range goldenCaps {
			ws, err := s.SolveWindowed(g, perSocket*8, WindowedOptions{Windows: 1})
			if err != nil {
				t.Fatalf("%s cap %v: %v", name, perSocket, err)
			}
			if ws.Windows != 1 {
				t.Fatalf("%s: requested 1 window, got %d", name, ws.Windows)
			}
			if rel := math.Abs(ws.MakespanS-want[i]) / want[i]; rel > 1e-9 {
				t.Errorf("%s cap %v: windowed makespan %.12f, golden %.12f (rel %g)",
					name, perSocket, ws.MakespanS, want[i], rel)
			}
		}
	}
}

// TestWindowedNeverBeatsMonolithic is the decomposition's soundness
// property: the stitched schedule is feasible for the monolithic LP, so
// its makespan can never be below the monolithic optimum, and every
// window seam must respect the cap under the committed powers.
func TestWindowedNeverBeatsMonolithic(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	names := workloads.Names()
	for trial := 0; trial < 8; trial++ {
		var w *workloads.Workload
		var name string
		if trial%4 == 3 {
			name = "Synthetic"
			w = workloads.Synthetic(workloads.SynthParams{
				Ranks: 2 + rng.Intn(3), Events: 150 + rng.Intn(150), Seed: int64(trial + 1),
			})
		} else {
			name = names[rng.Intn(len(names))]
			var err error
			w, err = workloads.ByName(name, workloads.Params{
				Ranks:      2 + rng.Intn(3),
				Iterations: 1 + rng.Intn(2),
				Seed:       int64(trial + 1),
				WorkScale:  0.25,
			})
			if err != nil {
				t.Fatal(err)
			}
		}
		g := w.Graph
		s := NewSolver(solver().Model, w.EffScale)
		perSocket := 30 + rng.Float64()*40
		capW := perSocket * float64(g.NumRanks)

		mono, err := s.Solve(g, capW)
		if err != nil {
			continue // infeasible caps are exercised elsewhere
		}
		for _, windows := range []int{2, 3, 5} {
			ws, err := s.SolveWindowed(g, capW, WindowedOptions{Windows: windows, OverlapEvents: -1})
			if err != nil {
				t.Fatalf("%s trial %d windows %d: %v", name, trial, windows, err)
			}
			if ws.MakespanS < mono.MakespanS*(1-1e-9) {
				t.Errorf("%s trial %d windows %d: windowed %.12f beats monolithic %.12f",
					name, trial, windows, ws.MakespanS, mono.MakespanS)
			}
			if ws.SeamViolationW > 1e-6 {
				t.Errorf("%s trial %d windows %d: seam cap violation %g W",
					name, trial, windows, ws.SeamViolationW)
			}
			if ws.SimMakespanS > ws.MakespanS*(1+1e-9)+1e-12 {
				t.Errorf("%s trial %d windows %d: simulated %.12f exceeds stitched %.12f",
					name, trial, windows, ws.SimMakespanS, ws.MakespanS)
			}
		}
	}
}

// TestWindowedCoarsenedStaysSound: with coarsening enabled the windowed
// objective is no longer one-sided against the monolithic LP — merging
// removes interior events, and with them event-order chain rows and
// interior power rows, so the coarse program is a *different* fixed-order
// restriction of the true scheduling problem (its optimum can land
// fractionally below the original's). The exhibit therefore reports a
// two-sided gap; this test pins its magnitude at this epsilon, and checks
// the stitched schedule still expands to every original task and
// simulates.
func TestWindowedCoarsenedStaysSound(t *testing.T) {
	w := workloads.Synthetic(workloads.SynthParams{Ranks: 4, Events: 400, Seed: 2})
	g := w.Graph
	s := NewSolver(solver().Model, w.EffScale)
	capW := 45.0 * float64(g.NumRanks)
	mono, err := s.Solve(g, capW)
	if err != nil {
		t.Fatal(err)
	}
	ws, err := s.SolveWindowed(g, capW, WindowedOptions{Windows: 4, OverlapEvents: -1, CoarsenEps: 2e-3})
	if err != nil {
		t.Fatal(err)
	}
	if ws.MergedTasks == 0 {
		t.Fatal("epsilon chosen to merge tasks merged none")
	}
	if len(ws.Choices) != len(g.Tasks) {
		t.Fatalf("stitched schedule has %d choices for %d original tasks", len(ws.Choices), len(g.Tasks))
	}
	if gap := math.Abs(ws.MakespanS/mono.MakespanS - 1); gap > 0.05 {
		t.Fatalf("coarsened windowed gap %.2f%% exceeds 5%% (%.12f vs %.12f)",
			gap*100, ws.MakespanS, mono.MakespanS)
	}
	if ws.SeamViolationW > 1e-6 {
		t.Fatalf("seam cap violation %g W", ws.SeamViolationW)
	}
}

// TestWindowedWarmStartsAndReuse: a multi-window solve on the sparse
// backend should repair speculative bases with dual pivots rather than
// resolving from scratch, and the boundary-free first window should reuse
// its speculative solution outright.
func TestWindowedWarmStartsAndReuse(t *testing.T) {
	g := goldenSlice(t, "SP")
	s := solver()
	ws, err := s.SolveWindowed(g, 50*8, WindowedOptions{Windows: 4, OverlapEvents: -1})
	if err != nil {
		t.Fatal(err)
	}
	if ws.Windows < 2 {
		t.Skipf("instance only admitted %d windows", ws.Windows)
	}
	if ws.SpeculativeSolves == 0 {
		t.Fatal("no speculative solves recorded")
	}
	if ws.CommitSolves >= ws.Windows {
		t.Errorf("all %d windows commit-solved; the boundary-free first window should reuse its speculative solution", ws.Windows)
	}
	if ws.CommitSolves > 0 && ws.WarmStartHits == 0 {
		t.Errorf("0/%d commit solves warm-started", ws.CommitSolves)
	}
	if ws.WarmStartRate() < 0 || ws.WarmStartRate() > 1 {
		t.Errorf("warm-start rate %v out of range", ws.WarmStartRate())
	}
}

// TestWindowedPlanCacheReused: same graph, same slicing — one plan.
func TestWindowedPlanCacheReused(t *testing.T) {
	g := imbalancedGraph()
	s := solver()
	if _, err := s.SolveWindowed(g, 140, WindowedOptions{Windows: 2}); err != nil {
		t.Fatal(err)
	}
	if len(s.planCache) != 1 {
		t.Fatalf("plan cache has %d entries, want 1", len(s.planCache))
	}
	ir, err := s.IR(g)
	if err != nil {
		t.Fatal(err)
	}
	p1 := s.planCtx(context.Background(), g, ir, 2, 0)
	p2 := s.planCtx(context.Background(), g, ir, 2, 0)
	if p1 != p2 {
		t.Fatal("plan rebuilt for an unchanged (graph, windows, overlap)")
	}
}

// TestWindowedInfeasibleCap: a cap below the job's idle floor must surface
// ErrInfeasible from the windowed path too, after the escalation ladder
// has exhausted the monolithic rung.
func TestWindowedInfeasibleCap(t *testing.T) {
	g := imbalancedGraph()
	s := solver()
	_, err := s.SolveWindowed(g, 1, WindowedOptions{Windows: 2})
	if err == nil {
		t.Fatal("expected infeasibility at 1 W")
	}
}

// TestWindowedTraceNests runs a traced multi-window solve through
// obs.CheckNesting: every window.solve span must lie inside the span that
// encloses the whole windowed solve, never under a window.build span that
// has already ended.
func TestWindowedTraceNests(t *testing.T) {
	w := workloads.Synthetic(workloads.SynthParams{Ranks: 4, Events: 600, Seed: 1})
	s := NewSolver(machine.Default(), w.EffScale)
	tr := obs.NewTrace(0)
	defer tr.Release()
	ctx := obs.WithTrace(context.Background(), tr)
	ws, err := s.SolveWindowedCtx(ctx, w.Graph, 50*4, WindowedOptions{Windows: 3, OverlapEvents: -1, Parallel: 2})
	if err != nil {
		t.Fatal(err)
	}
	if ws.Windows < 2 {
		t.Fatalf("got %d windows, need several to trace window solves", ws.Windows)
	}
	if d := tr.Dropped(); d > 0 {
		t.Fatalf("trace dropped %d spans", d)
	}
	evs := obs.ChromeEvents(tr.Snapshot())
	solves := 0
	for _, e := range evs {
		if e.Name == "window.solve" {
			solves++
		}
	}
	if solves < ws.Windows {
		t.Fatalf("%d window.solve spans for %d windows", solves, ws.Windows)
	}
	if err := obs.CheckNesting(evs); err != nil {
		t.Fatal(err)
	}
}

// TestWindowedNumericalRescue pins lp.Solve's rescue on the synthetic
// traces whose window solves break down numerically (seeds 226 and 43 at
// 50 W/socket: a cold presolved window solve ends in a singular basis at
// refactorization). Each must finish well inside its deadline through the
// rescue, with the seams cap-clean and the simulator agreeing. The rescue
// takes about 2 s per trace, so the deadline only trips on a hang.
func TestWindowedNumericalRescue(t *testing.T) {
	for _, seed := range []int64{226, 43} {
		w := workloads.Synthetic(workloads.SynthParams{Ranks: 4, Events: 2500, Seed: seed})
		s := NewSolver(machine.Default(), w.EffScale)
		ctx, cancel := context.WithTimeout(context.Background(), raceSlowdown*30*time.Second)
		ws, err := s.SolveWindowedCtx(ctx, w.Graph, 50*4, WindowedOptions{
			Windows: 4, OverlapEvents: -1, CoarsenEps: 2e-3, Parallel: 2,
		})
		cancel()
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if ws.NumericalFallbacks() < 1 {
			t.Errorf("seed %d: no numerical rescue recorded; the trace no longer exercises the rescue", seed)
		}
		if ws.SeamViolationW > 1e-6 {
			t.Errorf("seed %d: seam violation %g W", seed, ws.SeamViolationW)
		}
		if ws.SimMakespanS > ws.MakespanS {
			t.Errorf("seed %d: simulated makespan %.12g above stitched %.12g", seed, ws.SimMakespanS, ws.MakespanS)
		}
	}
}
