package core

import (
	"context"
	"errors"
	"math"
	"testing"

	"powercap/internal/lp"
	"powercap/internal/machine"
	"powercap/internal/workloads"
)

func TestSolveSweepMatchesIndividualSolves(t *testing.T) {
	g := imbalancedGraph()
	s := solver()
	caps := []float64{160, 120, 100, 80, 60, 45, 15} // 15 W is infeasible

	pts, err := s.SolveSweep(g, caps)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != len(caps) {
		t.Fatalf("%d points for %d caps", len(pts), len(caps))
	}
	repaired := 0
	for i, pt := range pts {
		if pt.CapW != caps[i] {
			t.Fatalf("point %d: cap %v, want %v", i, pt.CapW, caps[i])
		}
		indiv, ierr := solver().Solve(g, caps[i])
		if ierr != nil {
			if !errors.Is(ierr, ErrInfeasible) {
				t.Fatal(ierr)
			}
			if !errors.Is(pt.Err, ErrInfeasible) {
				t.Fatalf("cap %v: individual solve infeasible, sweep err %v", caps[i], pt.Err)
			}
			if pt.Schedule != nil {
				t.Fatalf("cap %v: infeasible point carries a schedule", caps[i])
			}
			continue
		}
		if pt.Err != nil {
			t.Fatalf("cap %v: sweep err %v, individual solve optimal", caps[i], pt.Err)
		}
		if math.Abs(pt.Schedule.MakespanS-indiv.MakespanS) > 1e-9*(1+indiv.MakespanS) {
			t.Fatalf("cap %v: sweep makespan %v, individual %v", caps[i], pt.Schedule.MakespanS, indiv.MakespanS)
		}
		// The first point starts from the crash basis, a primal start with
		// no dual pivots; dual pivots only come from repairing the basis
		// handed on from the previous cap.
		repaired += pt.Schedule.Stats.DualIter
	}
	if repaired == 0 {
		t.Fatal("no sweep point repaired a handed-on basis with dual pivots; basis handoff broken")
	}

	// Every point carries the effort it cost, so the points add up to a
	// job session solved at the same caps. The infeasible cap lies below
	// the closed-form floor, which proves it with no LP.
	if last := pts[len(pts)-1]; last.Stats != (Stats{}) {
		t.Fatalf("infeasible cap %v: point effort %+v, want none below the floor", last.CapW, last.Stats)
	}
	js, err := solver().NewJobSession(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	var sum Stats
	for i, pt := range pts {
		// Outcomes were checked above; only the effort is compared here.
		_, _ = js.SolveAt(context.Background(), caps[i])
		sum.Add(pt.Stats)
	}
	if sum != js.Stats() {
		t.Fatalf("sweep points' effort %+v, job session over the same caps %+v", sum, js.Stats())
	}
}

// TestSolveSweepWarmSavesPivots: imbalancedGraph has no Pcontrol
// boundary, so its sweep is one slice, the whole graph, and a cold
// whole-graph Solve at each cap is what the warm starts save on.
func TestSolveSweepWarmSavesPivots(t *testing.T) {
	g := imbalancedGraph()
	caps := []float64{160, 140, 120, 100, 90, 80, 70, 60, 50, 45}

	pts, err := solver().SolveSweep(g, caps)
	if err != nil {
		t.Fatal(err)
	}
	sweepIters, coldIters := 0, 0
	for i, pt := range pts {
		if pt.Err != nil {
			t.Fatalf("cap %v: %v", pt.CapW, pt.Err)
		}
		sweepIters += pt.Schedule.Stats.SimplexIter
		cold, err := solver().Solve(g, caps[i])
		if err != nil {
			t.Fatal(err)
		}
		coldIters += cold.Stats.SimplexIter
	}
	if sweepIters >= coldIters {
		t.Fatalf("warm sweep spent %d pivots, cold solves %d — warm starting saved nothing", sweepIters, coldIters)
	}
}

// TestSolveSweepCrashRetry: on a 4-rank synthetic trace (200 events, seed
// 7) the warm start from 45 W/socket's basis breaks down at 40 W/socket,
// and so does lp.Solve's cold rescue. The session then solves once more
// from the crash basis, as a fresh solve starts, so every cap is answered,
// the 40 W/socket point counts one rescue, and its makespan and objective
// are a fresh decomposed solve's bit for bit.
func TestSolveSweepCrashRetry(t *testing.T) {
	w := workloads.Synthetic(workloads.SynthParams{Ranks: 4, Events: 200, Seed: 7, WorkScale: 1})
	var caps []float64
	for per := 70.0; per >= 40; per -= 5 {
		caps = append(caps, per*float64(w.Graph.NumRanks))
	}
	pts, err := NewSolver(machine.Default(), w.EffScale).SolveSweep(w.Graph, caps)
	if err != nil {
		t.Fatal(err)
	}
	for _, pt := range pts {
		if pt.Err != nil {
			t.Fatalf("cap %v: %v", pt.CapW, pt.Err)
		}
	}
	last := pts[len(pts)-1]
	if last.Stats.Rescues != 1 {
		t.Errorf("cap %v: %d rescues, want the one crash retry", last.CapW, last.Stats.Rescues)
	}
	fresh, err := NewSolver(machine.Default(), w.EffScale).SolveIterations(w.Graph, last.CapW)
	if err != nil {
		t.Fatal(err)
	}
	if !sameFloat(last.Schedule.MakespanS, fresh.MakespanS) || !sameFloat(last.Schedule.Objective, fresh.Objective) {
		t.Errorf("cap %v: makespan %v objective %v, fresh solve %v %v",
			last.CapW, last.Schedule.MakespanS, last.Schedule.Objective, fresh.MakespanS, fresh.Objective)
	}
}

// TestErrInfeasibleWrapsLP: the layered sentinels must chain so callers can
// match at whichever level they know about.
func TestErrInfeasibleWrapsLP(t *testing.T) {
	if !errors.Is(ErrInfeasible, lp.ErrInfeasible) {
		t.Fatal("core.ErrInfeasible does not wrap lp.ErrInfeasible")
	}
	_, err := solver().Solve(imbalancedGraph(), 15)
	if !errors.Is(err, ErrInfeasible) {
		t.Fatalf("want core.ErrInfeasible chain, got %v", err)
	}
	if !errors.Is(err, lp.ErrInfeasible) {
		t.Fatalf("want lp.ErrInfeasible chain, got %v", err)
	}
}
