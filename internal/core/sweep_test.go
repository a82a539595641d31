package core

import (
	"errors"
	"math"
	"testing"

	"powercap/internal/lp"
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
	warm := 0
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
		warm += pt.Schedule.Stats.WarmStarts
	}
	if warm == 0 {
		t.Fatal("no sweep point warm started; basis handoff broken")
	}
}

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
