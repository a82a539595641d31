package core_test

import (
	"context"
	"errors"
	"math"
	"reflect"
	"testing"

	"powercap/internal/core"
	"powercap/internal/dag"
	"powercap/internal/machine"
	"powercap/internal/market"
	"powercap/internal/workloads"
)

// unevenGraph is a 2-rank job whose slices' floors differ: in iteration 0
// only rank 0 computes, so that slice's floor is below the others'.
func unevenGraph() *dag.Graph {
	bld := dag.NewBuilder(2)
	for iter, ranks := range [][]int{{0, 1}, {0}, {0, 1}} {
		for _, r := range ranks {
			bld.Compute(r, 0.05*float64(1+iter+r), machine.DefaultShape(), "phase")
		}
		bld.Pcontrol()
	}
	bld.Compute(1, 0.02, machine.DefaultShape(), "tail")
	return bld.Finalize()
}

// TestJobWalkMatchesWholeGraph pins the job walk, one walk per iteration
// slice in lock step, to the whole-graph LP it decomposes. On het-4mix
// draws at three seeds, each job's closed-form FloorW equals the whole
// graph's CapSession.FloorW bit for bit; the market split over the job
// walks grants the demands and caps the split over whole-graph walks does,
// within 1e-9 relative, at budgets from 5% to 120% of the floor-to-demand
// span; every schedule is read off its walk (one walk per job, no fallback
// solve) and its objective matches a whole-graph SolveAt at its cap within
// 1e-9 relative (above the demand, on the flat top, with a zero shadow
// price); and at each granted cap every slice's capture passes lp.Certify. On a graph whose slices' floors differ, the job's floor is
// still the whole graph's and its schedule's objective the whole graph's
// at its cap. On a graph without Pcontrol boundaries, a job of one slice,
// the job walk is the whole-graph walk bit for bit: every piece, the
// values along it, the captured schedules and the market's split.
func TestJobWalkMatchesWholeGraph(t *testing.T) {
	ctx := context.Background()
	rel := func(a, b float64) float64 { return math.Abs(a-b) / math.Max(1, math.Abs(b)) }
	for seed := int64(1); seed <= 3; seed++ {
		mix, err := workloads.Mix("het-4mix", workloads.Params{Ranks: 2, Iterations: 3, Seed: seed, WorkScale: 0.3})
		if err != nil {
			t.Fatal(err)
		}
		var sliced, whole []market.Job
		var probes []*core.CapSession
		for _, m := range mix {
			s := core.NewSolver(machine.Default(), m.Workload.EffScale)
			js, err := s.NewJobSession(ctx, m.Workload.Graph)
			if err != nil {
				t.Fatal(err)
			}
			cs, err := s.NewCapSession(ctx, m.Workload.Graph)
			if err != nil {
				t.Fatal(err)
			}
			probe, err := s.NewCapSession(ctx, m.Workload.Graph)
			if err != nil {
				t.Fatal(err)
			}
			if js.FloorW() != cs.FloorW() {
				t.Errorf("seed %d, %s: job floor %v W, whole graph %v W", seed, m.Name, js.FloorW(), cs.FloorW())
			}
			sliced = append(sliced, market.Job{Name: m.Name, Session: js})
			whole = append(whole, market.Job{Name: m.Name, Session: core.WholeJob(m.Workload.Graph, cs)})
			probes = append(probes, probe)
		}
		top, err := market.Allocate(ctx, whole, 1e6, market.Options{})
		if err != nil {
			t.Fatal(err)
		}
		var floorSum, demandSum float64
		for _, ja := range top.Jobs {
			floorSum += ja.FloorW
			demandSum += ja.DemandW
		}
		for _, f := range []float64{0.05, 0.4, 0.9, 1.2} {
			budget := floorSum + f*(demandSum-floorSum)
			got, err := market.Allocate(ctx, sliced, budget, market.Options{})
			if err != nil {
				t.Fatal(err)
			}
			want, err := market.Allocate(ctx, whole, budget, market.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if got.Solves != len(sliced) {
				t.Errorf("seed %d at %.0f%%: %d solves, want one walk per job", seed, 100*f, got.Solves)
			}
			for i, ja := range got.Jobs {
				wa := want.Jobs[i]
				if ja.Degraded || ja.Schedule == nil {
					t.Fatalf("seed %d at %.0f%%: job %s degraded: %s", seed, 100*f, ja.Name, ja.Reason)
				}
				if ja.FloorW != wa.FloorW || rel(ja.DemandW, wa.DemandW) > 1e-9 || rel(ja.CapW, wa.CapW) > 1e-9 {
					t.Errorf("seed %d at %.0f%%: job %s floor %v, demand %.12g, cap %.12g W; whole graph %v, %.12g, %.12g W",
						seed, 100*f, ja.Name, ja.FloorW, ja.DemandW, ja.CapW, wa.FloorW, wa.DemandW, wa.CapW)
				}
				if f > 1 && ja.MarginalSecPerW != 0 {
					// Above its demand a job's schedule is read on the flat
					// top, where no power row binds.
					t.Errorf("seed %d at %.0f%%: job %s above its demand has shadow price %g s/W", seed, 100*f, ja.Name, ja.MarginalSecPerW)
				}
				point, err := probes[i].SolveAt(ctx, ja.CapW)
				if err != nil {
					t.Fatal(err)
				}
				if rel(ja.Schedule.Objective, point.Objective) > 1e-9 {
					t.Errorf("seed %d at %.0f%%: job %s objective %.12g, whole-graph solve %.12g at %.6f W",
						seed, 100*f, ja.Name, ja.Schedule.Objective, point.Objective, ja.CapW)
				}
				w, err := sliced[i].Session.Walk(ctx)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := w.Demand(ctx); err != nil {
					t.Fatal(err)
				}
				if err := w.Lower(ctx, ja.CapW); err != nil {
					t.Fatal(err)
				}
				if err := core.CertifySlices(ctx, w); err != nil {
					t.Errorf("seed %d at %.0f%%: job %s: %v", seed, 100*f, ja.Name, err)
				}
				w.Close()
			}
			if rel(got.TotalMakespanS, want.TotalMakespanS) > 1e-9 {
				t.Errorf("seed %d at %.0f%%: total makespan %.12g s, whole graph %.12g s", seed, 100*f, got.TotalMakespanS, want.TotalMakespanS)
			}
		}
	}

	// Slices with different floors: the job's floor is their maximum.
	uneven := unevenGraph()
	s := core.NewSolver(machine.Default(), nil)
	slices, err := dag.SliceAll(uneven)
	if err != nil {
		t.Fatal(err)
	}
	floors := map[float64]bool{}
	for _, sl := range slices {
		cs, err := s.NewCapSession(ctx, sl.Graph)
		if err != nil {
			t.Fatal(err)
		}
		floors[cs.FloorW()] = true
	}
	js, err := s.NewJobSession(ctx, uneven)
	if err != nil {
		t.Fatal(err)
	}
	cs, err := s.NewCapSession(ctx, uneven)
	if err != nil {
		t.Fatal(err)
	}
	if len(floors) < 2 || js.FloorW() != cs.FloorW() {
		t.Errorf("uneven slices: job floor %v W, whole graph %v W, slice floors %v", js.FloorW(), cs.FloorW(), floors)
	}
	got, err := market.Allocate(ctx, []market.Job{{Name: "uneven", Session: js}}, cs.FloorW()+30, market.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := cs.SolveAt(ctx, got.Jobs[0].CapW)
	if err != nil {
		t.Fatal(err)
	}
	if ja := got.Jobs[0]; ja.Degraded || rel(ja.Schedule.Objective, want.Objective) > 1e-9 {
		t.Errorf("uneven slices at %.6f W: objective %.12g (%s), whole-graph solve %.12g", ja.CapW, ja.Schedule.Objective, ja.Reason, want.Objective)
	}

	// A graph without Pcontrol boundaries.
	wl := workloads.Synthetic(workloads.SynthParams{Ranks: 2, Events: 120, Seed: 3, WorkScale: 0.3})
	g := wl.Graph
	if g.Iterations() != -1 {
		t.Fatalf("synthetic graph has %d iterations, want no Pcontrol boundary", g.Iterations())
	}
	s = core.NewSolver(machine.Default(), wl.EffScale)
	if js, err = s.NewJobSession(ctx, g); err != nil {
		t.Fatal(err)
	}
	if cs, err = s.NewCapSession(ctx, g); err != nil {
		t.Fatal(err)
	}
	wj := core.WholeJob(g, cs)
	if js.FloorW() != cs.FloorW() {
		t.Fatalf("one-slice job floor %v W, whole graph %v W", js.FloorW(), cs.FloorW())
	}
	jw, err := js.Walk(ctx)
	if err != nil {
		t.Fatal(err)
	}
	ww, err := wj.Walk(ctx)
	if err != nil {
		t.Fatal(err)
	}
	d1, err := jw.Demand(ctx)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := ww.Demand(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if d1 != d2 {
		t.Fatalf("one-slice job demand %v W, whole graph %v W", d1, d2)
	}
	for step := 0; ; step++ {
		lo1, s1, err := jw.Piece(ctx)
		if err != nil {
			t.Fatal(err)
		}
		lo2, s2, err := ww.Piece(ctx)
		if err != nil {
			t.Fatal(err)
		}
		o1, m1, v1 := jw.At()
		o2, m2, v2 := ww.At()
		if lo1 != lo2 || s1 != s2 || jw.CapW() != ww.CapW() || o1 != o2 || m1 != m2 || v1 != v2 {
			t.Fatalf("step %d: one-slice job at %v W piece (%v, %v) values (%v, %v, %v); whole graph at %v W (%v, %v) (%v, %v, %v)",
				step, jw.CapW(), lo1, s1, o1, m1, v1, ww.CapW(), lo2, s2, o2, m2, v2)
		}
		if step%7 == 0 {
			a, err := jw.Schedule(ctx)
			if err != nil {
				t.Fatal(err)
			}
			b, err := ww.Schedule(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if a.Objective != b.Objective || a.MakespanS != b.MakespanS || a.MarginalSecPerW != b.MarginalSecPerW {
				t.Fatalf("step %d at %v W: one-slice job schedule (%v, %v, %v), whole graph (%v, %v, %v)",
					step, jw.CapW(), a.Objective, a.MakespanS, a.MarginalSecPerW, b.Objective, b.MakespanS, b.MarginalSecPerW)
			}
		}
		if lo1 >= jw.CapW() {
			break
		}
		if err := jw.Lower(ctx, lo1); err != nil {
			t.Fatal(err)
		}
		if err := ww.Lower(ctx, lo2); err != nil {
			t.Fatal(err)
		}
	}
	jw.Close()
	ww.Close()
	budget := js.FloorW() + 0.4*(d1-js.FloorW())
	a, err := market.Allocate(ctx, []market.Job{{Name: "zipf", Session: js}}, budget, market.Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := market.Allocate(ctx, []market.Job{{Name: "zipf", Session: wj}}, budget, market.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ja, jb := a.Jobs[0], b.Jobs[0]
	if ja.CapW != jb.CapW || ja.DemandW != jb.DemandW || ja.MakespanS != jb.MakespanS || ja.MarginalSecPerW != jb.MarginalSecPerW ||
		ja.Schedule.Objective != jb.Schedule.Objective || a.Iterations != b.Iterations {
		t.Errorf("one-slice job split %+v in %d steps, whole graph %+v in %d", ja, a.Iterations, jb, b.Iterations)
	}
}

// TestSolveSweepBetweenSliceFloors: a cap between two slices' floors is
// below the job's floor, so the sweep answers it before any slice runs:
// ErrInfeasible naming the first slice whose floor binds, as a decomposed
// solve does, with no effort. No slice's basis moves there, so the next
// cap's answer is, bit for bit, that of the same sweep without the cap.
// In unevenGraph the first slice has the higher floor; in TwoFloorGraph
// the first two have the lower one, so their LPs would run at that cap
// unless the floor stops the solve first.
func TestSolveSweepBetweenSliceFloors(t *testing.T) {
	ctx := context.Background()
	for name, g := range map[string]*dag.Graph{"uneven": unevenGraph(), "two-floor": core.TwoFloorGraph()} {
		slices, err := dag.SliceAll(g)
		if err != nil {
			t.Fatal(err)
		}
		s := core.NewSolver(machine.Default(), nil)
		var floors []float64
		for _, sl := range slices {
			cs, err := s.NewCapSession(ctx, sl.Graph)
			if err != nil {
				t.Fatal(err)
			}
			floors = append(floors, cs.FloorW())
		}
		lo, hi := floors[0], floors[0]
		for _, f := range floors {
			lo, hi = math.Min(lo, f), math.Max(hi, f)
		}
		if lo == hi {
			t.Fatalf("%s: slice floors %v all equal", name, floors)
		}
		between := (lo + hi) / 2
		_, want := s.SolveIterations(g, between)
		if !errors.Is(want, core.ErrInfeasible) {
			t.Fatalf("%s: decomposed solve at %.3f W: %v, want infeasible", name, between, want)
		}

		caps := []float64{hi + 40, between, hi + 10}
		with, err := core.NewSolver(machine.Default(), nil).SolveSweep(g, caps)
		if err != nil {
			t.Fatal(err)
		}
		without, err := core.NewSolver(machine.Default(), nil).SolveSweep(g, []float64{caps[0], caps[2]})
		if err != nil {
			t.Fatal(err)
		}
		if pt := with[1]; pt.Err == nil || pt.Err.Error() != want.Error() || pt.Schedule != nil || pt.Stats != (core.Stats{}) {
			t.Fatalf("%s: cap %.3f W between the slice floors %v: err %v, effort %+v; want %q and no effort",
				name, between, floors, pt.Err, pt.Stats, want)
		}
		bits := math.Float64bits
		for i, j := range []int{0, 2} {
			a, b := with[j], without[i]
			if a.Err != nil || b.Err != nil {
				t.Fatalf("%s: cap %v: %v, without the infeasible cap %v", name, a.CapW, a.Err, b.Err)
			}
			sa, sb := a.Schedule, b.Schedule
			if a.Stats != b.Stats || bits(sa.MakespanS) != bits(sb.MakespanS) || bits(sa.Objective) != bits(sb.Objective) ||
				bits(sa.MarginalSecPerW) != bits(sb.MarginalSecPerW) || !reflect.DeepEqual(sa.Choices, sb.Choices) {
				t.Errorf("%s: cap %v: makespan %v objective %v effort %+v; without the infeasible cap %v %v %+v",
					name, a.CapW, sa.MakespanS, sa.Objective, a.Stats, sb.MakespanS, sb.Objective, b.Stats)
			}
		}
	}
}
