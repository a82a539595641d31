package core

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"

	"powercap/internal/machine"
	"powercap/internal/workloads"
)

// A CapSession must reproduce fresh whole-graph solves exactly: same
// objective (1e-9 relative) and same shadow price at every cap, in any
// probing order, while actually reusing its basis.
func TestCapSessionMatchesFreshSolves(t *testing.T) {
	w := workloads.BT(workloads.Params{Ranks: 4, Iterations: 3, Seed: 3, WorkScale: 0.3})
	s := NewSolver(machine.Default(), w.EffScale)
	cs, err := s.NewCapSession(context.Background(), w.Graph)
	if err != nil {
		t.Fatal(err)
	}

	// Deliberately non-monotone cap order: the market probes adaptively.
	caps := []float64{200, 130, 170, 110, 240, 120}
	fresh := NewSolver(machine.Default(), w.EffScale)
	for _, capW := range caps {
		got, err := cs.SolveAt(context.Background(), capW)
		want, werr := fresh.Solve(w.Graph, capW)
		if (err == nil) != (werr == nil) {
			t.Fatalf("cap %.0f: session err=%v fresh err=%v", capW, err, werr)
		}
		if err != nil {
			if !errors.Is(err, ErrInfeasible) {
				t.Fatalf("cap %.0f: %v", capW, err)
			}
			continue
		}
		if rel := math.Abs(got.MakespanS-want.MakespanS) / want.MakespanS; rel > 1e-9 {
			t.Errorf("cap %.0f: session makespan %.12f vs fresh %.12f (rel %.2e)",
				capW, got.MakespanS, want.MakespanS, rel)
		}
		if d := math.Abs(got.MarginalSecPerW - want.MarginalSecPerW); d > 1e-7 {
			t.Errorf("cap %.0f: session marginal %.10f vs fresh %.10f", capW, got.MarginalSecPerW, want.MarginalSecPerW)
		}
	}
	// The first probe starts from the crash basis with no dual pivots;
	// dual pivots show the later probes repairing the session's basis.
	if cs.Stats().DualIter == 0 {
		t.Errorf("session never repaired its basis with dual pivots across %d solves", len(caps))
	}
}

// Infeasible probes must surface ErrInfeasible without poisoning the
// session: a feasible cap afterwards still solves correctly.
func TestCapSessionInfeasibleRecovery(t *testing.T) {
	w := workloads.SP(workloads.Params{Ranks: 4, Iterations: 3, Seed: 1, WorkScale: 0.3})
	s := NewSolver(machine.Default(), w.EffScale)
	cs, err := s.NewCapSession(context.Background(), w.Graph)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cs.SolveAt(context.Background(), 200); err != nil {
		t.Fatalf("feasible cap: %v", err)
	}
	if _, err := cs.SolveAt(context.Background(), 1); !errors.Is(err, ErrInfeasible) {
		t.Fatalf("cap 1 W: got %v, want ErrInfeasible", err)
	}
	got, err := cs.SolveAt(context.Background(), 200)
	if err != nil {
		t.Fatalf("post-infeasible solve: %v", err)
	}
	want, err := NewSolver(machine.Default(), w.EffScale).Solve(w.Graph, 200)
	if err != nil {
		t.Fatal(err)
	}
	if rel := math.Abs(got.MakespanS-want.MakespanS) / want.MakespanS; rel > 1e-9 {
		t.Errorf("post-infeasible makespan %.12f vs fresh %.12f", got.MakespanS, want.MakespanS)
	}
}

// Cancellation inside a session solve must wrap the context error.
func TestCapSessionCancel(t *testing.T) {
	w := workloads.BT(workloads.Params{Ranks: 8, Iterations: 4, Seed: 1, WorkScale: 1})
	s := NewSolver(machine.Default(), w.EffScale)
	cs, err := s.NewCapSession(context.Background(), w.Graph)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := cs.SolveAt(ctx, 300); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled solve: got %v, want context.Canceled in chain", err)
	}
}

// Curve is the exact power–time curve. On the six workload proxies, on
// het-zipf's ill-conditioned synthetic job, and
// on het-4mix's seed-4 BT job (a zero-width piece near 148.3995 W): the
// curve is convex and flat above its demand, its floor is the exact
// feasibility edge, and at sampled caps its interpolated objective and
// makespan match point solves within 1e-9 relative and its slope equals
// the point solve's shadow price within 1e-9 s/W.
//
// The synthetic job is the exception in tolerance only. Its matrix spreads
// row norms by 2^18, and point solves of it disagree among themselves: at
// a saturating 288.7 W, solves scaled, unscaled and (before it was
// retired) through presolve returned objectives 5.7e-9 relative apart. It
// is held to 1e-8 relative, and its slopes to 1e-7 s/W.
func TestCapSessionCurve(t *testing.T) {
	p := workloads.Params{Ranks: 4, Iterations: 3, Seed: 2, WorkScale: 0.3}
	type job struct {
		name          string
		w             *workloads.Workload
		tol, slopeTol float64
	}
	var jobs []job
	for _, name := range workloads.Names() {
		w, err := workloads.ByName(name, p)
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, job{name, w, 1e-9, 1e-9})
	}
	zipf, err := workloads.Mix("het-zipf", p)
	if err != nil {
		t.Fatal(err)
	}
	jobs = append(jobs, job{"het-zipf/zipf-0", zipf[2].Workload, 1e-8, 1e-7})
	mix4, err := workloads.Mix("het-4mix", workloads.Params{Ranks: 4, Iterations: 3, Seed: 4, WorkScale: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	jobs = append(jobs, job{"het-4mix/bt-0", mix4[1].Workload, 1e-9, 1e-9})

	for _, j := range jobs {
		t.Run(j.name, func(t *testing.T) {
			ctx := context.Background()
			s := NewSolver(machine.Default(), j.w.EffScale)
			cs, err := s.NewCapSession(ctx, j.w.Graph)
			if err != nil {
				t.Fatal(err)
			}
			c, err := cs.Curve(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if st := cs.Stats(); st.Solves != 1 || st.DualIter == 0 {
				t.Errorf("walk counted as %d solves with %d dual pivots, want 1 solve of dual pivots", st.Solves, st.DualIter)
			}
			pts := c.Points
			if len(pts) < 2 || pts[0].CapW != c.FloorW || c.DemandW <= c.FloorW || c.DemandW > pts[len(pts)-1].CapW {
				t.Fatalf("floor %g, demand %g over %d points", c.FloorW, c.DemandW, len(pts))
			}
			for k := 1; k < len(pts); k++ {
				a, b := pts[k-1], pts[k]
				if b.CapW-a.CapW <= 1e-9*b.CapW {
					t.Errorf("zero-width piece [%.12g, %.12g] W kept", a.CapW, b.CapW)
				}
				if b.SlopeSecPerW < a.SlopeSecPerW-j.slopeTol {
					t.Errorf("not convex at %g W: slope %g after %g", b.CapW, b.SlopeSecPerW, a.SlopeSecPerW)
				}
				if a.CapW >= c.DemandW && (a.SlopeSecPerW != 0 || math.Abs(b.Objective-a.Objective) > j.tol*a.Objective) {
					t.Errorf("not flat above the demand %g W: piece at %g W has slope %g", c.DemandW, a.CapW, a.SlopeSecPerW)
				}
			}

			point := func(capW float64) (*Schedule, error) {
				return NewSolver(machine.Default(), j.w.EffScale).Solve(j.w.Graph, capW)
			}
			if _, err := point(c.FloorW - 1e-6); !errors.Is(err, ErrInfeasible) {
				t.Errorf("1e-6 W below the floor %.9f W: got %v, want infeasible", c.FloorW, err)
			}
			if _, err := point(c.FloorW + 1e-6); err != nil {
				t.Errorf("1e-6 W above the floor %.9f W: %v", c.FloorW, err)
			}

			// Midpoints of 24 pieces spread over the curve, on one warm
			// session, from the top down.
			var caps []float64
			step := max(1, (len(pts)-1)/24)
			for k := len(pts) - 2; k >= 0; k -= step {
				caps = append(caps, (pts[k].CapW+pts[k+1].CapW)/2)
			}
			if j.name == "het-4mix/bt-0" {
				caps = append(caps, 148.3995+1e-4, 148.3995-1e-4)
			}
			probe, err := s.NewCapSession(ctx, j.w.Graph)
			if err != nil {
				t.Fatal(err)
			}
			for _, capW := range caps {
				sched, err := probe.SolveAt(ctx, capW)
				if err != nil {
					t.Fatalf("point solve at %g W: %v", capW, err)
				}
				obj, mk, slope, ok := c.At(capW)
				if !ok {
					t.Fatalf("curve says %g W is below its floor", capW)
				}
				if math.Abs(obj-sched.Objective) > j.tol*sched.Objective {
					t.Errorf("%g W: curve objective %.12g, point solve %.12g", capW, obj, sched.Objective)
				}
				if math.Abs(mk-sched.MakespanS) > j.tol*sched.MakespanS {
					t.Errorf("%g W: curve makespan %.12g, point solve %.12g", capW, mk, sched.MakespanS)
				}
				if math.Abs(slope-sched.MarginalSecPerW) > j.slopeTol {
					t.Errorf("%g W: curve slope %.12g, point solve shadow price %.12g", capW, slope, sched.MarginalSecPerW)
				}
			}
		})
	}
}

// The closed-form floor is the walked one: on the six proxies at seeds 1–4
// it matches Curve.FloorW within 1e-9 W, the LP is optimal at it, and
// 1e-6 W below it SolveAt answers infeasible from the closed form alone —
// no LP effort — naming the binding event's power row.
func TestFloorClosedForm(t *testing.T) {
	ctx := context.Background()
	for _, name := range workloads.Names() {
		for seed := int64(1); seed <= 4; seed++ {
			w, err := workloads.ByName(name, workloads.Params{Ranks: 4, Iterations: 3, Seed: seed, WorkScale: 0.3})
			if err != nil {
				t.Fatal(err)
			}
			cs, err := NewSolver(machine.Default(), w.EffScale).NewCapSession(ctx, w.Graph)
			if err != nil {
				t.Fatal(err)
			}
			c, err := cs.Curve(ctx)
			if err != nil {
				t.Fatal(err)
			}
			floor := cs.FloorW()
			if math.Abs(c.FloorW-floor) > 1e-9 {
				t.Errorf("%s/%d: closed-form floor %.12g W, walked %.12g W", name, seed, floor, c.FloorW)
			}
			if _, err := cs.SolveAt(ctx, floor); err != nil {
				t.Errorf("%s/%d: at the floor %.12g W: %v", name, seed, floor, err)
			}
			_, err = cs.SolveAt(ctx, floor-1e-6)
			if !errors.Is(err, ErrInfeasible) || !strings.Contains(err.Error(), "power row pow") {
				t.Errorf("%s/%d: 1e-6 W below the floor: got %v, want ErrInfeasible naming a power row", name, seed, err)
			}
			if cs.last != (Stats{}) {
				t.Errorf("%s/%d: below-floor answer cost %+v, want no LP effort", name, seed, cs.last)
			}
		}
	}
}

// A walk lowered to a cap reads the schedule a point solve finds there. On
// SP and BT the walk's demand is the curve's; at the demand the schedule is
// read on the flat top, with a zero shadow price, and stays optimal above
// it; and lowered on down, at caps spread to the floor, each captured
// schedule (certified by Schedule itself) matches a fresh SolveAt's
// objective and makespan within 1e-9 relative and the curve's slope as its
// shadow price. The walk counts as one solve.
func TestCapSessionWalk(t *testing.T) {
	ctx := context.Background()
	p := workloads.Params{Ranks: 4, Iterations: 3, Seed: 2, WorkScale: 0.3}
	for _, w := range []*workloads.Workload{workloads.SP(p), workloads.BT(p)} {
		s := NewSolver(machine.Default(), w.EffScale)
		cs, err := s.NewCapSession(ctx, w.Graph)
		if err != nil {
			t.Fatal(err)
		}
		probe, err := s.NewCapSession(ctx, w.Graph)
		if err != nil {
			t.Fatal(err)
		}
		c, err := probe.Curve(ctx)
		if err != nil {
			t.Fatal(err)
		}
		walk, err := WholeJob(w.Graph, cs).Walk(ctx)
		if err != nil {
			t.Fatal(err)
		}
		demand, err := walk.Demand(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(demand-c.DemandW) > 1e-9*demand {
			t.Errorf("%s: walked demand %.12g W, curve %.12g W", w.Name, demand, c.DemandW)
		}
		top, err := walk.Schedule(ctx)
		if err != nil {
			t.Fatal(err)
		}
		above, err := probe.SolveAt(ctx, demand+10)
		if err != nil {
			t.Fatal(err)
		}
		if top.MarginalSecPerW != 0 || math.Abs(top.Objective-above.Objective) > 1e-9*above.Objective {
			t.Errorf("%s: at the demand, shadow price %g and objective %.12g; 10 W above, objective %.12g",
				w.Name, top.MarginalSecPerW, top.Objective, above.Objective)
		}
		for k := 1; k <= 6; k++ {
			capW := demand - (demand-c.FloorW)*float64(k)/6.5
			if err := walk.Lower(ctx, capW); err != nil {
				t.Fatal(err)
			}
			if math.Abs(walk.CapW()-capW) > 1e-9 {
				t.Fatalf("%s: lowered to %.12g W, asked for %.12g W", w.Name, walk.CapW(), capW)
			}
			got, err := walk.Schedule(ctx)
			if err != nil {
				t.Fatalf("%s at %g W: %v", w.Name, capW, err)
			}
			want, err := probe.SolveAt(ctx, capW)
			if err != nil {
				t.Fatal(err)
			}
			_, mk, slope, _ := c.At(capW)
			if math.Abs(got.Objective-want.Objective) > 1e-9*want.Objective || math.Abs(got.MakespanS-mk) > 1e-9*mk {
				t.Errorf("%s at %g W: captured objective %.12g, makespan %.12g; point solve %.12g, curve makespan %.12g",
					w.Name, capW, got.Objective, got.MakespanS, want.Objective, mk)
			}
			if math.Abs(got.MarginalSecPerW-slope) > 1e-9 {
				t.Errorf("%s at %g W: captured shadow price %.12g, curve slope %.12g", w.Name, capW, got.MarginalSecPerW, slope)
			}
		}
		walk.Close()
		if st := cs.Stats(); st.Solves != 1 || st.DualIter == 0 {
			t.Errorf("%s: walk counted as %d solves with %d dual pivots, want one solve of dual pivots", w.Name, st.Solves, st.DualIter)
		}
	}
}
