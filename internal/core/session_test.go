package core

import (
	"context"
	"errors"
	"math"
	"slices"
	"strings"
	"testing"

	"powercap/internal/dag"
	"powercap/internal/lp"
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

// curve is a job's power–time curve as its walk reports it, recorded
// piece by piece: the breakpoints in increasing cap, from where the walk
// ends, the job's floor, up to the saturating cap it opens at. Above the
// last point the curve is flat; below the floor the LP is infeasible.
type curve struct {
	// floorW is the walk's end, and demandW the highest breakpoint below
	// which a piece's slope exceeds satEps in magnitude, as JobWalk.Demand
	// finds it.
	floorW, demandW float64
	pts             []curvePoint
}

// curvePoint is one breakpoint of a recorded curve.
type curvePoint struct {
	// capW is the cap, objective and makespanS the values the walk reports
	// there; both are linear between neighbouring points.
	capW, objective, makespanS float64
	// slope is d objective / d cap on the piece from this point up to the
	// next (≤ 0; 0 at the last point and above the demand).
	slope float64
}

// recordCurve opens a walk of js and lowers it to its end, one piece at a
// time (Piece, Lower), recording each breakpoint's values as the walk
// reaches it (At). The walk counts as one solve per slice in js's Stats.
func recordCurve(t *testing.T, ctx context.Context, js *JobSession) *curve {
	t.Helper()
	w, err := js.Walk(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	obj, mk, _ := w.At()
	pts := []curvePoint{{capW: w.CapW(), objective: obj, makespanS: mk}}
	for {
		lo, slope, err := w.Piece(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if lo >= w.CapW() {
			break
		}
		if err := w.Lower(ctx, lo); err != nil {
			t.Fatal(err)
		}
		obj, mk, _ := w.At()
		pts = append(pts, curvePoint{capW: w.CapW(), objective: obj, makespanS: mk, slope: slope})
	}
	slices.Reverse(pts)
	c := &curve{floorW: pts[0].capW, demandW: pts[0].capW, pts: pts}
	for k := len(pts) - 2; k >= 0; k-- {
		if math.Abs(pts[k].slope) > satEps {
			c.demandW = pts[k+1].capW
			break
		}
		pts[k].slope = 0
	}
	return c
}

// at evaluates the curve at capW: the objective and makespan there, and
// the slope of the piece above capW — the value of the next watt, 0 at or
// above the demand. ok is false below the floor.
func (c *curve) at(capW float64) (objective, makespanS, slope float64, ok bool) {
	if capW < c.floorW {
		return 0, 0, 0, false
	}
	pts := c.pts
	k := len(pts) - 1
	for k > 0 && pts[k].capW > capW {
		k--
	}
	p := pts[k]
	if k == len(pts)-1 {
		return p.objective, p.makespanS, 0, true
	}
	q := pts[k+1]
	u := (capW - p.capW) / (q.capW - p.capW)
	return p.objective + (capW-p.capW)*p.slope, p.makespanS + u*(q.makespanS-p.makespanS), p.slope, true
}

// jobKind is a job session under test, named in failure messages.
type jobKind struct {
	name string
	js   *JobSession
}

// jobKinds returns g's job session cut at its Pcontrol boundaries and the
// one-slice job of its whole graph, both on s.
func jobKinds(t *testing.T, ctx context.Context, s *Solver, g *dag.Graph) []jobKind {
	t.Helper()
	sliced, err := s.NewJobSession(ctx, g)
	if err != nil {
		t.Fatal(err)
	}
	cs, err := s.NewCapSession(ctx, g)
	if err != nil {
		t.Fatal(err)
	}
	return []jobKind{{"sliced", sliced}, {"whole", WholeJob(g, cs)}}
}

// The job walk reads the exact power–time curve. On the six workload
// proxies, on het-zipf's ill-conditioned synthetic job, and on het-4mix's
// seed-4 BT job (a zero-width piece near 148.3995 W), for the job cut at
// its Pcontrol boundaries and for its whole graph as one slice: the curve
// recorded off the walk is convex and flat above its demand, its floor is
// the exact feasibility edge, and at sampled caps its interpolated
// objective and makespan match whole-graph point solves within 1e-9
// relative and its slope equals the point solve's shadow price within 1e-9
// s/W.
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
			probe, err := s.NewCapSession(ctx, j.w.Graph)
			if err != nil {
				t.Fatal(err)
			}
			for _, kind := range jobKinds(t, ctx, s, j.w.Graph) {
				c := recordCurve(t, ctx, kind.js)
				if st := kind.js.Stats(); st.Solves != len(kind.js.cs) || st.DualIter == 0 {
					t.Errorf("%s: walk counted as %d solves with %d dual pivots, want one solve of dual pivots per slice (%d)",
						kind.name, st.Solves, st.DualIter, len(kind.js.cs))
				}
				pts := c.pts
				if len(pts) < 2 || pts[0].capW != c.floorW || c.demandW <= c.floorW || c.demandW > pts[len(pts)-1].capW {
					t.Fatalf("%s: floor %g, demand %g over %d points", kind.name, c.floorW, c.demandW, len(pts))
				}
				for k := 1; k < len(pts); k++ {
					a, b := pts[k-1], pts[k]
					if b.slope < a.slope-j.slopeTol {
						t.Errorf("%s: not convex at %g W: slope %g after %g", kind.name, b.capW, b.slope, a.slope)
					}
					if a.capW >= c.demandW && (a.slope != 0 || math.Abs(b.objective-a.objective) > j.tol*a.objective) {
						t.Errorf("%s: not flat above the demand %g W: piece at %g W has slope %g", kind.name, c.demandW, a.capW, a.slope)
					}
				}

				point := func(capW float64) (*Schedule, error) {
					return NewSolver(machine.Default(), j.w.EffScale).Solve(j.w.Graph, capW)
				}
				if _, err := point(c.floorW - 1e-6); !errors.Is(err, ErrInfeasible) {
					t.Errorf("%s: 1e-6 W below the floor %.9f W: got %v, want infeasible", kind.name, c.floorW, err)
				}
				if _, err := point(c.floorW + 1e-6); err != nil {
					t.Errorf("%s: 1e-6 W above the floor %.9f W: %v", kind.name, c.floorW, err)
				}

				// Midpoints of 24 pieces spread over the curve, on one warm
				// session, from the top down. A point solve inside a piece
				// narrower than 1e-9 relative may return either
				// neighbour's basis, so its shadow price has no 1e-9
				// reference: only wider pieces are sampled.
				var wide []int
				for k := len(pts) - 2; k >= 0; k-- {
					if pts[k+1].capW-pts[k].capW > 1e-9*pts[k+1].capW {
						wide = append(wide, k)
					}
				}
				var caps []float64
				for i := 0; i < len(wide); i += max(1, len(wide)/24) {
					k := wide[i]
					caps = append(caps, (pts[k].capW+pts[k+1].capW)/2)
				}
				if j.name == "het-4mix/bt-0" {
					caps = append(caps, 148.3995+1e-4, 148.3995-1e-4)
				}
				for _, capW := range caps {
					sched, err := probe.SolveAt(ctx, capW)
					if err != nil {
						t.Fatalf("point solve at %g W: %v", capW, err)
					}
					obj, mk, slope, ok := c.at(capW)
					if !ok {
						t.Fatalf("%s: curve says %g W is below its floor", kind.name, capW)
					}
					if math.Abs(obj-sched.Objective) > j.tol*sched.Objective {
						t.Errorf("%s, %g W: curve objective %.12g, point solve %.12g", kind.name, capW, obj, sched.Objective)
					}
					if math.Abs(mk-sched.MakespanS) > j.tol*sched.MakespanS {
						t.Errorf("%s, %g W: curve makespan %.12g, point solve %.12g", kind.name, capW, mk, sched.MakespanS)
					}
					if math.Abs(slope-sched.MarginalSecPerW) > j.slopeTol {
						t.Errorf("%s, %g W: curve slope %.12g, point solve shadow price %.12g", kind.name, capW, slope, sched.MarginalSecPerW)
					}
				}
			}
		})
	}
}

// walkedFloor walks cs's LP down from a saturating cap with no shift limit
// short of a zero cap (lp.OpenWalk to shift topW) until the LP turns
// infeasible, and returns the cap there, clipped at the largest draw of an
// event with only fixed draws (which has no power row): the feasibility
// floor the LP itself finds, apart from the closed form.
func walkedFloor(t *testing.T, cs *CapSession) float64 {
	t.Helper()
	topW := cs.saturatingW()
	if err := cs.aim(topW); err != nil {
		t.Fatal(err)
	}
	rows := make([]int, len(cs.b.powerRows))
	for i, pr := range cs.b.powerRows {
		rows[i] = pr.row
	}
	w, err := lp.OpenWalk(cs.b.prob, rows, nil, topW)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	for !w.Ended() {
		_, end, _ := w.Piece()
		w.Advance(end)
		if err := w.Cross(nil); err != nil {
			t.Fatal(err)
		}
	}
	if w.Status() != lp.Optimal || w.Shift() >= topW {
		t.Fatalf("walk ended at shift %g of %g with status %v, want the LP to turn infeasible", w.Shift(), topW, w.Status())
	}
	return math.Max(topW-w.Shift(), cs.b.floor.fixedW)
}

// The closed-form floor is the walked one: on the six proxies at seeds 1–4
// it matches the floor a walk of the LP finds (walkedFloor) within 1e-9 W,
// the LP is optimal at it, and 1e-6 W below it SolveAt answers infeasible
// from the closed form alone — no LP effort — naming the binding event's
// power row.
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
			walked := walkedFloor(t, cs)
			floor := cs.FloorW()
			if math.Abs(walked-floor) > 1e-9 {
				t.Errorf("%s/%d: closed-form floor %.12g W, walked %.12g W", name, seed, floor, walked)
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
// SP and BT, for the job cut at its Pcontrol boundaries and for its whole
// graph as one slice, the walk's demand is the recorded curve's; at the
// demand the schedule is read on the flat top, with a zero shadow price,
// and stays optimal above it; and lowered on down, at caps spread to the
// floor, each captured schedule (certified by Schedule itself) matches a
// whole-graph SolveAt's objective and the curve's makespan within 1e-9
// relative and the curve's slope as its shadow price. The walk counts as
// one solve per slice.
func TestCapSessionWalk(t *testing.T) {
	ctx := context.Background()
	p := workloads.Params{Ranks: 4, Iterations: 3, Seed: 2, WorkScale: 0.3}
	for _, w := range []*workloads.Workload{workloads.SP(p), workloads.BT(p)} {
		s := NewSolver(machine.Default(), w.EffScale)
		probe, err := s.NewCapSession(ctx, w.Graph)
		if err != nil {
			t.Fatal(err)
		}
		recorded := jobKinds(t, ctx, s, w.Graph)
		for i, kind := range jobKinds(t, ctx, s, w.Graph) {
			name := w.Name + "/" + kind.name
			c := recordCurve(t, ctx, recorded[i].js)
			walk, err := kind.js.Walk(ctx)
			if err != nil {
				t.Fatal(err)
			}
			demand, err := walk.Demand(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(demand-c.demandW) > 1e-9*demand {
				t.Errorf("%s: walked demand %.12g W, curve %.12g W", name, demand, c.demandW)
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
					name, top.MarginalSecPerW, top.Objective, above.Objective)
			}
			for k := 1; k <= 6; k++ {
				capW := demand - (demand-c.floorW)*float64(k)/6.5
				if err := walk.Lower(ctx, capW); err != nil {
					t.Fatal(err)
				}
				if math.Abs(walk.CapW()-capW) > 1e-9 {
					t.Fatalf("%s: lowered to %.12g W, asked for %.12g W", name, walk.CapW(), capW)
				}
				got, err := walk.Schedule(ctx)
				if err != nil {
					t.Fatalf("%s at %g W: %v", name, capW, err)
				}
				want, err := probe.SolveAt(ctx, capW)
				if err != nil {
					t.Fatal(err)
				}
				_, mk, slope, _ := c.at(capW)
				if math.Abs(got.Objective-want.Objective) > 1e-9*want.Objective || math.Abs(got.MakespanS-mk) > 1e-9*mk {
					t.Errorf("%s at %g W: captured objective %.12g, makespan %.12g; point solve %.12g, curve makespan %.12g",
						name, capW, got.Objective, got.MakespanS, want.Objective, mk)
				}
				if math.Abs(got.MarginalSecPerW-slope) > 1e-9 {
					t.Errorf("%s at %g W: captured shadow price %.12g, curve slope %.12g", name, capW, got.MarginalSecPerW, slope)
				}
			}
			walk.Close()
			if st := kind.js.Stats(); st.Solves != len(kind.js.cs) || st.DualIter == 0 {
				t.Errorf("%s: walk counted as %d solves with %d dual pivots, want one solve of dual pivots per slice (%d)",
					name, st.Solves, st.DualIter, len(kind.js.cs))
			}
		}
	}
}
