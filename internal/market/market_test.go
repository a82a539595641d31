package market

import (
	"context"
	"errors"
	"math"
	"slices"
	"strings"
	"testing"
	"time"

	"powercap/internal/core"
	"powercap/internal/dag"
	"powercap/internal/lp"
	"powercap/internal/machine"
	"powercap/internal/problem"
	"powercap/internal/workloads"
)

func job(t *testing.T, name string, w *workloads.Workload) Job {
	t.Helper()
	s := core.NewSolver(machine.Default(), w.EffScale)
	js, err := s.NewJobSession(context.Background(), w.Graph)
	if err != nil {
		t.Fatalf("session for %s: %v", name, err)
	}
	return Job{Name: name, Session: js}
}

// curve is a job's power–time curve recorded off a walk of its own
// session, the oracle the allocator's split is checked against: the
// breakpoints in increasing cap, from the walk's end, the job's floor, up
// to the saturating cap it opens at. Above the last point the curve is
// flat; below the floor the LP is infeasible.
type curve struct {
	// floorW is the walk's end, and demandW the highest breakpoint below
	// which a piece's slope exceeds 1e-9 s/W in magnitude, as
	// core.JobWalk.Demand finds it.
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

// jobCurve opens a walk of s and lowers it to its end, one piece at a time
// (Piece, Lower), recording each breakpoint's values as the walk reaches
// it (At).
func jobCurve(t *testing.T, s Session) *curve {
	t.Helper()
	ctx := context.Background()
	w, err := s.Walk(ctx)
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
		if math.Abs(pts[k].slope) > 1e-9 {
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

// Small heterogeneous mix: SP is communication-heavy (flat curve saturates
// early), BT compute-heavy (steep curve), CG in between. Sized for the
// 1-CPU test runner.
func hetWorkloads() []*workloads.Workload {
	p := workloads.Params{Ranks: 4, Iterations: 3, Seed: 2, WorkScale: 0.3}
	return []*workloads.Workload{workloads.SP(p), workloads.BT(p), workloads.CG(p)}
}

func hetJobs(t *testing.T) []Job {
	t.Helper()
	var jobs []Job
	for i, w := range hetWorkloads() {
		jobs = append(jobs, job(t, []string{"sp", "bt", "cg"}[i], w))
	}
	return jobs
}

// A budget below the sum of per-job feasibility floors must fail with the
// typed *BudgetError naming every job's floor, largest first.
func TestBudgetBelowFloorSum(t *testing.T) {
	jobs := hetJobs(t)
	_, err := Allocate(context.Background(), jobs, 30, Options{Policy: Market})
	var be *BudgetError
	if !errors.As(err, &be) {
		t.Fatalf("got %v, want *BudgetError", err)
	}
	if be.BudgetW != 30 {
		t.Errorf("BudgetW = %g, want 30", be.BudgetW)
	}
	if be.FloorSumW <= 30 {
		t.Errorf("FloorSumW = %g, should exceed the 30 W budget", be.FloorSumW)
	}
	if len(be.Floors) != len(jobs) {
		t.Fatalf("Floors names %d jobs, want %d", len(be.Floors), len(jobs))
	}
	names := map[string]bool{}
	var sum float64
	for i, f := range be.Floors {
		names[f.Name] = true
		sum += f.FloorW
		if i > 0 && f.FloorW > be.Floors[i-1].FloorW {
			t.Errorf("Floors not sorted largest-first: %v", be.Floors)
		}
	}
	for _, j := range jobs {
		if !names[j.Name] {
			t.Errorf("floor list missing job %q", j.Name)
		}
	}
	if math.Abs(sum-be.FloorSumW) > 1e-9 {
		t.Errorf("FloorSumW %g != sum of listed floors %g", be.FloorSumW, sum)
	}
	if !strings.Contains(be.Error(), "bt") {
		t.Errorf("error text should name binding jobs: %q", be.Error())
	}
	// The floors are closed forms: the verdict costs no LP.
	for _, j := range jobs {
		if st := j.Session.Stats(); st.Solves != 0 || st.SimplexIter != 0 {
			t.Errorf("job %s: %d LP solves, %d pivots for a below-floor budget, want none", j.Name, st.Solves, st.SimplexIter)
		}
	}
}

// A one-job cluster must reduce to the plain single-job solve: the whole
// budget goes to the job and its makespan matches a fresh whole-graph solve
// at that cap to 1e-9.
func TestOneJobEqualsPlainSolve(t *testing.T) {
	w := workloads.BT(workloads.Params{Ranks: 4, Iterations: 3, Seed: 5, WorkScale: 0.3})
	const budget = 150
	for _, pol := range Policies() {
		a, err := Allocate(context.Background(), []Job{job(t, "only", w)}, budget, Options{Policy: pol})
		if err != nil {
			t.Fatalf("%s: %v", pol, err)
		}
		if len(a.Jobs) != 1 {
			t.Fatalf("%s: %d jobs in result", pol, len(a.Jobs))
		}
		got := a.Jobs[0]
		want, werr := core.NewSolver(machine.Default(), w.EffScale).Solve(w.Graph, budget)
		if werr != nil {
			t.Fatalf("%s: fresh solve: %v", pol, werr)
		}
		if rel := math.Abs(got.MakespanS-want.MakespanS) / want.MakespanS; rel > 1e-9 {
			t.Errorf("%s: one-job makespan %.12f vs plain solve %.12f (rel %.2e)",
				pol, got.MakespanS, want.MakespanS, rel)
		}
		if math.Abs(a.TotalMakespanS-got.MakespanS) > 1e-12 {
			t.Errorf("%s: total %.12f != only job %.12f", pol, a.TotalMakespanS, got.MakespanS)
		}
	}
}

// The market's split is the KKT point of the summed curves, each recorded
// off its job's own walk: no job's next watt (the slope of the piece above
// its cap) is worth more than any job's last granted watt (the slope of
// the piece below), each schedule's objective lies on its curve, and the
// whole budget is spent.
func TestMarketConvergenceProperty(t *testing.T) {
	jobs := hetJobs(t)
	a, err := Allocate(context.Background(), jobs, 260, Options{Policy: Market})
	if err != nil {
		t.Fatal(err)
	}
	next, last := 0.0, math.Inf(1) // marginal values, s/W
	var sum float64
	for i, j := range a.Jobs {
		if j.Degraded {
			t.Fatalf("job %s degraded: %s", j.Name, j.Reason)
		}
		sum += j.CapW
		c := jobCurve(t, jobs[i].Session)
		_, _, above, ok := c.at(j.CapW)
		if !ok {
			t.Fatalf("job %s: cap %g W below its floor %g W", j.Name, j.CapW, c.floorW)
		}
		next = math.Max(next, -above)
		if j.CapW > c.floorW+1e-9 {
			_, _, below, _ := c.at(j.CapW - 1e-6)
			last = math.Min(last, -below)
		}
		if want, _, _, _ := c.at(j.CapW); math.Abs(want-j.Schedule.Objective) > 1e-9*want {
			t.Errorf("job %s: solve objective %.12g off its curve %.12g", j.Name, j.Schedule.Objective, want)
		}
	}
	if next > last+1e-12 {
		t.Errorf("not an equal-marginal split: some job's next watt is worth %g s/W, some job's last only %g s/W", next, last)
	}
	if math.Abs(sum-260) > 1e-6 {
		t.Errorf("caps sum to %g W, want the whole 260 W budget", sum)
	}
	if a.Iterations == 0 || a.Solves != len(jobs) {
		t.Errorf("%d lowering steps in %d solves, want > 0 steps and one walk per job", a.Iterations, a.Solves)
	}
}

// On a two-job mix no split on a 0.25 W grid, each job solved at its share,
// beats the market's total makespan by more than 1e-9 relative.
func TestMarketBeatsEveryGridSplit(t *testing.T) {
	p := workloads.Params{Ranks: 4, Iterations: 3, Seed: 2, WorkScale: 0.3}
	jobs := []Job{job(t, "sp", workloads.SP(p)), job(t, "bt", workloads.BT(p))}
	const budget = 180
	a, err := Allocate(context.Background(), jobs, budget, Options{Policy: Market})
	if err != nil {
		t.Fatal(err)
	}
	f0, f1 := a.Jobs[0].FloorW, a.Jobs[1].FloorW
	best, bestW := math.Inf(1), 0.0
	for w := math.Ceil(f0*4) / 4; w <= budget-f1; w += 0.25 {
		s0, err := jobs[0].Session.SolveAt(context.Background(), w)
		if err != nil {
			t.Fatalf("sp at %g W: %v", w, err)
		}
		s1, err := jobs[1].Session.SolveAt(context.Background(), budget-w)
		if err != nil {
			t.Fatalf("bt at %g W: %v", budget-w, err)
		}
		if tot := s0.MakespanS + s1.MakespanS; tot < best {
			best, bestW = tot, w
		}
	}
	if best < a.TotalMakespanS*(1-1e-9) {
		t.Errorf("grid split sp=%g W beats the market: %.12f < %.12f s (market sp=%.3f W)",
			bestW, best, a.TotalMakespanS, a.Jobs[0].CapW)
	}
}

// The market's split is optimal for the summed curves, so on any mix —
// heterogeneous or not — its total makespan is never worse than uniform's,
// and on this heterogeneous mix it must be strictly better.
func TestMarketNeverWorseThanUniform(t *testing.T) {
	const budget = 260
	uni, err := Allocate(context.Background(), hetJobs(t), budget, Options{Policy: Uniform})
	if err != nil {
		t.Fatal(err)
	}
	mkt, err := Allocate(context.Background(), hetJobs(t), budget, Options{Policy: Market})
	if err != nil {
		t.Fatal(err)
	}
	if mkt.TotalMakespanS > uni.TotalMakespanS*(1+1e-9) {
		t.Errorf("market total %.6f worse than uniform %.6f", mkt.TotalMakespanS, uni.TotalMakespanS)
	}
	if mkt.TotalMakespanS >= uni.TotalMakespanS-1e-9 {
		t.Errorf("market %.6f not strictly better than uniform %.6f on a heterogeneous mix",
			mkt.TotalMakespanS, uni.TotalMakespanS)
	}
	if mkt.MovedW <= 0 {
		t.Errorf("market moved no watts on a heterogeneous mix")
	}
}

// Every policy must respect the budget and per-job floors.
func TestPoliciesRespectBudgetAndFloors(t *testing.T) {
	const budget = 240
	for _, pol := range Policies() {
		a, err := Allocate(context.Background(), hetJobs(t), budget, Options{Policy: pol})
		if err != nil {
			t.Fatalf("%s: %v", pol, err)
		}
		var sum float64
		for _, j := range a.Jobs {
			if j.CapW < j.FloorW-1e-9 {
				t.Errorf("%s: job %s cap %.3f below floor %.3f", pol, j.Name, j.CapW, j.FloorW)
			}
			if j.Schedule == nil {
				t.Errorf("%s: job %s has no schedule", pol, j.Name)
			}
			sum += j.CapW
		}
		if sum > budget+1e-6 {
			t.Errorf("%s: allocated %.3f W over the %d W budget", pol, sum, budget)
		}
		if a.Solves == 0 {
			t.Errorf("%s: zero solves recorded", pol)
		}
	}
}

// The water-filling split, on hand-built floors and demands, gives the caps
// the former uniform and proportional splits gave, bit for bit.
func TestWaterFill(t *testing.T) {
	cases := []struct {
		name                  string
		floors, demands       []float64
		budgetW               float64
		uniform, proportional []float64
	}{
		{"no clamp", []float64{10, 10, 10}, []float64{30, 60, 90}, 120,
			[]float64{40, 40, 40}, []float64{20, 40, 60}},
		{"one clamped job", []float64{60, 10, 10}, []float64{20, 60, 120}, 150,
			[]float64{60, 45, 45}, []float64{60, 30, 60}},
		{"cascading clamps", []float64{40, 35, 10}, []float64{10, 10, 100}, 120,
			[]float64{40, 40, 40}, []float64{40, 35, 45}},
		{"zero total demand", []float64{5, 30}, []float64{0, 0}, 50,
			[]float64{20, 30}, []float64{20, 30}},
		{"zero-demand job", []float64{10, 10, 10}, []float64{0, 50, 50}, 90,
			[]float64{30, 30, 30}, []float64{10, 40, 40}},
		{"uneven budget", []float64{7.5, 12.25, 3}, []float64{41.3, 17.9, 66.1}, 101.7,
			[]float64{33.9, 33.9, 33.9}, []float64{33.52122905027934, 14.528571428571428, 53.65019952114925}},
	}
	for _, tc := range cases {
		var sts []*state
		for i := range tc.floors {
			sts = append(sts, &state{floorW: tc.floors[i], demand: tc.demands[i]})
		}
		for _, w := range []struct {
			name   string
			weight func(*state) float64
			want   []float64
		}{{"uniform", equalWeight, tc.uniform}, {"proportional", demandWeight, tc.proportional}} {
			got := waterFill(sts, tc.budgetW, w.weight)
			for i := range got {
				if got[i] != w.want[i] {
					t.Errorf("%s, %s: caps %v, want %v", tc.name, w.name, got, w.want)
					break
				}
			}
		}
	}
}

// Structural validation errors.
func TestAllocateRejectsBadInput(t *testing.T) {
	w := workloads.CG(workloads.Params{Ranks: 4, Iterations: 2, Seed: 1, WorkScale: 0.3})
	good := job(t, "a", w)
	cases := []struct {
		name   string
		jobs   []Job
		budget float64
		opts   Options
	}{
		{"no jobs", nil, 100, Options{}},
		{"zero budget", []Job{good}, 0, Options{}},
		{"nan budget", []Job{good}, math.NaN(), Options{}},
		{"empty name", []Job{{Name: "", Session: good.Session}}, 100, Options{}},
		{"dup names", []Job{good, {Name: "a", Session: good.Session}}, 100, Options{}},
		{"nil session", []Job{{Name: "x"}}, 100, Options{}},
		{"bad policy", []Job{good}, 100, Options{Policy: "vickrey"}},
	}
	for _, tc := range cases {
		if _, err := Allocate(context.Background(), tc.jobs, tc.budget, tc.opts); err == nil {
			t.Errorf("%s: expected error", tc.name)
		}
	}
}

// Cancellation surfaces instead of degrading jobs.
func TestAllocateCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Allocate(ctx, hetJobs(t), 260, Options{Policy: Market})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled in chain", err)
	}
}

func TestParsePolicy(t *testing.T) {
	if p, err := ParsePolicy(""); err != nil || p != Market {
		t.Errorf("empty policy: got %v/%v, want market default", p, err)
	}
	if p, err := ParsePolicy(" Uniform "); err != nil || p != Uniform {
		t.Errorf("case/space-insensitive parse failed: %v/%v", p, err)
	}
	if _, err := ParsePolicy("round-robin"); err == nil {
		t.Error("unknown policy accepted")
	}
}

// A failed capture falls back to one solve at the job's cap; a job whose
// fallback solve breaks down too must degrade — kept at its granted cap
// with its walk's makespan and slope — without failing the allocation.
type flakySession struct {
	Session
}

func (f *flakySession) SolveAt(context.Context, float64) (*core.Schedule, error) {
	return nil, errors.New("injected breakdown")
}

func TestMarketDegradesBrokenJob(t *testing.T) {
	want, err := Allocate(context.Background(), hetJobs(t), 260, Options{Policy: Market})
	if err != nil {
		t.Fatal(err)
	}
	defer func(c func(*core.JobWalk, context.Context) (*core.Schedule, error)) { capture = c }(capture)
	capture = func(*core.JobWalk, context.Context) (*core.Schedule, error) {
		return nil, errors.New("injected capture failure")
	}
	jobs := hetJobs(t)
	jobs[1].Session = &flakySession{jobs[1].Session}
	a, err := Allocate(context.Background(), jobs, 260, Options{Policy: Market})
	if err != nil {
		t.Fatalf("allocation failed instead of degrading: %v", err)
	}
	if a.Solves != 2*len(jobs) {
		t.Errorf("%d solves, want a walk and a fallback solve per job", a.Solves)
	}
	for i, j := range a.Jobs {
		if j.Degraded != (i == 1) {
			t.Errorf("job %s: degraded %v (%s)", j.Name, j.Degraded, j.Reason)
		}
		w := want.Jobs[i]
		if j.CapW != w.CapW || math.Abs(j.MakespanS-w.MakespanS) > 1e-9*w.MakespanS {
			t.Errorf("job %s: cap %g W, makespan %.12g s; with captures %g W, %.12g s", j.Name, j.CapW, j.MakespanS, w.CapW, w.MakespanS)
		}
		if !j.Degraded {
			if j.Schedule == nil {
				t.Errorf("job %s: no schedule from its fallback solve", j.Name)
			}
			continue
		}
		if !strings.Contains(j.Reason, "injected capture failure") || !strings.Contains(j.Reason, "injected breakdown") {
			t.Errorf("degraded job %s: reason %q", j.Name, j.Reason)
		}
		if j.Schedule != nil || j.CapW < j.FloorW || j.MakespanS <= 0 || j.MarginalSecPerW > 0 {
			t.Errorf("degraded job %s should keep its cap and its walk's values: %+v", j.Name, j)
		}
		if math.Abs(j.MarginalSecPerW-w.MarginalSecPerW) > 1e-9 {
			t.Errorf("degraded job %s: walk slope %g, captured shadow price %g", j.Name, j.MarginalSecPerW, w.MarginalSecPerW)
		}
	}
}

// unopenableSession fails to open its walk, after a delay.
type unopenableSession struct {
	Session
	delay time.Duration
}

func (u *unopenableSession) Walk(context.Context) (*core.JobWalk, error) {
	time.Sleep(u.delay)
	return nil, errors.New("injected walk failure")
}

// The jobs' walks open side by side, yet a failure names the first failing
// job in input order, as a serial loop would: job 1 fails after job 3 does.
func TestOpenWalksNamesFirstFailingJob(t *testing.T) {
	jobs := hetJobs(t)
	p := workloads.Params{Ranks: 4, Iterations: 3, Seed: 2, WorkScale: 0.3}
	jobs = append(jobs, job(t, "ft", workloads.FT(p)))
	jobs[1].Session = &unopenableSession{Session: jobs[1].Session, delay: 20 * time.Millisecond}
	jobs[3].Session = &unopenableSession{Session: jobs[3].Session}
	_, err := Allocate(context.Background(), jobs, 1000, Options{Policy: Market})
	if err == nil || !strings.Contains(err.Error(), `job "bt"`) || !strings.Contains(err.Error(), "injected walk failure") {
		t.Fatalf("got %v, want job %q's walk failure", err, jobs[1].Name)
	}
}

// mixJobs opens one session per job of a named mix.
func mixJobs(t *testing.T, mix string, p workloads.Params) ([]Job, []*workloads.Workload) {
	t.Helper()
	ms, err := workloads.Mix(mix, p)
	if err != nil {
		t.Fatal(err)
	}
	var jobs []Job
	var ws []*workloads.Workload
	for _, m := range ms {
		jobs = append(jobs, job(t, m.Name, m.Workload))
		ws = append(ws, m.Workload)
	}
	return jobs, ws
}

// curveState is one job of the bottom-up oracle split.
type curveState struct {
	floorW, capW float64
	curve        *curve
}

// grantPieces is the bottom-up market split over whole curves, the oracle
// for the top-down one. Every job starts at its floor; the budget then buys
// curve pieces, steepest first, each job's pieces in cap order, ties to the
// earlier job — so at the end no job's next watt is worth more than any
// job's last granted watt, the KKT condition of the separable convex
// program. The last piece may be granted in part. Budget left once every
// job reaches its demand is spread equally. It returns the number of pieces
// granted.
func grantPieces(sts []*curveState, budgetW float64) int {
	left := budgetW
	next := make([]int, len(sts)) // each job's next piece; its floor is point 0
	for _, st := range sts {
		st.capW = st.floorW
		left -= st.floorW
	}
	granted := 0
	for left > 0 {
		// The curve's slopes are exactly zero from the demand up.
		best, bestSlope := -1, 0.0
		for i, st := range sts {
			pts := st.curve.pts
			if next[i] >= len(pts)-1 {
				continue
			}
			if s := pts[next[i]].slope; s < bestSlope {
				best, bestSlope = i, s
			}
		}
		if best < 0 {
			break
		}
		st := sts[best]
		grant := math.Min(st.curve.pts[next[best]+1].capW-st.capW, left)
		st.capW += grant
		left -= grant
		next[best]++
		granted++
	}
	if left > 0 {
		for _, st := range sts {
			st.capW += left / float64(len(sts))
		}
	}
	return granted
}

// The top-down split, walking each job only down to its cap, is the
// bottom-up grant over whole curves, each recorded off its job's own walk
// to the floor: on three mixes at four seeds, at budgets from 0.1% to 130%
// of the floor-to-demand span, every cap agrees within 1e-6 W, and the
// total makespan and the watts moved from the uniform split within 1e-9
// relative.
func TestLazySplitMatchesGrant(t *testing.T) {
	fracs := []float64{0.001, 0.05, 0.2, 0.4, 0.7, 0.95, 1, 1.3}
	for _, mix := range []string{"het-4mix", "het-bt-sp", "hom-sp"} {
		for seed := int64(1); seed <= 4; seed++ {
			jobs, _ := mixJobs(t, mix, workloads.Params{Ranks: 2, Iterations: 2, Seed: seed, WorkScale: 0.3})
			oracle := make([]*curveState, len(jobs))
			floors := make([]*state, len(jobs))
			var floorSum, demandSum float64
			for i := range jobs {
				c := jobCurve(t, jobs[i].Session)
				oracle[i] = &curveState{floorW: c.floorW, curve: c}
				floors[i] = &state{floorW: c.floorW}
				floorSum += c.floorW
				demandSum += c.demandW
			}
			for _, f := range fracs {
				budget := floorSum + f*(demandSum-floorSum)
				a, err := Allocate(context.Background(), jobs, budget, Options{Policy: Market})
				if err != nil {
					t.Fatalf("%s/%d at %.1f%%: %v", mix, seed, 100*f, err)
				}
				grantPieces(oracle, budget)
				uniform := waterFill(floors, budget, equalWeight)
				var total, moved float64
				for i, st := range oracle {
					got := a.Jobs[i]
					if got.Degraded {
						t.Fatalf("%s/%d at %.1f%%: job %s degraded: %s", mix, seed, 100*f, got.Name, got.Reason)
					}
					if math.Abs(got.CapW-st.capW) > 1e-6 {
						t.Errorf("%s/%d at %.1f%%: job %s cap %.12g W, grant %.12g W", mix, seed, 100*f, got.Name, got.CapW, st.capW)
					}
					_, mk, _, _ := st.curve.at(st.capW)
					total += mk
					moved += math.Max(st.capW-uniform[i], 0)
				}
				if math.Abs(a.TotalMakespanS-total) > 1e-9*total {
					t.Errorf("%s/%d at %.1f%%: total makespan %.12g s, grant %.12g s", mix, seed, 100*f, a.TotalMakespanS, total)
				}
				if math.Abs(a.MovedW-moved) > 1e-9*math.Max(1, moved) {
					t.Errorf("%s/%d at %.1f%%: moved %.12g W, grant %.12g W", mix, seed, 100*f, a.MovedW, moved)
				}
			}
		}
	}
}

// jointLP builds one LP over all of a mix's jobs: each job's
// fixed-vertex-order program as internal/core formulates it, except that
// its event-power rows draw on a cap column W_j of its own, and one budget
// row Σ_j W_j ≤ budgetW. Its optimum is the least summed objective any
// split of the budget reaches.
func jointLP(t *testing.T, ws []*workloads.Workload, budgetW float64) *lp.Problem {
	t.Helper()
	p := lp.NewProblem(lp.Minimize)
	var budget lp.Expr
	for _, w := range ws {
		s := core.NewSolver(machine.Default(), w.EffScale)
		ir, err := s.IR(w.Graph)
		if err != nil {
			t.Fatal(err)
		}
		g := ir.G
		capV := p.AddVar("", 0)
		budget = budget.Plus(capV, 1)
		vVar := make([]lp.Var, len(g.Vertices))
		for i, v := range g.Vertices {
			cost := 0.0
			if v.Kind == dag.VFinalize {
				cost = 1
			}
			vVar[i] = p.AddVar("", cost)
			if v.Kind == dag.VInit {
				p.MustConstraint("", lp.Expr{}.Plus(vVar[i], 1), lp.EQ, 0)
			}
		}
		cfg := make(map[dag.TaskID][]lp.Var)
		for _, tk := range g.Tasks {
			if ir.Class[tk.ID] != problem.Tunable {
				continue
			}
			var convex lp.Expr
			for _, pt := range ir.Cols[tk.ID].F.Pts {
				v := p.AddVar("", s.PowerTiebreak*pt.PowerW)
				cfg[tk.ID] = append(cfg[tk.ID], v)
				convex = convex.Plus(v, 1)
			}
			p.MustConstraint("", convex, lp.EQ, 1)
		}
		for _, tk := range g.Tasks {
			e := lp.Expr{}.Plus(vVar[tk.Dst], 1).Plus(vVar[tk.Src], -1)
			rhs := 0.0
			switch ir.Class[tk.ID] {
			case problem.Message:
				rhs = tk.FixedDur
			case problem.Tunable:
				for k, v := range cfg[tk.ID] {
					e = e.Plus(v, -ir.Cols[tk.ID].Durs[k])
				}
			}
			p.MustConstraint("", e, lp.GE, rhs)
		}
		for i := 1; i < len(ir.EventOrder); i++ {
			prev, cur := ir.EventOrder[i-1], ir.EventOrder[i]
			rel := lp.GE
			if ir.Simultaneous(prev, cur) {
				rel = lp.EQ
			}
			p.MustConstraint("", lp.Expr{}.Plus(vVar[cur], 1).Plus(vVar[prev], -1), rel, 0)
		}
		for vi := range g.Vertices {
			e := lp.Expr{}.Plus(capV, -1)
			deduct := 0.0
			for _, tid := range ir.Active[vi] {
				if vs, ok := cfg[tid]; ok {
					for k, v := range vs {
						e = e.Plus(v, ir.Cols[tid].F.Pts[k].PowerW)
					}
				} else {
					deduct += ir.FixedPowerW[tid]
				}
			}
			p.MustConstraint("", e, lp.LE, -deduct)
		}
	}
	p.MustConstraint("budget", budget, lp.LE, budgetW)
	return p
}

// The market's summed objective is the optimum of the joint LP: one
// program over every job with a cap column each and one budget row.
func TestMarketMatchesJointLP(t *testing.T) {
	for _, mix := range []string{"het-4mix", "het-bt-sp"} {
		jobs, ws := mixJobs(t, mix, workloads.Params{Ranks: 2, Iterations: 2, Seed: 3, WorkScale: 0.3})
		var floorSum, demandSum float64
		a, err := Allocate(context.Background(), jobs, 1e4, Options{Policy: Market})
		if err != nil {
			t.Fatal(err)
		}
		for _, j := range a.Jobs {
			floorSum += j.FloorW
			demandSum += j.DemandW
		}
		for _, f := range []float64{0.02, 0.3, 0.9} {
			budget := floorSum + f*(demandSum-floorSum)
			a, err := Allocate(context.Background(), jobs, budget, Options{Policy: Market})
			if err != nil {
				t.Fatal(err)
			}
			got := 0.0
			for _, j := range a.Jobs {
				got += j.Schedule.Objective
			}
			sol, err := lp.Solve(jointLP(t, ws, budget))
			if err != nil || sol.Status != lp.Optimal {
				t.Fatalf("%s at %.0f%%: joint LP %v %v", mix, 100*f, err, sol)
			}
			if math.Abs(got-sol.Objective) > 1e-9*sol.Objective {
				t.Errorf("%s at %.0f%%: market objective %.12g, joint LP %.12g", mix, 100*f, got, sol.Objective)
			}
		}
	}
}
