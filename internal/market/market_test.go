package market

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"

	"powercap/internal/core"
	"powercap/internal/machine"
	"powercap/internal/workloads"
)

func job(t *testing.T, name string, w *workloads.Workload) Job {
	t.Helper()
	s := core.NewSolver(machine.Default(), w.EffScale)
	cs, err := s.NewCapSession(context.Background(), w.Graph)
	if err != nil {
		t.Fatalf("session for %s: %v", name, err)
	}
	return Job{Name: name, Session: cs}
}

// Small heterogeneous mix: SP is communication-heavy (flat curve saturates
// early), BT compute-heavy (steep curve), CG in between. Sized for the
// 1-CPU test runner.
func hetJobs(t *testing.T) []Job {
	t.Helper()
	p := workloads.Params{Ranks: 4, Iterations: 3, Seed: 2, WorkScale: 0.3}
	return []Job{
		job(t, "sp", workloads.SP(p)),
		job(t, "bt", workloads.BT(p)),
		job(t, "cg", workloads.CG(p)),
	}
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

// The market's split is the KKT point of the summed curves: no job's next
// watt (the slope of the piece above its cap) is worth more than any job's
// last granted watt (the slope of the piece below), and the whole budget is
// spent.
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
		c, err := jobs[i].Session.Curve(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		_, _, above, ok := c.At(j.CapW)
		if !ok {
			t.Fatalf("job %s: cap %g W below its floor %g W", j.Name, j.CapW, c.FloorW)
		}
		next = math.Max(next, -above)
		if j.CapW > c.FloorW+1e-9 {
			_, _, below, _ := c.At(j.CapW - 1e-6)
			last = math.Min(last, -below)
		}
		if want, _, _, _ := c.At(j.CapW); math.Abs(want-j.Schedule.Objective) > 1e-9*want {
			t.Errorf("job %s: solve objective %.12g off its curve %.12g", j.Name, j.Schedule.Objective, want)
		}
	}
	if next > last+1e-12 {
		t.Errorf("not an equal-marginal split: some job's next watt is worth %g s/W, some job's last only %g s/W", next, last)
	}
	if math.Abs(sum-260) > 1e-6 {
		t.Errorf("caps sum to %g W, want the whole 260 W budget", sum)
	}
	if a.Iterations == 0 || a.Solves != 2*len(jobs) {
		t.Errorf("%d pieces granted in %d solves, want > 0 pieces in one walk and one solve per job", a.Iterations, a.Solves)
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

// A session whose final solve breaks down must degrade its job — kept at
// its granted cap with its curve's makespan — without failing the
// allocation.
type flakySession struct {
	Session
}

func (f *flakySession) SolveAt(context.Context, float64) (*core.Schedule, error) {
	return nil, errors.New("injected breakdown")
}

func TestMarketDegradesBrokenJob(t *testing.T) {
	jobs := hetJobs(t)
	jobs[1].Session = &flakySession{jobs[1].Session}
	a, err := Allocate(context.Background(), jobs, 260, Options{Policy: Market})
	if err != nil {
		t.Fatalf("allocation failed instead of degrading: %v", err)
	}
	for i, j := range a.Jobs {
		if j.Degraded != (i == 1) {
			t.Errorf("job %s: degraded %v", j.Name, j.Degraded)
		}
		if !j.Degraded {
			continue
		}
		if !strings.Contains(j.Reason, "injected breakdown") {
			t.Errorf("degraded job %s: reason %q", j.Name, j.Reason)
		}
		if j.Schedule != nil || j.CapW < j.FloorW || j.MakespanS <= 0 || j.MarginalSecPerW > 0 {
			t.Errorf("degraded job %s should keep its cap and its curve's values: %+v", j.Name, j)
		}
	}
}
