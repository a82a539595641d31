package core

import (
	"context"
	"math"
	"slices"
	"testing"

	"powercap/internal/coarsen"
	"powercap/internal/lp"
	"powercap/internal/machine"
	"powercap/internal/obs"
	"powercap/internal/workloads"
)

// solveTraced solves prob from basis (none when nil) under a trace of its
// own and returns the solution with the start its lp.solve span reports.
func solveTraced(t *testing.T, prob *lp.Problem, basis []int) (*lp.Solution, string) {
	t.Helper()
	tr := obs.NewTrace(0)
	defer tr.Release()
	sol, err := lp.Solve(prob, lp.WithSpanContext(obs.WithTrace(context.Background(), tr)), lp.WithWarmBasis(basis))
	if err != nil {
		t.Fatal(err)
	}
	start := ""
	for _, rec := range tr.Snapshot() {
		if rec.Name == "lp.solve" {
			start, _ = rec.Attrs["start"].(string)
		}
	}
	return sol, start
}

// checkCrash solves prob from its crash basis and from no basis, and
// requires the crash to be taken as a start with no phase 1 and no repair
// (so the kernel factorized it and found it primal feasible), an objective
// within 1e-9 relative of the basis-free solve, and a certified answer.
func checkCrash(t *testing.T, what string, prob *lp.Problem, crash []int) *lp.Solution {
	t.Helper()
	if crash == nil {
		t.Fatalf("%s: no crash basis", what)
	}
	want, err := lp.Solve(prob)
	if err != nil || want.Status != lp.Optimal {
		t.Fatalf("%s: basis-free solve %v, %v", what, want, err)
	}
	got, start := solveTraced(t, prob, crash)
	if got.Status != lp.Optimal {
		t.Fatalf("%s: crash solve %v", what, got.Status)
	}
	if start != "primal" && start != "dual" {
		t.Fatalf("%s: crash start %q, want primal or dual", what, start)
	}
	st := got.Stats
	if !st.WarmStarted || st.Phase1Iters != 0 || st.DualIters != 0 {
		t.Fatalf("%s: crash used %v, phase 1 %d pivots, dual %d pivots; want a feasible start", what, st.WarmStarted, st.Phase1Iters, st.DualIters)
	}
	if rel := math.Abs(got.Objective-want.Objective) / math.Max(1, math.Abs(want.Objective)); rel > 1e-9 {
		t.Fatalf("%s: crash objective %.15g, basis-free %.15g (rel %.2e)", what, got.Objective, want.Objective, rel)
	}
	if err := lp.Certify(prob, got).Err(); err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	return got
}

// saturatingW is a cap above every event's largest draw: no power row binds.
func saturatingW(b *builtLP) float64 {
	topW := b.floor.fixedW
	for _, pr := range b.powerRows {
		topW = math.Max(topW, pr.maxDrawW)
	}
	return topW + 1
}

// TestCrashBasis solves every benchmark program from its crash basis at
// the floor, above it and at a saturating cap, and every speculative window
// program of two synthetic traces, against basis-free solves.
func TestCrashBasis(t *testing.T) {
	for _, name := range workloads.Names() {
		for seed := int64(1); seed <= 4; seed++ {
			w, err := workloads.ByName(name, workloads.Params{Ranks: 4, Iterations: 2, Seed: seed, WorkScale: 0.3})
			if err != nil {
				t.Fatal(err)
			}
			s := NewSolver(machine.Default(), w.EffScale)
			b, err := s.buildLP(context.Background(), w.Graph)
			if err != nil {
				t.Fatal(err)
			}
			floorW := b.floor.minW
			for _, capW := range []float64{floorW, 1.2 * floorW, 2 * floorW, saturatingW(b)} {
				for _, pr := range b.powerRows {
					mustSetRHS(b.prob, pr.row, capW-pr.deduct)
				}
				checkCrash(t, name+" cap", b.prob, b.crash())
			}
		}
	}

	for _, seed := range []int64{1, 2} {
		w := workloads.Synthetic(workloads.SynthParams{Ranks: 4, Events: 600, Seed: seed})
		s := NewSolver(machine.Default(), w.EffScale)
		cg, _, err := coarsen.Coarsen(w.Graph, 2e-3)
		if err != nil {
			t.Fatal(err)
		}
		ir, err := s.IR(cg)
		if err != nil {
			t.Fatal(err)
		}
		plan := s.planCtx(context.Background(), cg, ir, 4, -1)
		capW := 50.0 * 4
		est := s.windowEstimates(ir, capW)
		solved := 0
		for _, win := range plan.Windows {
			b := s.buildWindowLP(plan, win)
			b.aim(ir, capW, est)
			if b.constExcess(capW, est) > feasTol {
				continue
			}
			if cold, err := lp.Solve(b.prob); err != nil || cold.Status != lp.Optimal {
				continue // estimates over the cap: the crash cannot fit either
			}
			checkCrash(t, b.String(), b.prob, b.crash())
			solved++
		}
		if solved < 2 {
			t.Fatalf("seed %d: %d of %d speculative windows feasible", seed, solved, len(plan.Windows))
		}
	}
}

// TestCrashBasisDeterministic: the same input twice gives the same crash
// basis and the same answer, bit for bit.
func TestCrashBasisDeterministic(t *testing.T) {
	w := workloads.SP(workloads.Params{Ranks: 4, Iterations: 2, Seed: 3, WorkScale: 0.3})
	var bases [][]int
	var sols []*lp.Solution
	for range 2 {
		s := NewSolver(machine.Default(), w.EffScale)
		b, err := s.buildLP(context.Background(), w.Graph)
		if err != nil {
			t.Fatal(err)
		}
		for _, pr := range b.powerRows {
			mustSetRHS(b.prob, pr.row, 1.3*b.floor.minW-pr.deduct)
		}
		crash := b.crash()
		sol, err := lp.Solve(b.prob, lp.WithWarmBasis(crash))
		if err != nil {
			t.Fatal(err)
		}
		bases = append(bases, crash)
		sols = append(sols, sol)
	}
	if !slices.Equal(bases[0], bases[1]) {
		t.Fatal("the same program gave two crash bases")
	}
	if sols[0].Objective != sols[1].Objective || !slices.Equal(sols[0].X, sols[1].X) {
		t.Fatalf("the same crash gave two answers: objective %.17g vs %.17g", sols[0].Objective, sols[1].Objective)
	}
}

// TestCrashBasisRejectedFallsBack: a crash basis the kernel cannot use —
// a singular one, and one whose power rows overflow because every task sits
// at its highest-power column — falls back to the cold solve and its
// answer.
func TestCrashBasisRejectedFallsBack(t *testing.T) {
	w := workloads.BT(workloads.Params{Ranks: 4, Iterations: 2, Seed: 2, WorkScale: 0.3})
	s := NewSolver(machine.Default(), w.EffScale)
	b, err := s.buildLP(context.Background(), w.Graph)
	if err != nil {
		t.Fatal(err)
	}
	for _, pr := range b.powerRows {
		mustSetRHS(b.prob, pr.row, b.floor.minW-pr.deduct)
	}
	want, err := lp.Solve(b.prob)
	if err != nil || want.Status != lp.Optimal {
		t.Fatalf("basis-free solve %v, %v", want, err)
	}

	singular := b.crash()
	singular[1] = singular[0]
	highest := b.crash()
	for _, v := range b.tv { // each task sets its own row: order is moot
		highest[slices.Index(highest, int(v.cs[0]))] = int(v.cs[len(v.cs)-1])
	}
	for _, c := range []struct {
		name  string
		basis []int
	}{{"singular", singular}, {"highest power", highest}} {
		got, start := solveTraced(t, b.prob, c.basis)
		if start != "cold" || got.Stats.WarmStarted {
			t.Fatalf("%s: start %q, warm %v; want the cold fallback", c.name, start, got.Stats.WarmStarted)
		}
		if got.Status != lp.Optimal || math.Abs(got.Objective-want.Objective) > 1e-9*math.Max(1, math.Abs(want.Objective)) {
			t.Fatalf("%s: %v objective %.15g, basis-free %.15g", c.name, got.Status, got.Objective, want.Objective)
		}
	}
}

// TestCrashBasisEveryColdSolve traces the solves that used to start cold —
// a session's first probe, every iteration slice, and the speculative
// window solves — and requires each to start from the crash (a primal
// start) with no phase 1 anywhere.
func TestCrashBasisEveryColdSolve(t *testing.T) {
	traced := func(run func(ctx context.Context) error) []obs.SpanRecord {
		t.Helper()
		tr := obs.NewTrace(0)
		defer tr.Release()
		if err := run(obs.WithTrace(context.Background(), tr)); err != nil {
			t.Fatal(err)
		}
		if d := tr.Dropped(); d > 0 {
			t.Fatalf("trace dropped %d spans", d)
		}
		return tr.Snapshot()
	}
	// starts maps each lp.solve span's parent name ("" for a root span) to
	// the starts seen under it; a commit solve's window.solve is keyed apart.
	starts := func(recs []obs.SpanRecord) map[string][]string {
		name := make(map[uint64]obs.SpanRecord, len(recs))
		for _, r := range recs {
			name[r.ID] = r
		}
		out := make(map[string][]string)
		for _, r := range recs {
			switch r.Name {
			case "lp.phase1":
				t.Fatalf("a solve ran phase 1 under %s", name[name[r.Parent].Parent].Name)
			case "lp.solve":
				parent := name[r.Parent]
				key := parent.Name
				if spec, ok := parent.Attrs["speculative"].(bool); ok && !spec {
					key += " commit"
				}
				out[key] = append(out[key], r.Attrs["start"].(string))
			}
		}
		return out
	}
	primalOnly := func(what string, got []string, want int) {
		t.Helper()
		if len(got) != want {
			t.Fatalf("%s: %d solves, want %d", what, len(got), want)
		}
		for _, st := range got {
			if st != "primal" {
				t.Fatalf("%s: start %q, want primal (the crash)", what, st)
			}
		}
	}

	w := workloads.BT(workloads.Params{Ranks: 4, Iterations: 2, Seed: 1, WorkScale: 0.3})
	s := NewSolver(machine.Default(), w.EffScale)
	got := starts(traced(func(ctx context.Context) error {
		cs, err := s.NewCapSession(ctx, w.Graph)
		if err != nil {
			return err
		}
		_, err = cs.SolveAt(ctx, 1.2*cs.FloorW())
		return err
	}))
	primalOnly("first SolveAt", got[""], 1) // SolveAt opens no span of its own

	var slices int
	got = starts(traced(func(ctx context.Context) error {
		sched, err := s.SolveIterationsCtx(ctx, w.Graph, 45*4)
		if sched != nil {
			slices = len(sched.IterationMakespans)
		}
		return err
	}))
	primalOnly("iteration slices", got["core.iteration"], slices)

	syn := workloads.Synthetic(workloads.SynthParams{Ranks: 4, Events: 600, Seed: 1})
	ss := NewSolver(machine.Default(), syn.EffScale)
	var ws *WindowedSchedule
	got = starts(traced(func(ctx context.Context) error {
		var err error
		ws, err = ss.SolveWindowedCtx(ctx, syn.Graph, 50*4, WindowedOptions{Windows: 4, OverlapEvents: -1, Parallel: 2})
		return err
	}))
	primalOnly("speculative windows", got["window.solve"], ws.SpeculativeSolves)
	for _, st := range got["window.solve commit"] {
		if st != "dual" {
			t.Fatalf("commit start %q, want dual (the speculative basis)", st)
		}
	}
}
