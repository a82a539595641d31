package resilience

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
	"powercap/internal/faultinject"
	"powercap/internal/machine"
	"powercap/internal/workloads"
)

// smallGraph: two ranks, mild imbalance, one collective — solves in a
// handful of pivots.
func smallGraph() *dag.Graph {
	b := dag.NewBuilder(2)
	sh := machine.DefaultShape()
	b.Compute(0, 0.5, sh, "phase1")
	b.Compute(1, 1.0, sh, "phase1")
	b.Collective("sync")
	b.Compute(0, 0.4, sh, "phase2")
	b.Compute(1, 0.4, sh, "phase2")
	return b.Finalize()
}

// bigGraph: enough ranks and phases that the LP needs several checkpoint
// windows of pivots, so rate-1.0 NaN injection outlives the kernel's retry
// budget.
func bigGraph() *dag.Graph {
	b := dag.NewBuilder(6)
	sh := machine.DefaultShape()
	for phase := 0; phase < 6; phase++ {
		for r := 0; r < 6; r++ {
			b.Compute(r, 0.2+0.1*float64((r+phase)%4), sh, "work")
		}
		b.Collective("sync")
	}
	return b.Finalize()
}

func testSolver() *core.Solver { return core.NewSolver(machine.Default(), nil) }

func TestLadderTopRungMatchesDirectSolve(t *testing.T) {
	faultinject.Disable()
	g := smallGraph()
	sv := testSolver()
	direct, err := sv.SolveCtx(context.Background(), g, 100)
	if err != nil {
		t.Fatal(err)
	}

	l := New(Config{})
	out, err := l.Solve(context.Background(), sv, g, 100, LP{Whole: true})
	if err != nil {
		t.Fatal(err)
	}
	if out.Rung != RungSparse || out.Degraded {
		t.Fatalf("clean solve landed on rung %v (degraded=%v)", out.Rung, out.Degraded)
	}
	if out.Reason != "" || out.Realized != nil {
		t.Fatalf("top-rung outcome carries degradation artifacts: reason=%q realized=%v", out.Reason, out.Realized)
	}
	if math.Float64bits(out.Schedule.MakespanS) != math.Float64bits(direct.MakespanS) {
		t.Fatalf("ladder makespan %v != direct %v", out.Schedule.MakespanS, direct.MakespanS)
	}
	if out.RungAttempts != [NumRungs]int{1, 0, 0} {
		t.Fatalf("clean solve ran rungs %v, want [1 0 0]", out.RungAttempts)
	}
}

// TestLadderNaNRecoveredAtTopRung: on a small LP the kernel's reinversion
// repairs every injected NaN within its retry budget, so the ladder never
// descends — resilience starts inside the kernel.
func TestLadderNaNRecoveredAtTopRung(t *testing.T) {
	g := smallGraph()
	sv := testSolver()
	faultinject.Configure(21, map[faultinject.Class]float64{faultinject.LPNaN: 1.0})
	defer faultinject.Disable()

	l := New(Config{})
	out, err := l.Solve(context.Background(), sv, g, 100, LP{Whole: true})
	if err != nil {
		t.Fatal(err)
	}
	if faultinject.Count(faultinject.LPNaN) == 0 {
		t.Fatal("fault never fired")
	}
	if out.Rung != RungSparse || out.Degraded {
		t.Fatalf("recoverable NaN descended the ladder: rung %v", out.Rung)
	}
}

// TestLadderStallDescendsToHeuristic: a stall injected into every LP pivot
// loop breaks the LP rung; the heuristic rung needs no LP and must serve a
// simulator-certified schedule tagged with the full descent chain.
func TestLadderStallDescendsToHeuristic(t *testing.T) {
	g := smallGraph()
	sv := testSolver()
	faultinject.Configure(22, map[faultinject.Class]float64{faultinject.LPStall: 1.0})
	defer faultinject.Disable()

	l := New(Config{})
	out, err := l.Solve(context.Background(), sv, g, 100, LP{Whole: true})
	if err != nil {
		t.Fatal(err)
	}
	if out.Rung != RungHeuristic || !out.Degraded {
		t.Fatalf("rung %v degraded=%v, want heuristic/true", out.Rung, out.Degraded)
	}
	if !strings.Contains(out.Reason, "sparse:") || !strings.HasSuffix(out.Reason, "heuristic") {
		t.Fatalf("reason chain %q missing descent steps", out.Reason)
	}
	if out.Realized == nil {
		t.Fatal("degraded outcome lacks simulator validation")
	}
	if out.Realized.CapViolationW != 0 {
		t.Fatalf("served schedule violates cap by %v W", out.Realized.CapViolationW)
	}
	if out.Schedule.MakespanS <= 0 {
		t.Fatalf("degraded makespan %v", out.Schedule.MakespanS)
	}
}

// TestLadderNumericalDescendsOnce: a persistent NaN storm on a large LP
// exhausts the kernel's internal recovery and its rescue, surfaces as
// *lp.NumericalError, and descends at once with a "numerical" reason in
// the chain: the LP rung runs once, since re-running the same
// deterministic LP cannot end differently.
func TestLadderNumericalDescendsOnce(t *testing.T) {
	g := bigGraph()
	sv := testSolver()
	faultinject.Disable()
	if direct, err := sv.SolveCtx(context.Background(), g, 300); err != nil {
		t.Fatal(err)
	} else if direct.Stats.SimplexIter <= 4*32 {
		t.Fatalf("test LP too easy: %d pivots", direct.Stats.SimplexIter)
	}

	faultinject.Configure(23, map[faultinject.Class]float64{faultinject.LPNaN: 1.0})
	defer faultinject.Disable()
	l := New(Config{})
	out, err := l.Solve(context.Background(), sv, g, 300, LP{Whole: true})
	if err != nil {
		t.Fatal(err)
	}
	if !out.Degraded {
		t.Fatal("persistent NaN storm did not degrade")
	}
	if out.RungAttempts != [NumRungs]int{1, 1, 0} {
		t.Fatalf("rung attempts %v, want [1 1 0]: the LP rung runs once, then the heuristic", out.RungAttempts)
	}
	if !strings.HasPrefix(out.Reason, "sparse:numerical(") || !strings.HasSuffix(out.Reason, "→heuristic") {
		t.Fatalf("reason %q, want sparse:numerical(…)→heuristic", out.Reason)
	}
	if out.Realized == nil || out.Realized.CapViolationW != 0 {
		t.Fatalf("degraded outcome not certified cap-clean: %+v", out.Realized)
	}
}

// answerBits flattens what a top-rung answer reports — makespan,
// objective and every choice — into words compared bit for bit.
func answerBits(s *core.Schedule) []uint64 {
	w := []uint64{math.Float64bits(s.MakespanS), math.Float64bits(s.Objective)}
	f := func(xs ...float64) {
		for _, x := range xs {
			w = append(w, math.Float64bits(x))
		}
	}
	for _, c := range s.Choices {
		for _, m := range c.Mix {
			f(m.Config.FreqGHz, float64(m.Config.Threads), m.Frac, m.DurationS, m.PowerW)
		}
		f(c.DurationS, c.PowerW, c.Discrete.FreqGHz, float64(c.Discrete.Threads), c.DiscreteDurationS, c.DiscretePowerW)
	}
	return w
}

// TestTopRungRepeatsBitForBit is why a rung runs once: the LP rung is a
// pure function of the graph, the cap and the LP shape. Each shape is
// solved twice through one Ladder on one Solver (the second solve reuses
// the cached IR) and must repeat its makespan, objective, choices and
// solver effort bit for bit, so a retried numerical breakdown would break
// down again at the same pivot. Run at -cpu 1,2: the slices and windows
// fan out.
func TestTopRungRepeatsBitForBit(t *testing.T) {
	faultinject.Disable()
	sp := workloads.SP(workloads.Params{Ranks: 4, Iterations: 3, Seed: 1, WorkScale: 0.3})
	syn := workloads.Synthetic(workloads.SynthParams{Ranks: 4, Events: 600, Seed: 1})
	l := New(Config{})
	for _, tc := range []struct {
		name string
		w    *workloads.Workload
		top  LP
	}{
		{"sp/decomposed", sp, LP{}},
		{"sp/whole", sp, LP{Whole: true}},
		{"synthetic/windowed", syn, LP{Windowed: &core.WindowedOptions{Windows: 3, OverlapEvents: -1, CoarsenEps: 2e-3}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sv := core.NewSolver(machine.Default(), tc.w.EffScale)
			capW := 50 * float64(tc.w.Graph.NumRanks)
			var first *Outcome
			for run := 0; run < 2; run++ {
				out, err := l.Solve(context.Background(), sv, tc.w.Graph, capW, tc.top)
				if err != nil {
					t.Fatal(err)
				}
				if out.Rung != RungSparse {
					t.Fatalf("run %d served by rung %v (%s)", run, out.Rung, out.Reason)
				}
				if first == nil {
					first = out
					continue
				}
				a, b := first.Schedule, out.Schedule
				if !slices.Equal(answerBits(a), answerBits(b)) {
					t.Fatalf("repeat answer differs: makespan %v vs %v, objective %v vs %v",
						a.MakespanS, b.MakespanS, a.Objective, b.Objective)
				}
				if a.Stats != b.Stats {
					t.Fatalf("repeat effort differs:\n%+v\n%+v", a.Stats, b.Stats)
				}
				if a.Stats.SimplexIter == 0 {
					t.Fatal("no pivots: the shape never reached the LP")
				}
			}
		})
	}
}

func TestLadderInfeasiblePropagatesImmediately(t *testing.T) {
	faultinject.Disable()
	g := smallGraph()
	sv := testSolver()
	l := New(Config{})
	out, err := l.Solve(context.Background(), sv, g, 0.5, LP{Whole: true})
	if err == nil {
		t.Fatalf("infeasible cap produced outcome %+v", out)
	}
	if !errors.Is(err, core.ErrInfeasible) {
		t.Fatalf("error %v does not wrap core.ErrInfeasible", err)
	}
}

func TestLadderBreakerSkipsBrokenRung(t *testing.T) {
	faultinject.Disable()
	g := smallGraph()
	sv := testSolver()
	l := New(Config{BreakerCooldown: time.Hour})
	for i := 0; i < breakerThreshold; i++ {
		l.breakers[RungSparse].Failure()
	}
	if st := l.BreakerStates()["sparse"]; st != "open" {
		t.Fatalf("sparse breaker state %q after threshold failures", st)
	}

	out, err := l.Solve(context.Background(), sv, g, 100, LP{Whole: true})
	if err != nil {
		t.Fatal(err)
	}
	if out.Rung != RungHeuristic || !out.Degraded {
		t.Fatalf("rung %v degraded=%v, want heuristic/true", out.Rung, out.Degraded)
	}
	if !strings.Contains(out.Reason, "sparse:breaker-open") {
		t.Fatalf("reason %q does not record the skipped rung", out.Reason)
	}
	if out.Realized == nil || out.Realized.CapViolationW != 0 {
		t.Fatal("heuristic-rung outcome not certified cap-clean")
	}
	if st := l.BreakerStates()["heuristic"]; st != "closed" {
		t.Fatalf("heuristic breaker %q after success", st)
	}
}

func TestLadderBreakerRecoversAfterCooldown(t *testing.T) {
	faultinject.Disable()
	g := smallGraph()
	sv := testSolver()
	l := New(Config{BreakerCooldown: 10 * time.Millisecond})
	for i := 0; i < breakerThreshold; i++ {
		l.breakers[RungSparse].Failure()
	}
	if l.breakers[RungSparse].Allow() {
		t.Fatal("breaker admits requests immediately after tripping")
	}
	time.Sleep(15 * time.Millisecond)

	out, err := l.Solve(context.Background(), sv, g, 100, LP{Whole: true})
	if err != nil {
		t.Fatal(err)
	}
	if out.Rung != RungSparse || out.Degraded {
		t.Fatalf("half-open probe did not run the recovered rung: %v", out.Rung)
	}
	if st := l.BreakerStates()["sparse"]; st != "closed" {
		t.Fatalf("sparse breaker %q after successful probe", st)
	}
}

func TestLadderDeadParentContext(t *testing.T) {
	faultinject.Disable()
	g := smallGraph()
	sv := testSolver()
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	l := New(Config{})
	if _, err := l.Solve(ctx, sv, g, 100, LP{Whole: true}); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("error %v does not wrap the parent deadline", err)
	}
}

func TestHeuristicRungsCapSafe(t *testing.T) {
	faultinject.Disable()
	sv := testSolver()
	for _, g := range []*dag.Graph{smallGraph(), bigGraph()} {
		for _, slackAware := range []bool{true, false} {
			sched, realized, err := heuristicRung(context.Background(), sv, g, 80*float64(g.NumRanks)/2, slackAware)
			if err != nil {
				t.Fatalf("slackAware=%v: %v", slackAware, err)
			}
			if realized.CapViolationW != 0 {
				t.Fatalf("slackAware=%v: cap violated by %v W", slackAware, realized.CapViolationW)
			}
			if sched.MakespanS != realized.MakespanS || sched.MakespanS <= 0 {
				t.Fatalf("slackAware=%v: makespan %v vs realized %v", slackAware, sched.MakespanS, realized.MakespanS)
			}
		}
	}
}

// TestTopRungDeadlineSlice: the top rung gets 0.5 of the remaining
// deadline. A slow-solve fault that outlasts that slice descends to the
// heuristic; one that fits completes on the LP.
func TestTopRungDeadlineSlice(t *testing.T) {
	g := smallGraph()
	sv := testSolver()
	const deadline = 3 * time.Second
	solve := func(delay time.Duration) *Outcome {
		t.Helper()
		faultinject.Configure(25, map[faultinject.Class]float64{faultinject.SlowSolve: 1.0})
		faultinject.SetSlowDelay(delay)
		defer faultinject.Disable()
		ctx, cancel := context.WithTimeout(context.Background(), deadline)
		defer cancel()
		out, err := New(Config{}).Solve(ctx, sv, g, 100, LP{Whole: true})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}

	if out := solve(1800 * time.Millisecond); out.Rung != RungHeuristic || out.Reason != "sparse:deadline→heuristic" {
		t.Fatalf("rung %v reason %q, want the top rung's 1.5s slice to expire under a 1.8s delay",
			out.Rung, out.Reason)
	}
	if out := solve(1200 * time.Millisecond); out.Rung != RungSparse || out.Degraded {
		t.Fatalf("rung %v reason %q, want the top rung's 1.5s slice to outlast a 1.2s delay",
			out.Rung, out.Reason)
	}
}
