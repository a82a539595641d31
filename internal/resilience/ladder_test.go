package resilience

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"
	"time"

	"powercap/internal/core"
	"powercap/internal/dag"
	"powercap/internal/faultinject"
	"powercap/internal/machine"
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

func noSleep(time.Duration) {}

func TestLadderTopRungMatchesDirectSolve(t *testing.T) {
	faultinject.Disable()
	g := smallGraph()
	sv := testSolver()
	direct, err := sv.SolveCtx(context.Background(), g, 100)
	if err != nil {
		t.Fatal(err)
	}

	l := New(Config{Sleep: noSleep})
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
	if out.Attempts != 1 || out.Retries != 0 {
		t.Fatalf("clean solve spent attempts=%d retries=%d", out.Attempts, out.Retries)
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

	l := New(Config{Sleep: noSleep})
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

	l := New(Config{Sleep: noSleep})
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

// TestLadderNumericalRetryThenDescend: a persistent NaN storm on a large LP
// exhausts the kernel's internal recovery and its rescue, surfaces as
// *lp.NumericalError, earns a backoff retry, and finally descends with a
// "numerical" reason in the chain.
func TestLadderNumericalRetryThenDescend(t *testing.T) {
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
	l := New(Config{Sleep: noSleep})
	out, err := l.Solve(context.Background(), sv, g, 300, LP{Whole: true})
	if err != nil {
		t.Fatal(err)
	}
	if !out.Degraded {
		t.Fatal("persistent NaN storm did not degrade")
	}
	if out.Retries == 0 {
		t.Fatal("numerical failure earned no retry")
	}
	if !strings.Contains(out.Reason, "numerical") {
		t.Fatalf("reason %q does not name the numerical failure", out.Reason)
	}
	if out.Realized == nil || out.Realized.CapViolationW != 0 {
		t.Fatalf("degraded outcome not certified cap-clean: %+v", out.Realized)
	}
}

func TestLadderInfeasiblePropagatesImmediately(t *testing.T) {
	faultinject.Disable()
	g := smallGraph()
	sv := testSolver()
	l := New(Config{Sleep: noSleep})
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
	l := New(Config{BreakerThreshold: 2, BreakerCooldown: time.Hour, Sleep: noSleep})
	for i := 0; i < 2; i++ {
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
	l := New(Config{BreakerThreshold: 1, BreakerCooldown: 10 * time.Millisecond, Sleep: noSleep})
	l.breakers[RungSparse].Failure()
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
	l := New(Config{Sleep: noSleep})
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
		out, err := New(Config{Sleep: noSleep}).Solve(ctx, sv, g, 100, LP{Whole: true})
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
