// Benchmark harness: one testing.B benchmark per table and figure of the
// paper's evaluation (DESIGN.md §4 maps exhibits to benchmarks), plus the
// ablation benches of DESIGN.md §5. Each benchmark regenerates its
// exhibit's data on a reduced instance and reports the exhibit's headline
// quantity as a custom metric, so `go test -bench=. -benchmem` doubles as
// a smoke reproduction. Full-size exhibits: `go run ./cmd/experiments all`.
package powercap_test

import (
	"bytes"
	"testing"

	"powercap"
	"powercap/internal/conductor"
	"powercap/internal/core"
	"powercap/internal/dag"
	"powercap/internal/flowilp"
	"powercap/internal/machine"
	"powercap/internal/pareto"
	"powercap/internal/policy"
	"powercap/internal/replay"
	"powercap/internal/sim"
	"powercap/internal/workloads"
)

// benchParams is the reduced instance size used by the harness.
func benchParams() workloads.Params {
	return workloads.Params{Ranks: 8, Iterations: 8, Seed: 1, WorkScale: 0.5}
}

// BenchmarkFig1ParetoFrontier builds the full configuration cloud of a
// CoMD task and extracts its convex Pareto frontier (Figure 1).
func BenchmarkFig1ParetoFrontier(b *testing.B) {
	m := machine.Default()
	shape := machine.DefaultShape()
	var hullLen int
	for i := 0; i < b.N; i++ {
		cfgs := m.Configs()
		cloud := make([]pareto.Point, len(cfgs))
		for k, c := range cfgs {
			cloud[k] = pareto.Point{PowerW: m.Power(shape, c, 1), TimeS: m.Duration(1, shape, c), Index: k}
		}
		hullLen = len(pareto.ConvexFrontier(cloud))
	}
	b.ReportMetric(float64(hullLen), "frontier-points")
}

// BenchmarkTable1ParetoConfigs rounds frontier selections under a sweep of
// power budgets (Table 1's consumer path).
func BenchmarkTable1ParetoConfigs(b *testing.B) {
	m := machine.Default()
	shape := machine.DefaultShape()
	cfgs := m.Configs()
	cloud := make([]pareto.Point, len(cfgs))
	for k, c := range cfgs {
		cloud[k] = pareto.Point{PowerW: m.Power(shape, c, 1), TimeS: m.Duration(1, shape, c), Index: k}
	}
	hull := pareto.ConvexFrontier(cloud)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for capW := 15.0; capW <= 90; capW++ {
			pareto.BestUnderCap(hull, capW)
			pareto.NearestToMix(hull, capW)
		}
	}
}

// fig2Trace builds the paper's Fig. 2 example exchange.
func fig2Trace() *dag.Graph {
	sh := machine.DefaultShape()
	tb := dag.NewBuilder(2)
	tb.Compute(0, 0.8, sh, "A1")
	tb.Isend(0, 1, 1<<20)
	tb.Compute(0, 0.6, sh, "A2")
	tb.Wait(0)
	tb.Compute(0, 0.4, sh, "A3")
	tb.Compute(1, 1.0, sh, "A4")
	tb.Recv(1, 0)
	tb.Compute(1, 0.5, sh, "A5")
	return tb.Finalize()
}

// BenchmarkFig2TraceAndTimeline builds the example task graph and derives
// its timeline (Figure 2).
func BenchmarkFig2TraceAndTimeline(b *testing.B) {
	m := machine.Default()
	for i := 0; i < b.N; i++ {
		g := fig2Trace()
		pts := sim.Points(g)
		for k, t := range g.Tasks {
			if t.Kind == dag.Compute {
				pts[k] = sim.TaskPoint{Duration: m.Duration(t.Work, t.Shape, m.MaxConfig()), PowerW: 50}
			}
		}
		if _, err := sim.Evaluate(g, pts, sim.SlackHoldsTaskPower, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig3OverlapShift evaluates the co-scheduling example at two
// operating points (Figure 3).
func BenchmarkFig3OverlapShift(b *testing.B) {
	m := machine.Default()
	g := fig2Trace()
	for i := 0; i < b.N; i++ {
		for _, cfg := range []machine.Config{m.MaxConfig(), {FreqGHz: m.FreqMinGHz, Threads: m.Cores}} {
			pts := sim.Points(g)
			for k, t := range g.Tasks {
				if t.Kind == dag.Compute {
					pts[k] = sim.TaskPoint{Duration: m.Duration(t.Work, t.Shape, cfg), PowerW: m.Power(t.Shape, cfg, 1)}
				}
			}
			if _, err := sim.Evaluate(g, pts, sim.SlackHoldsTaskPower, 0); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkFig8FlowVsFixed solves one power point of the flow-ILP vs
// fixed-order comparison (Figure 8) and reports the formulations' gap.
func BenchmarkFig8FlowVsFixed(b *testing.B) {
	m := machine.Default()
	g := fig2Trace()
	flow := flowilp.NewSolver(m, nil)
	fixed := core.NewSolver(m, nil)
	gap := 0.0
	for i := 0; i < b.N; i++ {
		fres, err := flow.Solve(g, 70)
		if err != nil {
			b.Fatal(err)
		}
		lres, err := fixed.Solve(g, 70)
		if err != nil {
			b.Fatal(err)
		}
		gap = (lres.MakespanS/fres.MakespanS - 1) * 100
	}
	b.ReportMetric(gap, "gap-%")
}

// compareBench runs the three-way comparison of Figures 9–11/13–15 for one
// workload and cap, reporting the LP-vs-Static potential improvement.
func compareBench(b *testing.B, name string, perSocket float64) {
	b.Helper()
	w, err := workloads.ByName(name, benchParams())
	if err != nil {
		b.Fatal(err)
	}
	sys := powercap.SystemFor(w, nil)
	var cmp *powercap.Comparison
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cmp, err = sys.Compare(w, perSocket)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(cmp.LPvsStaticPct, "LPvsStatic-%")
	b.ReportMetric(cmp.LPvsConductorPct, "LPvsConductor-%")
}

// BenchmarkFig9LPvsStatic regenerates one cross-benchmark power point of
// Figure 9 (BT at 40 W per socket).
func BenchmarkFig9LPvsStatic(b *testing.B) { compareBench(b, "BT", 40) }

// BenchmarkFig10LPvsConductor regenerates one power point of Figure 10
// (LULESH at 50 W per socket).
func BenchmarkFig10LPvsConductor(b *testing.B) { compareBench(b, "LULESH", 50) }

// BenchmarkFig11CoMD regenerates CoMD's headline point (30 W, Figure 11).
func BenchmarkFig11CoMD(b *testing.B) { compareBench(b, "CoMD", 30) }

// BenchmarkFig13BT regenerates BT's headline point (30 W, Figure 13).
func BenchmarkFig13BT(b *testing.B) { compareBench(b, "BT", 30) }

// BenchmarkFig14SP regenerates SP's worst-for-Conductor point (60 W,
// Figure 14).
func BenchmarkFig14SP(b *testing.B) { compareBench(b, "SP", 60) }

// BenchmarkFig15LULESH regenerates LULESH's 40 W point (Figure 15).
func BenchmarkFig15LULESH(b *testing.B) { compareBench(b, "LULESH", 40) }

// BenchmarkFig12CoMDTasks solves one CoMD iteration's LP at 30 W and
// gathers the long-task power/duration scatter (Figure 12).
func BenchmarkFig12CoMDTasks(b *testing.B) {
	w := workloads.CoMD(benchParams())
	slices, err := dag.SliceAll(w.Graph)
	if err != nil {
		b.Fatal(err)
	}
	sl := slices[4]
	lps := core.NewSolver(machine.Default(), w.EffScale)
	st := policy.NewStatic(machine.Default(), w.EffScale)
	jobCap := 30.0 * float64(w.Graph.NumRanks)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := lps.Solve(sl.Graph, jobCap); err != nil {
			b.Fatal(err)
		}
		if _, err := st.Run(sl.Graph, 30); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable3LULESH regenerates the single-iteration LULESH task
// characteristics at 50 W (Table 3).
func BenchmarkTable3LULESH(b *testing.B) {
	w := workloads.LULESH(benchParams())
	slices, err := dag.SliceAll(w.Graph)
	if err != nil {
		b.Fatal(err)
	}
	sl := slices[4]
	m := machine.Default()
	lps := core.NewSolver(m, w.EffScale)
	cd := conductor.New(m, w.EffScale)
	jobCap := 50.0 * float64(w.Graph.NumRanks)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := lps.Solve(sl.Graph, jobCap); err != nil {
			b.Fatal(err)
		}
		if _, err := cd.Run(w.Graph, jobCap); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOverheadsReplay regenerates the Sec. 6.2 replay-overhead
// accounting: a full per-iteration LP solve plus discrete replay.
func BenchmarkOverheadsReplay(b *testing.B) {
	w := workloads.CoMD(benchParams())
	m := machine.Default()
	lps := core.NewSolver(m, w.EffScale)
	jobCap := 50.0 * float64(w.Graph.NumRanks)
	sched, err := lps.SolveIterations(w.Graph, jobCap)
	if err != nil {
		b.Fatal(err)
	}
	opts := replay.DefaultOptions(m, w.EffScale)
	b.ResetTimer()
	var switches int
	for i := 0; i < b.N; i++ {
		rep, err := replay.Run(w.Graph, sched, opts)
		if err != nil {
			b.Fatal(err)
		}
		switches = rep.Switches
	}
	b.ReportMetric(float64(switches), "switches")
}

// --- Ablation benches (DESIGN.md §5) ---

// BenchmarkAblationConvexVsDiscrete measures the rounding gap between the
// continuous LP bound and the discrete-rounded replayed schedule.
func BenchmarkAblationConvexVsDiscrete(b *testing.B) {
	w := workloads.CoMD(benchParams())
	m := machine.Default()
	lps := core.NewSolver(m, w.EffScale)
	jobCap := 40.0 * float64(w.Graph.NumRanks)
	gap := 0.0
	for i := 0; i < b.N; i++ {
		sched, err := lps.SolveIterations(w.Graph, jobCap)
		if err != nil {
			b.Fatal(err)
		}
		opts := replay.DefaultOptions(m, w.EffScale)
		rep, err := replay.Run(w.Graph, sched, opts)
		if err != nil {
			b.Fatal(err)
		}
		gap = (rep.MakespanS/sched.MakespanS - 1) * 100
	}
	b.ReportMetric(gap, "rounding-gap-%")
}

// BenchmarkAblationSlackPricing compares the flow ILP's two slack models:
// observed (idle) vs hold-at-task-power (the LP's assumption).
func BenchmarkAblationSlackPricing(b *testing.B) {
	m := machine.Default()
	g := fig2Trace()
	obs := flowilp.NewSolver(m, nil)
	hold := flowilp.NewSolver(m, nil)
	hold.Slack = flowilp.SlackHold
	gap := 0.0
	for i := 0; i < b.N; i++ {
		ro, err := obs.Solve(g, 60)
		if err != nil {
			b.Fatal(err)
		}
		rh, err := hold.Solve(g, 60)
		if err != nil {
			b.Fatal(err)
		}
		gap = (rh.MakespanS/ro.MakespanS - 1) * 100
	}
	b.ReportMetric(gap, "slack-pricing-gap-%")
}

// BenchmarkAblationEventOrder quantifies what fixing the event order costs
// across a band of caps (the Fig. 8 ablation aggregated).
func BenchmarkAblationEventOrder(b *testing.B) {
	m := machine.Default()
	g := fig2Trace()
	flow := flowilp.NewSolver(m, nil)
	fixed := core.NewSolver(m, nil)
	worst := 0.0
	for i := 0; i < b.N; i++ {
		worst = 0
		for _, capW := range []float64{45, 55, 65, 80, 100} {
			fres, err := flow.Solve(g, capW)
			if err != nil {
				b.Fatal(err)
			}
			lres, err := fixed.Solve(g, capW)
			if err != nil {
				b.Fatal(err)
			}
			if gap := (lres.MakespanS/fres.MakespanS - 1) * 100; gap > worst {
				worst = gap
			}
		}
	}
	b.ReportMetric(worst, "worst-gap-%")
}

// BenchmarkSimplexSchedulingLP times one per-iteration scheduling LP of
// paper-like shape (the solver the whole reproduction rests on).
func BenchmarkSimplexSchedulingLP(b *testing.B) {
	w := workloads.SP(benchParams())
	slices, err := dag.SliceAll(w.Graph)
	if err != nil {
		b.Fatal(err)
	}
	sl := slices[4]
	lps := core.NewSolver(machine.Default(), w.EffScale)
	jobCap := 50.0 * float64(w.Graph.NumRanks)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sched, err := lps.Solve(sl.Graph, jobCap)
		if err != nil {
			b.Fatal(err)
		}
		_ = sched
	}
}

// BenchmarkConductorIteration times the adaptive runtime end to end.
func BenchmarkConductorIteration(b *testing.B) {
	w := workloads.BT(benchParams())
	cd := conductor.New(machine.Default(), w.EffScale)
	jobCap := 40.0 * float64(w.Graph.NumRanks)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cd.Run(w.Graph, jobCap); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationSlackAwareLP measures the gap between the main LP
// (slack holds task power, fewer events) and the slack-separated variant
// (idle-priced slack, task/slack boundary events) — the tradeoff Sec. 3.3
// decides in favor of fewer events.
func BenchmarkAblationSlackAwareLP(b *testing.B) {
	w := workloads.BT(benchParams())
	slices, err := dag.SliceAll(w.Graph)
	if err != nil {
		b.Fatal(err)
	}
	sl := slices[4]
	lps := core.NewSolver(machine.Default(), w.EffScale)
	jobCap := 35.0 * float64(w.Graph.NumRanks)
	gap := 0.0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		main, err := lps.Solve(sl.Graph, jobCap)
		if err != nil {
			b.Fatal(err)
		}
		aware, err := lps.SolveSlackAware(sl.Graph, jobCap)
		if err != nil {
			b.Fatal(err)
		}
		gap = (main.MakespanS/aware.MakespanS - 1) * 100
	}
	b.ReportMetric(gap, "slack-hold-cost-%")
}

// BenchmarkAblationDiscreteILP measures the exact integrality gap of the
// continuous relaxation (Eq. 5 vs Eq. 6) on a small instance.
func BenchmarkAblationDiscreteILP(b *testing.B) {
	tb := dag.NewBuilder(3)
	sh := machine.DefaultShape()
	for r := 0; r < 3; r++ {
		tb.Compute(r, 0.3+0.2*float64(r), sh, "w")
	}
	tb.Collective("sync")
	for r := 0; r < 3; r++ {
		tb.Compute(r, 0.3, sh, "w2")
	}
	g := tb.Finalize()
	lps := core.NewSolver(machine.Default(), nil)
	gap := 0.0
	for i := 0; i < b.N; i++ {
		cont, err := lps.Solve(g, 100)
		if err != nil {
			b.Fatal(err)
		}
		disc, err := lps.SolveDiscrete(g, 100)
		if err != nil {
			b.Fatal(err)
		}
		gap = (disc.MakespanS/cont.MakespanS - 1) * 100
	}
	b.ReportMetric(gap, "integrality-gap-%")
}

// BenchmarkConfigOnlyConductor times the configuration-selection-only
// variant (Sec. 6's "less overhead ... lower performance" comparison).
func BenchmarkConfigOnlyConductor(b *testing.B) {
	w := workloads.LULESH(benchParams())
	cd := conductor.NewConfigOnly(machine.Default(), w.EffScale)
	jobCap := 40.0 * float64(w.Graph.NumRanks)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cd.Run(w.Graph, jobCap); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTraceRoundTrip times trace serialization (the pipeline's I/O
// boundary).
func BenchmarkTraceRoundTrip(b *testing.B) {
	w := workloads.SP(benchParams())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := powercap.WriteTrace(&buf, "sp", w.Graph, w.EffScale); err != nil {
			b.Fatal(err)
		}
		if _, _, err := powercap.ReadTrace(&buf); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Solver-engine sweep benchmarks (DESIGN.md "Solver engine
// architecture"): the cost of evaluating the LP bound across a cap family
// on the facade the experiments drive. The cold/warm axis is isolated in
// internal/core/bench_scale_test.go; here the workload-level orchestration
// is measured. Emit machine-readable results with
// `go run ./cmd/experiments -benchjson BENCH_solver.json solver`.

func benchSweepSystem(b *testing.B) (*powercap.System, *workloads.Workload, []float64) {
	b.Helper()
	w := workloads.SP(benchParams())
	sys := powercap.SystemFor(w, nil)
	var caps []float64
	for per := 70.0; per >= 35; per -= 5 {
		caps = append(caps, per*float64(w.Graph.NumRanks))
	}
	return sys, w, caps
}

// BenchmarkSweepSerial: the warm-started sweep, each cap's iteration slices
// re-solved side by side from their bases at the cap before.
func BenchmarkSweepSerial(b *testing.B) {
	sys, w, caps := benchSweepSystem(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pts, err := sys.SolveSweep(w.Graph, caps)
		if err != nil {
			b.Fatal(err)
		}
		for _, pt := range pts {
			if pt.Err != nil {
				b.Fatal(pt.Err)
			}
		}
	}
}
