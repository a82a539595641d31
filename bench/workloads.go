package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"slices"

	"powercap"
	"powercap/internal/obs"
	"powercap/internal/service"
	"powercap/internal/trace"
	"powercap/internal/workloads"
)

// size holds every input dimension of the workloads. full is the benchmark;
// short shrinks it for the test suite.
type size struct {
	coldRanks, coldIters int
	mixRanks, mixIters   int
	mixScale             float64
	synthRanks           int
	synthEvents          int
	// serveRanks, serveIters and serveScale size the serve workloads'
	// graphs.
	serveRanks, serveIters int
	serveScale             float64
}

var full = size{
	coldRanks: 16, coldIters: 4,
	mixRanks: 4, mixIters: 3, mixScale: 0.3,
	synthRanks: 4, synthEvents: 2500,
	serveRanks: 4, serveIters: 6, serveScale: 0.3,
}

var short = size{
	coldRanks: 4, coldIters: 2,
	mixRanks: 2, mixIters: 2, mixScale: 0.3,
	synthRanks: 2, synthEvents: 300,
	serveRanks: 2, serveIters: 3, serveScale: 0.3,
}

// Caps, in watts per socket.
const (
	coldCapW     = 50.0
	marketCapW   = 45.0 // site budget per socket across the whole mix
	windowedCapW = 50.0
)

// Windowed solve settings for windowed-large.
var windowedOpts = powercap.WindowedOptions{Windows: 4, OverlapEvents: -1, CoarsenEps: 2e-3, Parallel: 2}

// relTol is the relative tolerance for comparing makespans that should be
// equal.
const relTol = 1e-9

func sameValue(a, b float64) bool {
	return math.Abs(a-b) <= relTol*math.Max(math.Abs(a), math.Abs(b))
}

// opResult is one closed-loop operation's answer and the layer counts it
// reported.
type opResult struct {
	makespan   float64
	counts     map[string]float64
	traceBytes int // trace JSON the op decoded
}

// fixture is a closed-loop workload after set-up; op runs one operation on
// the given input (below the workload's input count) and checks its output.
type fixture interface {
	op(ctx context.Context, input int) (opResult, error)
}

// closedLoop is a workload whose one client runs ops back to back. Its ops
// cycle through seeded inputs, one per op: the time of one op depends on its
// input (one seed's cold solve can take half again as long as another's),
// so a run over a single input would report the seed more than the code.
type closedLoop struct {
	name   string
	inputs int
	setup  func(seed int64, sz size, inputs int) (fixture, error)
}

var closedLoops = []closedLoop{
	{name: "solve-cold", inputs: 4, setup: setupCold},
	{name: "cluster-market", inputs: 4, setup: setupMarket},
	{name: "windowed-large", inputs: 4, setup: setupWindowed},
}

// workloadNames lists every workload in run order.
func workloadNames() []string {
	var names []string
	for _, c := range closedLoops {
		names = append(names, c.name)
	}
	return append(names, serveHit, serveSolve)
}

// inputSeed is the generator seed of one of a run's inputs.
func inputSeed(seed int64, inputs, k int) int64 { return seed*int64(inputs) + int64(k) }

// lpCounts are the solver-effort counts every solving workload reports.
func lpCounts(st powercap.SolverStats, into map[string]float64) {
	into["core.lp_solves"] = float64(st.Solves)
	into["core.lp_rows"] = float64(st.Rows)
	into["lp.pivots"] = float64(st.SimplexIter)
	into["lp.dual_pivots"] = float64(st.DualIter)
	into["lp.refactorizations"] = float64(st.Refactorizations)
	into["lp.presolve_rows"] = float64(st.PresolveRows)
	if st.Solves > 0 {
		into["lp.warm_start_frac"] = float64(st.WarmStarts) / float64(st.Solves)
	}
}

// solve-cold: one pcsched run at paper scale on a fresh System.
type coldFixture struct {
	docs [][]byte // trace JSON, one per input
}

func setupCold(seed int64, sz size, inputs int) (fixture, error) {
	f := &coldFixture{}
	for k := range inputs {
		w := workloads.SP(workloads.Params{Ranks: sz.coldRanks, Iterations: sz.coldIters, Seed: inputSeed(seed, inputs, k)})
		var buf bytes.Buffer
		if err := trace.Write(&buf, w.Name, w.Graph, w.EffScale); err != nil {
			return nil, fmt.Errorf("solve-cold: write trace: %w", err)
		}
		f.docs = append(f.docs, buf.Bytes())
	}
	return f, nil
}

func (f *coldFixture) op(ctx context.Context, input int) (opResult, error) {
	doc := f.docs[input]
	g, eff, err := trace.ReadCtx(ctx, bytes.NewReader(doc))
	if err != nil {
		return opResult{}, fmt.Errorf("read trace: %w", err)
	}
	sys := powercap.NewSystem(nil)
	sys.EffScale = eff
	jobCap := coldCapW * float64(g.NumRanks)
	sched, err := sys.UpperBoundCtx(ctx, g, jobCap)
	if err != nil {
		return opResult{}, fmt.Errorf("upper bound: %w", err)
	}
	rz, err := sys.RealizeScheduleCtx(ctx, g, sched, powercap.RealizeReplay)
	if err != nil {
		return opResult{}, fmt.Errorf("realize: %w", err)
	}
	_, sp := obs.Start(ctx, "bench.encode")
	body, err := json.Marshal(&service.SolveResponse{
		Key:                sys.ScheduleKey(g, jobCap, false, powercap.RealizeReplay, 0, 0),
		GraphDigest:        powercap.GraphDigest(g),
		Workload:           "SP",
		JobCapW:            jobCap,
		MakespanS:          sched.MakespanS,
		MarginalSecPerW:    sched.MarginalSecPerW,
		IterationMakespans: sched.IterationMakespans,
		Stats:              service.NewStatsJSON(sched.Stats),
		Realized:           service.NewRealizedJSON(rz),
	})
	sp.End()
	switch {
	case err != nil:
		return opResult{}, fmt.Errorf("encode response: %w", err)
	case len(body) == 0:
		return opResult{}, fmt.Errorf("encode response: empty")
	}
	if err := checkRealized(sched.MakespanS, rz.MakespanS, rz.CapViolationW); err != nil {
		return opResult{}, err
	}
	counts := map[string]float64{"schedule.repairs": float64(rz.Repairs)}
	lpCounts(sched.Stats, counts)
	return opResult{makespan: sched.MakespanS, counts: counts, traceBytes: len(doc)}, nil
}

// checkRealized checks a realized schedule against its LP bound: it keeps
// to the cap and takes no less time than the bound.
func checkRealized(boundS, realizedS, violationW float64) error {
	switch {
	case violationW != 0:
		return fmt.Errorf("realized schedule violates the cap by %g W", violationW)
	case realizedS < boundS*(1-relTol):
		return fmt.Errorf("realized makespan %g s below the bound %g s", realizedS, boundS)
	}
	return nil
}

// cluster-market: one market allocation of a site budget across four
// heterogeneous jobs, from one of the run's mixes.
type marketFixture struct {
	mixes []marketMix
}

type marketMix struct {
	jobs    []powercap.ClusterJob
	budgetW float64
}

func setupMarket(seed int64, sz size, inputs int) (fixture, error) {
	f := &marketFixture{}
	for k := range inputs {
		mix, err := workloads.Mix("het-4mix", workloads.Params{
			Ranks: sz.mixRanks, Iterations: sz.mixIters, Seed: inputSeed(seed, inputs, k), WorkScale: sz.mixScale,
		})
		if err != nil {
			return nil, err
		}
		var m marketMix
		for _, j := range mix {
			m.jobs = append(m.jobs, powercap.ClusterJob{Name: j.Name, Graph: j.Workload.Graph, EffScale: j.Workload.EffScale})
			m.budgetW += marketCapW * float64(j.Workload.Graph.NumRanks)
		}
		f.mixes = append(f.mixes, m)
	}
	return f, nil
}

func (f *marketFixture) op(ctx context.Context, input int) (opResult, error) {
	m := f.mixes[input]
	actx, sp := obs.Start(ctx, "bench.allocate")
	a, err := powercap.AllocateCluster(actx, m.jobs, m.budgetW, nil, powercap.ClusterOptions{Policy: powercap.PolicyMarket})
	sp.End()
	if err != nil {
		return opResult{}, fmt.Errorf("allocate: %w", err)
	}
	var capSum float64
	for _, j := range a.Jobs {
		capSum += j.CapW
		switch {
		case j.Degraded:
			return opResult{}, fmt.Errorf("job %s degraded: %s", j.Name, j.Reason)
		case j.CapW < j.FloorW:
			return opResult{}, fmt.Errorf("job %s cap %g W below its floor %g W", j.Name, j.CapW, j.FloorW)
		}
	}
	if capSum > m.budgetW*(1+relTol) {
		return opResult{}, fmt.Errorf("caps sum to %g W over the %g W budget", capSum, m.budgetW)
	}
	counts := map[string]float64{
		"market.solves":     float64(a.Solves),
		"market.iterations": float64(a.Iterations),
		"market.moved_w":    a.MovedW,
	}
	if a.Stats.Solves > 0 {
		counts["market.warm_frac"] = float64(a.Stats.WarmStarts) / float64(a.Stats.Solves)
	}
	lpCounts(a.Stats, counts)
	return opResult{makespan: a.TotalMakespanS, counts: counts}, nil
}

// windowed-large: the windowed decomposition of a synthetic trace on a
// fresh System, so every op coarsens, plans and builds its window LPs.
type windowedFixture struct {
	traces []*powercap.Workload
}

// Of the full-size synthetic traces with seeds 0 to synthSeeds-1, these
// leave the sparse LU kernel's normal path in the windowed solve: the first
// fifteen take a numerical rescue (2 to 8 s instead of 1 s), and the last
// two did not finish within 8 s, 226 not within 60 s, in the dense rescue.
// windowed-large draws its traces from the other seeds below synthSeeds, so
// that no op hangs and a run's time does not hinge on whether its seed drew
// a rescue. The rescue path is left to a workload of its own.
const synthSeeds = 600

var (
	rescueSeeds  = []int64{43, 72, 102, 118, 252, 267, 276, 289, 314, 340, 419, 481, 506, 532, 582, 226, 596}
	normalSynths = func() []int64 {
		var out []int64
		for s := range int64(synthSeeds) {
			if !slices.Contains(rescueSeeds, s) {
				out = append(out, s)
			}
		}
		return out
	}()
)

// synthSeed is the generator seed of a windowed-large input.
func synthSeed(seed int64, inputs, k int) int64 {
	n := int64(len(normalSynths))
	return normalSynths[(inputSeed(seed, inputs, k)%n+n)%n]
}

func setupWindowed(seed int64, sz size, inputs int) (fixture, error) {
	f := &windowedFixture{}
	for k := range inputs {
		f.traces = append(f.traces, workloads.Synthetic(workloads.SynthParams{
			Ranks: sz.synthRanks, Events: sz.synthEvents, Seed: synthSeed(seed, inputs, k),
		}))
	}
	return f, nil
}

func (f *windowedFixture) op(ctx context.Context, input int) (opResult, error) {
	w := f.traces[input]
	sys := powercap.SystemFor(w, nil)
	ws, err := sys.SolveWindowedCtx(ctx, w.Graph, windowedCapW*float64(w.Graph.NumRanks), windowedOpts)
	if err != nil {
		return opResult{}, fmt.Errorf("windowed solve: %w", err)
	}
	if ws.SeamViolationW > 1e-6 {
		return opResult{}, fmt.Errorf("seam violation %g W", ws.SeamViolationW)
	}
	counts := map[string]float64{
		"coarsen.merged_tasks":      float64(ws.MergedTasks),
		"window.count":              float64(ws.Windows),
		"window.speculative_solves": float64(ws.SpeculativeSolves),
		"window.commit_solves":      float64(ws.CommitSolves),
		"window.warm_frac":          ws.WarmStartRate(),
		"window.escalations":        float64(ws.Escalations),
		"window.rescues":            float64(ws.NumericalFallbacks()),
	}
	lpCounts(ws.Stats, counts)
	return opResult{makespan: ws.MakespanS, counts: counts}, nil
}
