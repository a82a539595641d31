package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"slices"
	"time"

	"powercap/internal/obs"
)

// plan says how one workload run is made.
type plan struct {
	seed    int64
	seconds float64 // length of the timed part
	traced  bool
	// Set-up is repeated at least setups times, and more while the set-ups
	// so far took under setupBudget, up to maxSetups: most set-ups take
	// milliseconds, and the median of many is steadier than that of a few.
	// The last set-up is the one measured.
	setups      int
	setupBudget time.Duration
	sz          size
	outDir      string // traced runs write a Chrome trace here ("" = none)
}

// maxSpans bounds one traced op's trace; a windowed or market op records a
// few thousand spans.
const maxSpans = 1 << 16

// maxErrors bounds the failure messages a result keeps.
const maxErrors = 5

// Result is one workload run.
type Result struct {
	Workload  string            `json:"workload"`
	Set       int               `json:"set"`
	Seed      int64             `json:"seed"`
	Traced    bool              `json:"traced"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Errors    []string          `json:"errors,omitempty"`
	Metrics   map[string]Metric `json:"metrics"`
	// Counts are the layer counts of the run, which repeat exactly for a
	// fixed seed: a closed-loop op's own counts (the mean over one op per
	// input), or a daemon workload's totals.
	Counts map[string]float64 `json:"counts,omitempty"`
	// Layers are every per-layer metric, from a traced run.
	Layers map[string]Metric `json:"layers,omitempty"`
	// Answers are the workload's makespans, which the golden file holds for
	// seed 1: one per input of a closed-loop workload (the solve-cold bound,
	// the cluster-market summed job makespan, the windowed-large stitched
	// bound), and serve-hit's direct solves of its hot keys.
	Answers []float64 `json:"answers_s,omitempty"`
	// LateP50MS and LateMaxMS are how far behind schedule the open-loop
	// generator sent its requests.
	LateP50MS float64 `json:"late_p50_ms,omitempty"`
	LateMaxMS float64 `json:"late_max_ms,omitempty"`
	// TracedWallMS is the mean traced op's wall time; SelfSumFrac the
	// summed self time over it: 1 for a single-threaded op, more where
	// spans run in parallel.
	TracedWallMS float64 `json:"traced_wall_ms,omitempty"`
	SelfSumFrac  float64 `json:"self_sum_frac,omitempty"`
	// CalibBeforeMS and CalibAfterMS time a fixed SHA-256 loop around the
	// run; Noisy marks a run during which that time moved by over 10%.
	CalibBeforeMS float64 `json:"calib_before_ms"`
	CalibAfterMS  float64 `json:"calib_after_ms"`
	Noisy         bool    `json:"noisy"`
	WallS         float64 `json:"wall_s"`
}

// Correct reports whether every op succeeded and passed its checks.
func (r *Result) Correct() bool { return r.Attempted > 0 && r.Failed == 0 && len(r.Errors) == 0 }

// fail counts a failed op.
func (r *Result) fail(err error) {
	r.Failed++
	r.note(err)
}

// note records a failure that is not one op's, such as a set-up error.
func (r *Result) note(err error) {
	if len(r.Errors) < maxErrors {
		r.Errors = append(r.Errors, err.Error())
	}
}

func runWorkload(name string, p plan) *Result {
	start := time.Now()
	res := &Result{Workload: name, Seed: p.seed, Traced: p.traced, Metrics: map[string]Metric{}}
	res.CalibBeforeMS = calibrate()
	if isServe(name) {
		runServe(res, p)
	} else {
		for _, c := range closedLoops {
			if c.name == name {
				runClosed(res, c, p)
			}
		}
	}
	res.CalibAfterMS = calibrate()
	res.Noisy = math.Abs(res.CalibAfterMS/res.CalibBeforeMS-1) > 0.10
	res.WallS = time.Since(start).Seconds()
	return res
}

const maxSetups = 100

// timeSetups runs setup repeatedly and reports the median time as setup_s.
// It returns the last set-up's fixture, after closing the others with
// discard.
func timeSetups[F any](res *Result, p plan, setup func() (F, error), discard func(F)) (F, bool) {
	var (
		fx    F
		times []float64
		spent time.Duration
	)
	for i := 0; i < p.setups || (spent < p.setupBudget && i < maxSetups); i++ {
		if i > 0 {
			discard(fx)
		}
		// Each set-up starts from a collected heap, so that whether a
		// collection falls inside it does not depend on the one before.
		runtime.GC()
		t0 := time.Now()
		f, err := setup()
		if err != nil {
			res.note(fmt.Errorf("set-up: %w", err))
			return fx, false
		}
		d := time.Since(t0)
		spent += d
		times = append(times, d.Seconds())
		fx = f
	}
	res.Metrics["setup_s"] = summarize(times, 0.5, "s")
	return fx, true
}

// heapAllocs is the runtime's cumulative count of heap-allocated bytes;
// reading it does not stop the world.
func heapAllocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// allocMetric is the heap allocation per op over the timed part.
func allocMetric(allocBytes uint64, ops int) Metric {
	return Metric{Value: float64(allocBytes) / 1e6 / float64(max(ops, 1)), Unit: "MB", N: ops}
}

// tracedAcc sums what traced ops report.
type tracedAcc struct {
	times  map[string]float64 // self ms per layer
	builds float64            // problem.build spans
	bytes  float64            // trace bytes decoded
	traced []float64          // traced op latencies, ms
	plain  []float64          // untraced op latencies, ms
}

func newTracedAcc() *tracedAcc { return &tracedAcc{times: map[string]float64{}} }

func (a *tracedAcc) add(layers map[string]float64, spans []spanRec, decodedBytes, wallMS float64) {
	for k, v := range layers {
		a.times[k] += v
	}
	a.builds += float64(spanCount(spans, "problem.build"))
	a.bytes += decodedBytes
	a.traced = append(a.traced, wallMS)
}

// layers reports every per-layer metric: self times per traced op, the
// run's counts, the metrics only tracing yields, and the given extras.
func (a *tracedAcc) layers(res *Result, extras map[string]Metric) {
	n := len(a.traced)
	per := 1 / float64(max(n, 1))
	counts := map[string]float64{"problem.builds": a.builds * per}
	for k, v := range res.Counts {
		counts[k] = v
	}
	if n > 0 && len(a.plain) > 0 {
		counts["obs.overhead_frac"] = median(a.traced)/median(a.plain) - 1
	}
	res.Layers = map[string]Metric{}
	for _, name := range timeLayers {
		res.Layers[name] = Metric{Value: a.times[name] * per, Unit: "ms", N: n}
	}
	for _, c := range countLayers {
		res.Layers[c.name] = Metric{Value: counts[c.name], Unit: c.unit, N: n}
	}
	if dec := a.times["trace.decode_ms"]; dec > 0 {
		res.Layers["trace.mb_per_s"] = Metric{Value: a.bytes / 1e6 / (dec / 1e3), Unit: "MB/s", N: n}
	}
	for k, v := range extras {
		res.Layers[k] = v
	}
	var wall, self float64
	for _, d := range a.traced {
		wall += d
	}
	for _, v := range a.times {
		self += v
	}
	if wall > 0 {
		res.TracedWallMS = wall * per
		res.SelfSumFrac = self / wall
	}
}

func spanCount(spans []spanRec, name string) int {
	n := 0
	for _, s := range spans {
		if s.name == name {
			n++
		}
	}
	return n
}

// sameAnswer checks an op's makespan against the first op on the same
// input, recording it when it is the first.
func sameAnswer(answers []float64, input int, r opResult) error {
	if ref := answers[input]; ref != 0 && !sameValue(r.makespan, ref) {
		return fmt.Errorf("input %d: makespan %.12g s differs from the first op's %.12g s", input, r.makespan, ref)
	}
	answers[input] = r.makespan
	return nil
}

// tails reports the p75 and p99 of single op latencies. They carry no bound
// (README.md says why) and are marked unresolved when too few samples lie
// beyond them.
func tails(res *Result, lat []float64) {
	res.Metrics["p75_ms"] = summarize(lat, 0.75, "ms")
	res.Metrics["p99_ms"] = summarize(lat, 0.99, "ms")
}

// roundMedian is a closed-loop run's p50_ms: the ops are taken in rounds of
// one op per input, and it is the median over rounds of the round's mean op
// time. The mean over inputs keeps the seed's choice of inputs from
// deciding which of them the median lands on; the median over rounds keeps
// a slow moment of the host from moving it.
func roundMedian(lat []float64, inputs int) Metric {
	var rounds []float64
	for i := 0; i+inputs <= len(lat); i += inputs {
		var sum float64
		for _, v := range lat[i : i+inputs] {
			sum += v
		}
		rounds = append(rounds, sum/float64(inputs))
	}
	return summarize(rounds, 0.5, "ms")
}

func runClosed(res *Result, c closedLoop, p plan) {
	ctx := context.Background()
	fx, ok := timeSetups(res, p, func() (fixture, error) { return c.setup(p.seed, p.sz, c.inputs) }, func(fixture) {})
	if !ok {
		return
	}
	res.Answers = make([]float64, c.inputs)
	// One warm-up op, untimed, so the first timed op does not pay for the
	// process's first solve.
	if r, err := fx.op(ctx, 0); err != nil {
		res.note(fmt.Errorf("warm-up: %w", err))
		return
	} else if err := sameAnswer(res.Answers, 0, r); err != nil {
		res.note(err)
		return
	}

	acc := newTracedAcc()
	counts := map[string]float64{}
	counted := make([]bool, c.inputs)
	var last []obs.SpanRecord
	// A traced run alternates untraced and traced ops on the same input, so
	// the tracing overhead compares like with like.
	perInput := 1
	if p.traced {
		perInput = 2
	}
	runtime.GC()
	alloc0 := heapAllocs()
	start := time.Now()
	for i := 0; ; i++ {
		if i%(perInput*c.inputs) == 0 && i > 0 && time.Since(start).Seconds() >= p.seconds {
			break
		}
		traced := p.traced && i%2 == 1
		input := i / perInput % c.inputs
		octx := ctx
		var (
			tr   *obs.Trace
			root *obs.Span
		)
		if traced {
			tr = obs.NewTrace(maxSpans)
			octx, root = obs.Start(obs.WithTrace(ctx, tr), "bench.op")
		}
		t0 := time.Now()
		r, err := fx.op(octx, input)
		d := ms(time.Since(t0))
		root.End()
		tr.Release()
		res.Attempted++
		if err == nil {
			err = sameAnswer(res.Answers, input, r)
		}
		if err == nil && tr.Dropped() > 0 {
			err = fmt.Errorf("trace dropped %d spans", tr.Dropped())
		}
		if err != nil {
			res.fail(err)
			continue
		}
		if traced {
			last = tr.Snapshot()
			spans := fromRecords(last)
			layers := map[string]float64{}
			layerTimes(spans, layers)
			acc.add(layers, spans, float64(r.traceBytes), d)
		} else {
			acc.plain = append(acc.plain, d)
		}
		if !counted[input] {
			counted[input] = true
			for k, v := range r.counts {
				counts[k] += v / float64(c.inputs)
			}
			if !slices.Contains(counted, false) {
				res.Counts = counts
			}
		}
	}
	res.Metrics["alloc_mb_per_op"] = allocMetric(heapAllocs()-alloc0, res.Attempted)
	if res.Failed == 0 {
		res.Metrics["p50_ms"] = roundMedian(acc.plain, c.inputs)
	}
	tails(res, acc.plain)
	if p.traced {
		acc.layers(res, nil)
		writeChrome(res, p.outDir, obs.ChromeEvents(last))
	}
}

// writeChrome writes one traced op's spans as a Chrome trace.
func writeChrome(res *Result, dir string, evs []obs.Event) {
	if dir == "" || len(evs) == 0 {
		return
	}
	err := os.MkdirAll(dir, 0o755)
	var data []byte
	if err == nil {
		data, err = json.MarshalIndent(obs.Document{TraceEvents: evs, DisplayTimeUnit: "ms"}, "", " ")
	}
	if err == nil {
		err = os.WriteFile(filepath.Join(dir, res.Workload+".json"), append(data, '\n'), 0o644)
	}
	if err != nil {
		res.note(fmt.Errorf("write chrome trace: %w", err))
	}
}

func runServe(res *Result, p plan) {
	ctx := context.Background()
	fx, ok := timeSetups(res, p,
		func() (*serveFixture, error) { return setupServe(res.Workload, p.seed, p.sz, p.seconds) },
		func(f *serveFixture) { f.close() })
	if !ok {
		return
	}
	defer fx.close()

	refs, err := fx.references(ctx)
	if err != nil {
		res.note(err)
		return
	}
	res.Answers = refs
	before, err := fx.scrape()
	if err != nil {
		res.note(fmt.Errorf("scrape /metrics: %w", err))
		return
	}
	runtime.GC()
	alloc0 := heapAllocs()
	reqs, outs := fx.reqs, []serveOutcome(nil)
	if res.Workload == serveHit {
		outs = fx.driveOpen(refs, p.traced)
	} else if reqs, outs, err = fx.driveClosed(p.seconds, p.traced); err != nil {
		res.note(err)
		return
	}
	allocs := heapAllocs() - alloc0
	after, err := fx.scrape()
	if err != nil {
		res.note(fmt.Errorf("scrape /metrics: %w", err))
		return
	}
	if err := checkSolves(ctx, reqs, outs); err != nil {
		res.note(err)
	}

	// serve-solve sends as many requests as fit in the run, so its LP
	// counts are the mean over a fixed number of first requests, and
	// repeat exactly for a seed.
	counted := len(outs)
	if res.Workload == serveSolve {
		counted = min(counted, solveCounted)
	}
	acc := newTracedAcc()
	var (
		lat  []float64
		st   = map[string]float64{}
		last []obs.Event
	)
	for i, o := range outs {
		res.Attempted++
		if o.err != nil {
			res.fail(o.err)
			continue
		}
		lat = append(lat, ms(o.sample.latency()))
		// Tracing overhead and layer shares compare the requests' own
		// times: the generator's lateness is not their cost.
		d := ms(o.wait)
		if s := o.stats; s != nil && i < counted {
			st["core.lp_solves"] += float64(s.Solves)
			st["lp.pivots"] += float64(s.SimplexPivots)
			st["lp.dual_pivots"] += float64(s.DualPivots)
			st["lp.refactorizations"] += float64(s.Refactorizations)
			st["lp.presolve_rows"] += float64(s.PresolveRows)
			st["warm"] += float64(s.WarmStarts)
		}
		if !o.traced {
			acc.plain = append(acc.plain, d)
			continue
		}
		decoded := 0.0
		if reqs[i].kind == inlineReq {
			decoded = float64(len(reqs[i].body))
		}
		acc.add(o.layers, fromEvents(o.events), decoded, d)
		if o.stats != nil {
			last = o.events
		}
	}
	if res.Workload == serveHit {
		res.LateP50MS, res.LateMaxMS = lateness(outs)
	}
	res.Metrics["p50_ms"] = summarize(lat, 0.5, "ms")
	tails(res, lat)
	res.Metrics["alloc_mb_per_op"] = allocMetric(allocs, len(outs))
	counts, solveMS := serviceCounts(before, after, len(outs))
	res.Counts = counts
	for k, v := range st {
		if k != "warm" {
			res.Counts[k] = v / float64(max(counted, 1))
		}
	}
	if st["core.lp_solves"] > 0 {
		res.Counts["lp.warm_start_frac"] = st["warm"] / st["core.lp_solves"]
	}
	if p.traced {
		acc.layers(res, map[string]Metric{"service.solve_ms": {Value: solveMS, Unit: "ms", N: len(outs)}})
		writeChrome(res, p.outDir, last)
	}
}
