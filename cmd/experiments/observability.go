package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"testing"
	"time"

	"powercap"
	"powercap/internal/obs"
	"powercap/internal/slo"
)

// The "observability" exhibit measures the tracing layer of DESIGN.md §11
// against its two budget claims. First, completeness: a traced solve of the
// full pipeline must produce a Chrome trace-event document that survives a
// JSON round-trip, passes strict nesting validation, and whose top-level
// spans cover ≥95% of the pipeline wall time (nothing substantial runs
// untraced). Second, cost: with no trace armed, an instrumentation site is
// one atomic load — the measured per-site cost times the number of sites a
// solve executes must stay under 2% of the solve's wall time, and the
// direct enabled-vs-disabled wall-time comparison is reported alongside.
//
// Third, the always-on forensics path (DESIGN.md §16): the hypothesis is
// that recording one wide event into the flight recorder plus one SLO
// observation — the fixed per-request cost the recorder adds to EVERY
// request, traced or not — stays under 2% of even a fast solve's wall time
// and allocates nothing. Both are measured directly (ns/op and allocs/op)
// and gated.
//
// With -benchjson the measurements are written as BENCH_observability.json.

// spanCount is one span name's occurrence count in the traced run.
type spanCount struct {
	Name  string `json:"name"`
	Count int    `json:"count"`
}

// observabilityReport is the BENCH_observability.json document.
type observabilityReport struct {
	Workload      string  `json:"workload"`
	Ranks         int     `json:"ranks"`
	Iters         int     `json:"iters"`
	CapPerSocketW float64 `json:"cap_per_socket_w"`

	// Traced-run completeness.
	Spans        int         `json:"spans"`
	DroppedSpans int         `json:"dropped_spans"`
	SpanNames    []spanCount `json:"span_names"`
	TracedWallMS float64     `json:"traced_wall_ms"`
	CoveragePct  float64     `json:"coverage_pct"` // root's children vs root duration
	NestingOK    bool        `json:"nesting_ok"`

	// Disabled-path budget.
	DisabledNSPerSite   float64 `json:"disabled_ns_per_site"`
	SteadySpanSites     int     `json:"steady_span_sites"`
	DisabledWallMS      float64 `json:"disabled_wall_ms"`
	EnabledWallMS       float64 `json:"enabled_wall_ms"`
	DisabledOverheadPct float64 `json:"disabled_overhead_pct"` // per-site cost × sites / disabled wall
	EnabledOverheadPct  float64 `json:"enabled_overhead_pct"`  // measured enabled vs disabled wall
	Trials              int     `json:"trials_per_mode"`

	// Always-on forensics budget (DESIGN.md §16).
	FlightRecordNSPerEvent float64 `json:"flight_record_ns_per_event"`
	FlightRecordAllocs     int64   `json:"flight_record_allocs_per_event"`
	SLOObserveNSPerSample  float64 `json:"slo_observe_ns_per_sample"`
	ForensicsOverheadPct   float64 `json:"forensics_overhead_pct"` // (record + observe) / disabled solve wall

	Generated string `json:"generated"`
}

func runObservability(cfg config) error {
	header("Observability", "span coverage, disabled-path overhead, and the always-on forensics budget (DESIGN.md §11, §16)")

	const perSocketW = 55.0
	w, err := powercap.WorkloadByName("CoMD", powercap.WorkloadParams{
		Ranks: cfg.ranks, Iterations: cfg.iters, Seed: cfg.seed, WorkScale: cfg.scale,
	})
	if err != nil {
		return err
	}
	jobCap := perSocketW * float64(cfg.ranks)
	solve := func(ctx context.Context, sys *powercap.System) error {
		_, _, err := sys.SolveRealizedCtx(ctx, w.Graph, jobCap, false, powercap.RealizeDown)
		return err
	}

	// --- Completeness: one traced solve on a fresh System, so every stage
	// (frontier and IR construction included) runs and records.
	sys := powercap.SystemFor(w, nil)
	tr := obs.NewTrace(0)
	ctx, root := obs.Start(obs.WithTrace(context.Background(), tr), "solve.pipeline")
	t0 := time.Now()
	serr := solve(ctx, sys)
	root.End()
	tracedWall := time.Since(t0)
	recs := tr.Snapshot()
	dropped := tr.Dropped()
	tr.Release()
	if serr != nil {
		return serr
	}

	var rootRec *obs.SpanRecord
	byName := map[string]int{}
	for i := range recs {
		byName[recs[i].Name]++
		if recs[i].Name == "solve.pipeline" {
			rootRec = &recs[i]
		}
	}
	if rootRec == nil {
		return fmt.Errorf("observability: root span missing from trace")
	}
	var childNS int64
	for _, r := range recs {
		if r.Parent == rootRec.ID {
			childNS += r.DurNS
		}
	}
	coverage := 100 * float64(childNS) / float64(rootRec.DurNS)

	// The document must survive a JSON round-trip (what pcsched -trace
	// writes and chrome://tracing loads) with its nesting intact.
	doc := obs.Document{TraceEvents: obs.ChromeEvents(recs), DisplayTimeUnit: "ms", DroppedSpans: dropped}
	data, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	var round obs.Document
	if err := json.Unmarshal(data, &round); err != nil {
		return err
	}
	nestErr := obs.CheckNesting(round.TraceEvents)

	names := make([]spanCount, 0, len(byName))
	for n, c := range byName {
		names = append(names, spanCount{Name: n, Count: c})
	}
	sort.Slice(names, func(i, j int) bool { return names[i].Name < names[j].Name })

	fmt.Printf("traced solve: %s ranks=%d cap=%.0f W/socket — %d spans, %.1f ms wall\n",
		w.Name, cfg.ranks, perSocketW, len(recs), ms(tracedWall))
	fmt.Printf("%-22s%8s\n", "span", "count")
	for _, n := range names {
		fmt.Printf("%-22s%8d\n", n.Name, n.Count)
	}
	fmt.Printf("root coverage: %.2f%% of pipeline wall time under top-level spans (budget ≥95%%)\n", coverage)
	if nestErr != nil {
		fmt.Printf("nesting: FAIL (%v)\n", nestErr)
	} else {
		fmt.Printf("nesting: ok (%d events, strict containment)\n", len(round.TraceEvents))
	}

	// --- Disabled-path budget. Per-site cost with no trace armed …
	if obs.Enabled() {
		return fmt.Errorf("observability: tracing still armed before disabled benchmark")
	}
	bctx := context.Background()
	br := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_, sp := obs.Start(bctx, "bench.site")
			sp.End()
		}
	})
	nsPerSite := float64(br.NsPerOp())

	// … times the sites a steady-state solve executes, against its wall
	// time. Interleaved min-of-trials on a warmed System keeps the
	// comparison cache-neutral.
	sysT := powercap.SystemFor(w, nil)
	if err := solve(context.Background(), sysT); err != nil {
		return err
	}
	const trials = 3
	minDisabled, minEnabled := time.Duration(0), time.Duration(0)
	steadySites := 0
	for i := 0; i < trials; i++ {
		t0 := time.Now()
		if err := solve(context.Background(), sysT); err != nil {
			return err
		}
		if d := time.Since(t0); minDisabled == 0 || d < minDisabled {
			minDisabled = d
		}

		ttr := obs.NewTrace(0)
		tctx, troot := obs.Start(obs.WithTrace(context.Background(), ttr), "solve.pipeline")
		t0 = time.Now()
		err := solve(tctx, sysT)
		troot.End()
		if d := time.Since(t0); minEnabled == 0 || d < minEnabled {
			minEnabled = d
		}
		steadySites = len(ttr.Snapshot()) + ttr.Dropped()
		ttr.Release()
		if err != nil {
			return err
		}
	}
	disabledPct := 100 * nsPerSite * float64(steadySites) / float64(minDisabled.Nanoseconds())
	enabledPct := 100 * (float64(minEnabled-minDisabled) / float64(minDisabled))

	fmt.Printf("\ndisabled site cost: %.1f ns/site (one atomic load), %d sites per solve\n", nsPerSite, steadySites)
	fmt.Printf("disabled overhead:  %.4f%% of %.1f ms solve (budget ≤2%%)\n", disabledPct, ms(minDisabled))
	fmt.Printf("enabled overhead:   %.2f%% (%.1f ms traced vs %.1f ms untraced, min of %d)\n",
		enabledPct, ms(minEnabled), ms(minDisabled), trials)

	// --- Always-on forensics budget: one wide-event record plus one SLO
	// observation per request, measured against the same solve wall time.
	fr := obs.NewFlightRecorder(0)
	ev := obs.WideEvent{
		TimeUnixNS: 1, RequestID: "bench-0123456789abcdef", Path: "/v1/solve",
		Status: 200, DurMS: 12.5, Workload: w.Name, CapW: jobCap,
		Cache: "miss", CacheKey: "0123456789abcdef0123456789abcdef", Rung: "sparse",
		DeadlineMS: 60000, SolveMS: 12.1,
		SLOFastBurn: 0.4, SLOSlowBurn: 0.1,
		Kernel: obs.KernelHealth{Solves: 4, SimplexPivots: 900, Refactorizations: 2, MaxEtaLen: 64},
	}
	recBench := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			fr.Record(ev)
		}
	})
	recNS := float64(recBench.NsPerOp())
	recAllocs := recBench.AllocsPerOp()

	eng := slo.New(slo.Config{})
	now := time.Now()
	sloBench := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			eng.Observe(now, 200, 10*time.Millisecond)
		}
	})
	sloNS := float64(sloBench.NsPerOp())
	forensicsPct := 100 * (recNS + sloNS) / float64(minDisabled.Nanoseconds())

	fmt.Printf("\nflight record:      %.1f ns/event, %d allocs/event (budget: 0)\n", recNS, recAllocs)
	fmt.Printf("slo observe:        %.1f ns/sample\n", sloNS)
	fmt.Printf("forensics overhead: %.5f%% of %.1f ms solve (budget ≤2%%)\n", forensicsPct, ms(minDisabled))

	report := observabilityReport{
		Workload: w.Name, Ranks: cfg.ranks, Iters: cfg.iters, CapPerSocketW: perSocketW,
		Spans: len(recs), DroppedSpans: dropped, SpanNames: names,
		TracedWallMS: ms(tracedWall), CoveragePct: coverage, NestingOK: nestErr == nil,
		DisabledNSPerSite: nsPerSite, SteadySpanSites: steadySites,
		DisabledWallMS: ms(minDisabled), EnabledWallMS: ms(minEnabled),
		DisabledOverheadPct: disabledPct, EnabledOverheadPct: enabledPct,
		Trials:                 trials,
		FlightRecordNSPerEvent: recNS, FlightRecordAllocs: recAllocs,
		SLOObserveNSPerSample: sloNS, ForensicsOverheadPct: forensicsPct,
		Generated: time.Now().UTC().Format(time.RFC3339),
	}
	if cfg.benchJSON != "" {
		data, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(cfg.benchJSON, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", cfg.benchJSON)
	}

	switch {
	case nestErr != nil:
		return fmt.Errorf("observability: nesting check failed: %w", nestErr)
	case coverage < 95:
		return fmt.Errorf("observability: span coverage %.2f%% below the 95%% budget", coverage)
	case disabledPct > 2:
		return fmt.Errorf("observability: disabled overhead %.4f%% exceeds the 2%% budget", disabledPct)
	case recAllocs > 0:
		return fmt.Errorf("observability: flight record allocates %d per event, want 0", recAllocs)
	case forensicsPct > 2:
		return fmt.Errorf("observability: forensics overhead %.5f%% exceeds the 2%% budget", forensicsPct)
	}
	return nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
