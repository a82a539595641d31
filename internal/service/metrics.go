package service

import (
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Observability layer: lock-free counters and latency histograms exposed in
// a Prometheus-compatible text format at /metrics (with # HELP/# TYPE
// metadata for every family). Counter and histogram updates are plain
// atomics — the service's hot path (cache hit) must not take a lock to be
// counted; only the per-stage histogram registry (fed off the hot path,
// from harvested obs traces) takes a mutex.

// Metrics aggregates the service's counters and histograms. All fields are
// safe for concurrent use; read them with atomic loads (or Snapshot).
type Metrics struct {
	// Requests counts every API request accepted into a handler
	// (including ones later rejected by admission control).
	Requests atomic.Uint64
	// Solves counts backend LP solves that ran to completion. The
	// singleflight load test's "exactly 1 backend solve for 64 identical
	// requests" asserts on this counter.
	Solves atomic.Uint64
	// CacheHits counts requests served without a backend solve: LRU hits
	// plus requests coalesced onto an in-flight identical solve.
	CacheHits atomic.Uint64
	// CacheMisses counts requests that had to run a backend solve.
	CacheMisses atomic.Uint64
	// Coalesced is the subset of CacheHits that joined an in-flight solve
	// (singleflight) rather than finding a finished schedule.
	Coalesced atomic.Uint64
	// Canceled counts requests abandoned by deadline or client disconnect,
	// observed as a cancellation surfacing from the LP pivot loops.
	Canceled atomic.Uint64
	// Rejected counts admission-control rejections (queue full, draining).
	Rejected atomic.Uint64
	// BadRequests counts malformed requests (400s).
	BadRequests atomic.Uint64
	// Infeasible counts solves that proved the cap infeasible.
	Infeasible atomic.Uint64
	// WarmStarts and Pivots accumulate solver effort across all backend
	// solves (sweep points included).
	WarmStarts atomic.Uint64
	Pivots     atomic.Uint64
	// Panics counts panics recovered anywhere in the service — a solve
	// worker or an HTTP handler. Each one is a contained 500 (or a clean
	// worker retry), never a daemon death.
	Panics atomic.Uint64
	// Degraded counts solve responses served from below the fallback
	// ladder's top rung; the Fallback* counters break them out by the rung
	// that produced the schedule.
	Degraded          atomic.Uint64
	FallbackHeuristic atomic.Uint64
	FallbackStatic    atomic.Uint64
	// SolveRetries counts backoff retries the ladder spent on numerical
	// failures before succeeding or descending.
	SolveRetries atomic.Uint64
	// CacheErrors counts cache-backend faults (injected or real) that forced
	// a request to bypass the schedule cache and solve directly.
	CacheErrors atomic.Uint64
	// WindowedSolves counts solves routed through the windowed large-trace
	// decomposition (?windows= / ?coarsen_eps=); WindowsSolved accumulates
	// the realized window counts across them, WindowCommitSolves the
	// phase-B re-solves, WindowWarmStartHits the commit solves that repaired
	// a speculative basis (their ratio is the fleet warm-start hit rate),
	// and WindowEscalations the infeasible windows that had to widen.
	WindowedSolves      atomic.Uint64
	WindowsSolved       atomic.Uint64
	WindowCommitSolves  atomic.Uint64
	WindowWarmStartHits atomic.Uint64
	WindowEscalations   atomic.Uint64
	// WindowSeamViolationW tracks the worst cap excess observed at any
	// window seam (floating-point noise unless stitching is broken);
	// WindowStitchGapPct the worst stitched-vs-simulated makespan gap.
	WindowSeamViolationW FloatMaxGauge
	WindowStitchGapPct   FloatMaxGauge
	// ClusterAllocations counts completed /v1/cluster allocations (cache
	// hits excluded — only fresh allocator runs); ClusterJobsAllocated the
	// jobs they placed; ClusterConverged the allocations that reached the
	// market's marginal-spread tolerance; ClusterDegradedJobs the jobs
	// frozen at a last-good cap after a mid-allocation solver breakdown;
	// ClusterInfeasible the requests whose budget fell below the sum of
	// per-job feasibility floors. ClusterIterations is the distribution of
	// allocator iterations per run, and ClusterMovedWatts accumulates the
	// watt-volume the allocator redistributed away from its starting split.
	ClusterAllocations   atomic.Uint64
	ClusterJobsAllocated atomic.Uint64
	ClusterConverged     atomic.Uint64
	ClusterDegradedJobs  atomic.Uint64
	ClusterInfeasible    atomic.Uint64
	ClusterIterations    CountHistogram
	ClusterMovedWatts    FloatCounter
	// ShedDeadline counts solves rejected by deadline-aware shedding (the
	// controller judged they could not finish inside their deadline);
	// ShedRetryBudget counts retries rejected because the retry-budget
	// token bucket was empty. Both are rendered as pcschedd_shed_total
	// broken out by reason; both answer 429 + Retry-After.
	ShedDeadline    atomic.Uint64
	ShedRetryBudget atomic.Uint64
	// AdaptEpochs counts control-plane epochs stepped; AdaptTransitions the
	// brownout-ladder transitions among them; BrownoutSolves the solves the
	// active rung rerouted onto a cheaper mode.
	AdaptEpochs      atomic.Uint64
	AdaptTransitions atomic.Uint64
	BrownoutSolves   atomic.Uint64
	// LP numerical-health families (DESIGN.md §16), accumulated across
	// every backend solve: basis reinversions, LU threshold-pivoting row
	// rejections, factorizations retried under strict pivoting, NaN/Inf
	// refactorize-and-retry repairs, anti-cycling (Bland) fallbacks, and
	// presolve eliminations. LPMaxEtaLen tracks the worst product-form
	// update-file growth and LPRowNormRatio the worst post-scaling max/min
	// row-norm ratio — the two conditioning proxies.
	LPRefactorizations atomic.Uint64
	LPPivotRejections  atomic.Uint64
	LPTauRetries       atomic.Uint64
	LPNaNRecoveries    atomic.Uint64
	LPBlandActivations atomic.Uint64
	LPPresolveRows     atomic.Uint64
	LPPresolveCols     atomic.Uint64
	LPMaxEtaLen        FloatMaxGauge
	LPRowNormRatio     FloatMaxGauge
	// TracedRequests counts requests that asked for (and got) an inline
	// trace (?trace=1); TraceSpansDropped accumulates spans those traces
	// discarded at their bound, so truncation is visible fleet-wide.
	TracedRequests    atomic.Uint64
	TraceSpansDropped atomic.Uint64
	// Inflight is the number of API requests currently inside a handler.
	Inflight atomic.Int64

	// QueueWait measures time spent waiting for a worker slot;
	// SolveLatency the backend solve alone; RequestLatency the full
	// handler (decode → respond).
	QueueWait      Histogram
	SolveLatency   Histogram
	RequestLatency Histogram

	// stages holds per-pipeline-stage latency histograms keyed by obs span
	// name (lp.phase1, problem.build, resilience.sparse, …), fed by
	// harvesting each traced request's spans after the handler returns.
	// The resilience.<rung> entries double as the per-rung ladder latency
	// histograms.
	stageMu sync.Mutex
	stages  map[string]*Histogram
}

// ObserveStage records one pipeline-stage duration under the stage's span
// name. Stage names become label values, so only obs span names (a fixed,
// code-defined vocabulary) should reach here.
func (m *Metrics) ObserveStage(stage string, d time.Duration) {
	m.stageMu.Lock()
	h, ok := m.stages[stage]
	if !ok {
		if m.stages == nil {
			m.stages = make(map[string]*Histogram)
		}
		h = &Histogram{}
		m.stages[stage] = h
	}
	m.stageMu.Unlock()
	h.Observe(d)
}

// StageNames lists the stages observed so far, sorted.
func (m *Metrics) StageNames() []string {
	m.stageMu.Lock()
	defer m.stageMu.Unlock()
	names := make([]string, 0, len(m.stages))
	for n := range m.stages {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// FloatMaxGauge is a lock-free running-maximum gauge over non-negative
// float64 samples. Non-negative IEEE-754 floats order identically to their
// bit patterns, so the maximum is a plain CompareAndSwap loop on the bits.
// The zero value reads 0.
type FloatMaxGauge struct{ bits atomic.Uint64 }

// StoreMax raises the gauge to v if v exceeds the current maximum.
// Negative samples are clamped to 0 (the gauge tracks violations/gaps,
// where negative means "none").
func (g *FloatMaxGauge) StoreMax(v float64) {
	if v <= 0 {
		return
	}
	nb := math.Float64bits(v)
	for {
		ob := g.bits.Load()
		if ob >= nb || g.bits.CompareAndSwap(ob, nb) {
			return
		}
	}
}

// Load reports the maximum observed so far.
func (g *FloatMaxGauge) Load() float64 { return math.Float64frombits(g.bits.Load()) }

// FloatCounter is a lock-free monotonically increasing float64 counter
// (CompareAndSwap on the bits) for accumulating physical quantities —
// watt-volume, joules — where integer counters lose the fractions.
// The zero value reads 0.
type FloatCounter struct{ bits atomic.Uint64 }

// Add increases the counter by v; non-positive deltas are ignored (the
// counter is monotone by contract).
func (c *FloatCounter) Add(v float64) {
	if v <= 0 || math.IsNaN(v) {
		return
	}
	for {
		ob := c.bits.Load()
		nb := math.Float64bits(math.Float64frombits(ob) + v)
		if c.bits.CompareAndSwap(ob, nb) {
			return
		}
	}
}

// Load reports the accumulated total.
func (c *FloatCounter) Load() float64 { return math.Float64frombits(c.bits.Load()) }

// countBounds are the CountHistogram bucket upper bounds: powers of two
// from 1 to 256, matched to iteration-style counts (a converged market run
// takes a handful to a few dozen transfers; MaxIterations defaults to 64).
var countBounds = [...]float64{1, 2, 4, 8, 16, 32, 64, 128, 256}

// CountHistogram is a fixed-bucket histogram over small non-negative
// integer observations (allocator iterations, retries) with atomic
// counters. The latency Histogram's seconds-scaled buckets are useless for
// counts; this one buckets at powers of two. The zero value is ready.
type CountHistogram struct {
	counts [len(countBounds) + 1]atomic.Uint64 // +1 for +Inf
	sum    atomic.Uint64
	count  atomic.Uint64
}

// Observe records one count.
func (h *CountHistogram) Observe(n int) {
	if n < 0 {
		n = 0
	}
	v := float64(n)
	i := 0
	for ; i < len(countBounds); i++ {
		if v <= countBounds[i] {
			break
		}
	}
	h.counts[i].Add(1)
	h.sum.Add(uint64(n))
	h.count.Add(1)
}

// Count reports how many observations the histogram holds.
func (h *CountHistogram) Count() uint64 { return h.count.Load() }

// writeCountHistogram renders one count histogram in Prometheus text format.
func writeCountHistogram(w io.Writer, name string, h *CountHistogram) {
	var cum uint64
	for i, b := range countBounds {
		cum += h.counts[i].Load()
		fmt.Fprintf(w, "%s_bucket{le=\"%g\"} %d\n", name, b, cum)
	}
	cum += h.counts[len(countBounds)].Load()
	fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", name, cum)
	fmt.Fprintf(w, "%s_sum %d\n", name, h.sum.Load())
	fmt.Fprintf(w, "%s_count %d\n", name, h.count.Load())
}

// latencyBounds are the histogram bucket upper bounds in seconds,
// log-spaced from 5 µs to 30 s — pipeline stages run from microseconds
// (a cached frontier lookup, one refactorization) through sub-ms cache
// hits up to tens of seconds (32-rank cold solves).
var latencyBounds = [...]float64{
	0.000005, 0.00001, 0.000025, 0.00005,
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
	0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30,
}

// Histogram is a fixed-bucket latency histogram with atomic counters. The
// zero value is ready to use (buckets are latencyBounds).
type Histogram struct {
	counts [len(latencyBounds) + 1]atomic.Uint64 // +1 for +Inf
	sumNS  atomic.Int64
	count  atomic.Uint64
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	s := d.Seconds()
	i := 0
	for ; i < len(latencyBounds); i++ {
		if s <= latencyBounds[i] {
			break
		}
	}
	h.counts[i].Add(1)
	h.sumNS.Add(int64(d))
	h.count.Add(1)
}

// Count reports how many observations the histogram holds.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Quantile approximates the q'th quantile (0 < q < 1) by linear
// interpolation within the containing bucket; the +Inf bucket reports its
// lower bound. Returns 0 for an empty histogram.
func (h *Histogram) Quantile(q float64) float64 {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	target := uint64(q * float64(total))
	if target >= total {
		target = total - 1
	}
	var cum uint64
	lower := 0.0
	for i := 0; i <= len(latencyBounds); i++ {
		c := h.counts[i].Load()
		if cum+c > target {
			if i == len(latencyBounds) {
				return lower // open-ended bucket: report its floor
			}
			upper := latencyBounds[i]
			if c == 0 {
				return upper
			}
			frac := float64(target-cum) / float64(c)
			return lower + frac*(upper-lower)
		}
		cum += c
		if i < len(latencyBounds) {
			lower = latencyBounds[i]
		}
	}
	return lower
}

// writeHistogram renders one histogram series in Prometheus text format.
// labels, when non-empty, is a rendered label pair ("stage=\"lp.solve\"")
// spliced into every sample of the series (alongside le on buckets).
func writeHistogram(w io.Writer, name string, h *Histogram) {
	writeHistogramLabeled(w, name, "", h)
}

func writeHistogramLabeled(w io.Writer, name, labels string, h *Histogram) {
	sep := ""
	if labels != "" {
		sep = labels + ","
	}
	var cum uint64
	for i, b := range latencyBounds {
		cum += h.counts[i].Load()
		fmt.Fprintf(w, "%s_bucket{%sle=\"%g\"} %d\n", name, sep, b, cum)
	}
	cum += h.counts[len(latencyBounds)].Load()
	fmt.Fprintf(w, "%s_bucket{%sle=\"+Inf\"} %d\n", name, sep, cum)
	if labels != "" {
		labels = "{" + labels + "}"
	}
	fmt.Fprintf(w, "%s_sum%s %g\n", name, labels, time.Duration(h.sumNS.Load()).Seconds())
	fmt.Fprintf(w, "%s_count%s %d\n", name, labels, h.count.Load())
}

// writeMeta emits the # HELP / # TYPE preamble of one metric family.
func writeMeta(w io.Writer, name, help, typ string) {
	fmt.Fprintf(w, "# HELP %s %s\n", name, help)
	fmt.Fprintf(w, "# TYPE %s %s\n", name, typ)
}

// Render writes every counter and histogram in Prometheus text format,
// each family preceded by its # HELP and # TYPE metadata.
func (m *Metrics) Render(w io.Writer) {
	counters := []struct {
		name, help string
		v          uint64
	}{
		{"pcschedd_requests_total", "API requests accepted into a handler.", m.Requests.Load()},
		{"pcschedd_solves_total", "Backend LP solves run to completion.", m.Solves.Load()},
		{"pcschedd_cache_hits_total", "Requests served without a backend solve (LRU hits plus coalesced).", m.CacheHits.Load()},
		{"pcschedd_cache_misses_total", "Requests that ran a backend solve.", m.CacheMisses.Load()},
		{"pcschedd_coalesced_total", "Cache hits that joined an in-flight identical solve.", m.Coalesced.Load()},
		{"pcschedd_canceled_total", "Requests abandoned by deadline or client disconnect.", m.Canceled.Load()},
		{"pcschedd_rejected_total", "Admission-control rejections (queue full or draining).", m.Rejected.Load()},
		{"pcschedd_bad_requests_total", "Malformed requests answered 400.", m.BadRequests.Load()},
		{"pcschedd_infeasible_total", "Solves that proved the power cap infeasible.", m.Infeasible.Load()},
		{"pcschedd_warm_starts_total", "LP solves that reused a prior basis.", m.WarmStarts.Load()},
		{"pcschedd_pivots_total", "Simplex pivots across all backend solves.", m.Pivots.Load()},
		{"pcschedd_panics_total", "Panics recovered in handlers or solve workers.", m.Panics.Load()},
		{"pcschedd_degraded_total", "Solve responses served from below the ladder's top rung.", m.Degraded.Load()},
		{"pcschedd_fallback_heuristic_total", "Degraded responses produced by the slack-aware heuristic rung.", m.FallbackHeuristic.Load()},
		{"pcschedd_fallback_static_total", "Degraded responses produced by the static fair-share rung.", m.FallbackStatic.Load()},
		{"pcschedd_solve_retries_total", "Backoff retries spent on numerical solve failures.", m.SolveRetries.Load()},
		{"pcschedd_cache_errors_total", "Cache faults that forced a request to bypass the schedule cache.", m.CacheErrors.Load()},
		{"pcschedd_traced_requests_total", "Requests that returned an inline trace (?trace=1).", m.TracedRequests.Load()},
		{"pcschedd_trace_spans_dropped_total", "Spans discarded because a request trace hit its span bound.", m.TraceSpansDropped.Load()},
		{"pcschedd_windowed_solves_total", "Solves routed through the windowed large-trace decomposition.", m.WindowedSolves.Load()},
		{"pcschedd_windows_solved_total", "Event windows solved across all windowed solves.", m.WindowsSolved.Load()},
		{"pcschedd_window_commit_solves_total", "Windowed phase-B commit re-solves (boundary-exact windows reuse their speculative solution instead).", m.WindowCommitSolves.Load()},
		{"pcschedd_window_warm_start_hits_total", "Commit solves that repaired a speculative basis with dual pivots.", m.WindowWarmStartHits.Load()},
		{"pcschedd_window_escalations_total", "Infeasible commit windows widened by the escalation ladder.", m.WindowEscalations.Load()},
		{"pcschedd_cluster_allocations_total", "Completed cluster power allocations (fresh allocator runs; cache hits excluded).", m.ClusterAllocations.Load()},
		{"pcschedd_cluster_jobs_allocated_total", "Jobs placed across all cluster allocations.", m.ClusterJobsAllocated.Load()},
		{"pcschedd_cluster_converged_total", "Cluster allocations that reached the marginal-spread tolerance.", m.ClusterConverged.Load()},
		{"pcschedd_cluster_degraded_jobs_total", "Jobs frozen at a last-good cap after a mid-allocation solver breakdown.", m.ClusterDegradedJobs.Load()},
		{"pcschedd_cluster_infeasible_total", "Cluster requests whose budget fell below the sum of per-job feasibility floors.", m.ClusterInfeasible.Load()},
		{"pcschedd_adapt_epochs_total", "Adaptive control-plane epochs stepped.", m.AdaptEpochs.Load()},
		{"pcschedd_adapt_transitions_total", "Brownout-ladder transitions (either direction).", m.AdaptTransitions.Load()},
		{"pcschedd_brownout_solves_total", "Solves rerouted onto a cheaper mode by the active brownout rung.", m.BrownoutSolves.Load()},
		{"pcschedd_lp_refactorizations_total", "Sparse-backend basis reinversions across all solves.", m.LPRefactorizations.Load()},
		{"pcschedd_lp_pivot_rejections_total", "LU threshold-pivoting row rejections during factorization.", m.LPPivotRejections.Load()},
		{"pcschedd_lp_factor_tau_retries_total", "Factorizations that fell back from relaxed to strict partial pivoting.", m.LPTauRetries.Load()},
		{"pcschedd_lp_nan_recoveries_total", "Refactorize-and-retry repairs of non-finite solver state.", m.LPNaNRecoveries.Load()},
		{"pcschedd_lp_bland_activations_total", "Anti-cycling (Bland's rule) fallback engagements.", m.LPBlandActivations.Load()},
		{"pcschedd_lp_presolve_rows_total", "Constraint rows eliminated by presolve across all solves.", m.LPPresolveRows.Load()},
		{"pcschedd_lp_presolve_cols_total", "Columns eliminated by presolve across all solves.", m.LPPresolveCols.Load()},
	}
	for _, c := range counters {
		writeMeta(w, c.name, c.help, "counter")
		fmt.Fprintf(w, "%s %d\n", c.name, c.v)
	}

	// Shed rejections, broken out by reason. Both label values render
	// unconditionally so the family always carries samples (the metrics
	// conformance test requires every declared family to be scrapeable).
	writeMeta(w, "pcschedd_shed_total", "Requests shed by the adaptive control plane, by reason.", "counter")
	fmt.Fprintf(w, "pcschedd_shed_total{reason=\"deadline\"} %d\n", m.ShedDeadline.Load())
	fmt.Fprintf(w, "pcschedd_shed_total{reason=\"retry_budget\"} %d\n", m.ShedRetryBudget.Load())

	writeMeta(w, "pcschedd_inflight_requests", "API requests currently inside a handler.", "gauge")
	fmt.Fprintf(w, "pcschedd_inflight_requests %d\n", m.Inflight.Load())

	writeMeta(w, "pcschedd_window_seam_violation_watts_max", "Worst cap excess observed at any window seam since start.", "gauge")
	fmt.Fprintf(w, "pcschedd_window_seam_violation_watts_max %g\n", m.WindowSeamViolationW.Load())
	writeMeta(w, "pcschedd_window_stitch_gap_pct_max", "Worst stitched-vs-simulated makespan gap (percent) since start.", "gauge")
	fmt.Fprintf(w, "pcschedd_window_stitch_gap_pct_max %g\n", m.WindowStitchGapPct.Load())

	writeMeta(w, "pcschedd_lp_max_eta_len", "Peak basis-update (eta) file length observed across all solves.", "gauge")
	fmt.Fprintf(w, "pcschedd_lp_max_eta_len %g\n", m.LPMaxEtaLen.Load())
	writeMeta(w, "pcschedd_lp_row_norm_ratio_max", "Worst post-scaling max/min row-norm ratio (conditioning proxy).", "gauge")
	fmt.Fprintf(w, "pcschedd_lp_row_norm_ratio_max %g\n", m.LPRowNormRatio.Load())

	writeMeta(w, "pcschedd_cluster_moved_watts_total", "Watt-volume the cluster allocator redistributed away from its starting split.", "counter")
	fmt.Fprintf(w, "pcschedd_cluster_moved_watts_total %g\n", m.ClusterMovedWatts.Load())

	writeMeta(w, "pcschedd_cluster_iterations", "Allocator iterations per cluster allocation.", "histogram")
	writeCountHistogram(w, "pcschedd_cluster_iterations", &m.ClusterIterations)

	writeMeta(w, "pcschedd_queue_wait_seconds", "Time spent waiting for a solve worker slot.", "histogram")
	writeHistogram(w, "pcschedd_queue_wait_seconds", &m.QueueWait)
	writeMeta(w, "pcschedd_solve_latency_seconds", "Backend solve time alone.", "histogram")
	writeHistogram(w, "pcschedd_solve_latency_seconds", &m.SolveLatency)
	writeMeta(w, "pcschedd_request_latency_seconds", "Full handler time, decode to respond.", "histogram")
	writeHistogram(w, "pcschedd_request_latency_seconds", &m.RequestLatency)

	stages := m.StageNames()
	if len(stages) > 0 {
		writeMeta(w, "pcschedd_stage_latency_seconds",
			"Per-pipeline-stage latency by obs span name (resilience.* entries are the per-rung ladder latencies).",
			"histogram")
		for _, name := range stages {
			m.stageMu.Lock()
			h := m.stages[name]
			m.stageMu.Unlock()
			writeHistogramLabeled(w, "pcschedd_stage_latency_seconds", fmt.Sprintf("stage=%q", name), h)
		}
	}
}
