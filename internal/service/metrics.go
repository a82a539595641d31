package service

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"powercap"
	"powercap/internal/obs"
)

// Observability layer: lock-free counters and latency histograms exposed in
// a Prometheus-compatible text format at /metrics (with # HELP/# TYPE
// metadata for every family). Counter and histogram updates are plain
// atomics — the service's hot path (cache hit) must not take a lock to be
// counted; only the per-stage histogram registry (fed off the hot path,
// from harvested obs traces) takes a mutex.
//
// Every per-request count is folded from the request's wide event, in one
// place (fold): each family below is declared once, with how one event adds
// to it. Only what no event can hold is counted where it happens: requests
// and draining rejections at the door, before an event exists, the
// inflight gauge, the queue-wait and solve-latency timings, and the stage
// histograms, built from spans.

// A counterFamily is one integer counter of /metrics and how much one
// request's wide event adds to it. A nil fold marks a family counted at the
// door.
type counterFamily struct {
	name, help string
	fold       func(ev *obs.WideEvent) uint64
}

// counterFamilies are the integer counters, in /metrics order.
var counterFamilies = [...]counterFamily{
	{"pcschedd_requests_total", "API requests accepted into a handler.", nil},
	{"pcschedd_solves_total", "Backend LP solves run to completion.",
		func(ev *obs.WideEvent) uint64 { return countOf(ev.Solves) }},
	// A cache lookup that failed is neither a hit nor a miss.
	{"pcschedd_cache_hits_total", "Requests served without a backend solve (LRU hits plus coalesced).",
		func(ev *obs.WideEvent) uint64 {
			return oneIf(ev.Err == "" && (ev.Cache == "hit" || ev.Cache == "coalesced"))
		}},
	{"pcschedd_cache_misses_total", "Requests that ran a backend solve.",
		func(ev *obs.WideEvent) uint64 {
			return oneIf(ev.Err == "" && (ev.Cache == "miss" || ev.Cache == "bypass"))
		}},
	{"pcschedd_coalesced_total", "Cache hits that joined an in-flight identical solve.",
		func(ev *obs.WideEvent) uint64 { return oneIf(ev.Err == "" && ev.Cache == "coalesced") }},
	{"pcschedd_canceled_total", "Requests abandoned by deadline or client disconnect.",
		func(ev *obs.WideEvent) uint64 { return oneIf(ev.Status == http.StatusGatewayTimeout) }},
	// Queue-full rejections fold from their 429; draining ones are counted
	// at the door.
	{"pcschedd_rejected_total", "Admission-control rejections (queue full or draining).",
		func(ev *obs.WideEvent) uint64 { return oneIf(ev.Status == http.StatusTooManyRequests) }},
	{"pcschedd_bad_requests_total", "Malformed requests answered 400.",
		func(ev *obs.WideEvent) uint64 { return oneIf(ev.Status == http.StatusBadRequest) }},
	{"pcschedd_infeasible_total", "Solves that proved the power cap infeasible.",
		func(ev *obs.WideEvent) uint64 { return countOf(ev.Infeasible) }},
	{"pcschedd_warm_starts_total", "LP solves that started from a supplied basis: a prior solve's or the crash basis.",
		func(ev *obs.WideEvent) uint64 { return countOf(ev.Kernel.WarmStarts) }},
	{"pcschedd_pivots_total", "Simplex pivots across all backend solves.",
		func(ev *obs.WideEvent) uint64 { return countOf(ev.Kernel.SimplexPivots) }},
	{"pcschedd_panics_total", "Panics recovered in handlers or solve workers.",
		func(ev *obs.WideEvent) uint64 { return countOf(ev.Panics) }},
	{"pcschedd_degraded_total", "Solve responses served from below the ladder's top rung.",
		func(ev *obs.WideEvent) uint64 { return oneIf(ev.Degraded) }},
	{"pcschedd_fallback_heuristic_total", "Degraded responses produced by the slack-aware heuristic rung.",
		func(ev *obs.WideEvent) uint64 {
			return oneIf(ev.Degraded && ev.Rung == powercap.RungHeuristic.String())
		}},
	{"pcschedd_fallback_static_total", "Degraded responses produced by the static fair-share rung.",
		func(ev *obs.WideEvent) uint64 { return oneIf(ev.Degraded && ev.Rung == powercap.RungStatic.String()) }},
	{"pcschedd_cache_errors_total", "Cache faults that forced a request to bypass the schedule cache.",
		func(ev *obs.WideEvent) uint64 { return oneIf(ev.Cache == "bypass") }},
	{"pcschedd_traced_requests_total", "Requests that returned an inline trace (?trace=1).",
		func(ev *obs.WideEvent) uint64 { return oneIf(ev.Traced) }},
	{"pcschedd_trace_spans_dropped_total", "Spans discarded because a request trace hit its span bound.",
		func(ev *obs.WideEvent) uint64 { return countOf(ev.DroppedSpans) }},
	{"pcschedd_windowed_solves_total", "Solves routed through the windowed large-trace decomposition.",
		func(ev *obs.WideEvent) uint64 { return oneIf(ev.WindowsSolved > 0) }},
	{"pcschedd_windows_solved_total", "Event windows solved across all windowed solves.",
		func(ev *obs.WideEvent) uint64 { return countOf(ev.WindowsSolved) }},
	{"pcschedd_window_commit_solves_total", "Windowed phase-B commit re-solves (boundary-exact windows reuse their speculative solution instead).",
		func(ev *obs.WideEvent) uint64 { return countOf(ev.CommitSolves) }},
	{"pcschedd_window_warm_start_hits_total", "Commit solves that repaired a speculative basis with dual pivots.",
		func(ev *obs.WideEvent) uint64 { return countOf(ev.WarmStartHits) }},
	{"pcschedd_window_escalations_total", "Infeasible commit windows widened by the escalation ladder.",
		func(ev *obs.WideEvent) uint64 { return countOf(ev.Escalations) }},
	{"pcschedd_cluster_allocations_total", "Completed cluster power allocations (fresh allocator runs; cache hits excluded).",
		func(ev *obs.WideEvent) uint64 { return oneIf(ev.Jobs > 0) }},
	{"pcschedd_cluster_jobs_allocated_total", "Jobs placed across all cluster allocations.",
		func(ev *obs.WideEvent) uint64 { return countOf(ev.Jobs) }},
	{"pcschedd_cluster_degraded_jobs_total", "Jobs whose schedule could be read neither off their power-time walk nor from a fallback solve that agrees with it.",
		func(ev *obs.WideEvent) uint64 { return countOf(ev.DegradedJobs) }},
	{"pcschedd_cluster_infeasible_total", "Cluster requests whose budget fell below the sum of per-job feasibility floors.",
		func(ev *obs.WideEvent) uint64 { return oneIf(ev.BudgetInfeasible) }},
	{"pcschedd_lp_refactorizations_total", "Sparse-backend basis reinversions across all solves.",
		func(ev *obs.WideEvent) uint64 { return countOf(ev.Kernel.Refactorizations) }},
	{"pcschedd_lp_pivot_rejections_total", "LU threshold-pivoting row rejections during factorization.",
		func(ev *obs.WideEvent) uint64 { return countOf(ev.Kernel.PivotRejections) }},
	{"pcschedd_lp_factor_tau_retries_total", "Factorizations that fell back from relaxed to strict partial pivoting.",
		func(ev *obs.WideEvent) uint64 { return countOf(ev.Kernel.FactorTauRetries) }},
	{"pcschedd_lp_nan_recoveries_total", "Refactorize-and-retry repairs of non-finite solver state.",
		func(ev *obs.WideEvent) uint64 { return countOf(ev.Kernel.NaNRecoveries) }},
	{"pcschedd_lp_bland_activations_total", "Anti-cycling (Bland's rule) fallback engagements.",
		func(ev *obs.WideEvent) uint64 { return countOf(ev.Kernel.BlandActivations) }},
}

// A floatFamily is one float-valued family of /metrics: a running maximum
// ("gauge") or a running sum ("counter") of one number each wide event
// carries.
type floatFamily struct {
	name, help, typ string
	fold            func(ev *obs.WideEvent) float64
}

// floatFamilies are the float-valued families, in /metrics order.
var floatFamilies = [...]floatFamily{
	{"pcschedd_window_seam_violation_watts_max", "Worst cap excess observed at any window seam since start.", "gauge",
		func(ev *obs.WideEvent) float64 { return ev.SeamViolationW }},
	{"pcschedd_window_stitch_gap_pct_max", "Worst stitched-vs-simulated makespan gap (percent) since start.", "gauge",
		func(ev *obs.WideEvent) float64 { return ev.StitchGapPct }},
	{"pcschedd_lp_max_eta_len", "Peak basis-update (eta) file length observed across all solves.", "gauge",
		func(ev *obs.WideEvent) float64 { return float64(ev.Kernel.MaxEtaLen) }},
	{"pcschedd_lp_row_norm_ratio_max", "Worst post-scaling max/min row-norm ratio (conditioning proxy).", "gauge",
		func(ev *obs.WideEvent) float64 { return ev.Kernel.RowNormRatio }},
	{"pcschedd_cluster_moved_watts_total", "Watt volume cluster allocations moved away from the uniform split.", "counter",
		func(ev *obs.WideEvent) float64 { return ev.MovedW }},
}

func countOf(v int) uint64 {
	if v <= 0 {
		return 0
	}
	return uint64(v)
}

func oneIf(ok bool) uint64 {
	if ok {
		return 1
	}
	return 0
}

// counterIndex is the position of the named family in counterFamilies.
func counterIndex(name string) int {
	for i := range counterFamilies {
		if counterFamilies[i].name == name {
			return i
		}
	}
	panic("service: no counter family " + name)
}

// The two families counted at the door, before the request has an event.
var (
	requestsFamily = counterIndex("pcschedd_requests_total")
	rejectedFamily = counterIndex("pcschedd_rejected_total")
)

// Metrics aggregates the service's counters and histograms. All fields are
// safe for concurrent use.
type Metrics struct {
	counters [len(counterFamilies)]atomic.Uint64
	// floats holds each float family's value as float64 bits.
	floats [len(floatFamilies)]atomic.Uint64

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

// Counter reads the named integer counter family.
func (m *Metrics) Counter(name string) uint64 { return m.counters[counterIndex(name)].Load() }

// fold derives every per-request count from the request's finished wide
// event: the counter and float families, the request-latency histogram,
// the SLO sample, and the access line, which adds the method and remote
// address from r. It allocates nothing unless the access log is on.
func (s *Server) fold(ev *obs.WideEvent, r *http.Request) {
	m := &s.metrics
	for i := range counterFamilies {
		if f := counterFamilies[i].fold; f != nil {
			if v := f(ev); v > 0 {
				m.counters[i].Add(v)
			}
		}
	}
	for i := range floatFamilies {
		foldFloat(&m.floats[i], floatFamilies[i].fold(ev), floatFamilies[i].typ == "counter")
	}
	dur := time.Duration(math.Round(ev.DurMS * float64(time.Millisecond)))
	m.RequestLatency.Observe(dur)
	// 429s are deliberate backpressure — the engine excludes them — so
	// rejecting under overload cannot amplify its own burn.
	s.slo.Observe(time.Unix(0, ev.TimeUnixNS).Add(dur), ev.Status, dur)
	if s.logger != nil {
		s.logger.Info("request",
			"request_id", ev.RequestID,
			"method", r.Method,
			"path", ev.Path,
			"status", ev.Status,
			"dur_ms", ev.DurMS,
			"remote", r.RemoteAddr)
	}
}

// foldFloat adds v to the float64 held in bits (sum) or raises it to v
// (a running maximum), lock-free: non-negative IEEE-754 floats order as
// their bit patterns, so both are a CompareAndSwap loop on the bits.
// Samples that are not positive are ignored: the families are monotone,
// and a negative gap or excess means none.
func foldFloat(bits *atomic.Uint64, v float64, sum bool) {
	if !(v > 0) {
		return
	}
	for {
		ob := bits.Load()
		nb := math.Float64bits(v)
		if sum {
			nb = math.Float64bits(math.Float64frombits(ob) + v)
		} else if ob >= nb {
			return
		}
		if bits.CompareAndSwap(ob, nb) {
			return
		}
	}
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
	for i := range counterFamilies {
		c := &counterFamilies[i]
		writeMeta(w, c.name, c.help, "counter")
		fmt.Fprintf(w, "%s %d\n", c.name, m.counters[i].Load())
	}

	writeMeta(w, "pcschedd_inflight_requests", "API requests currently inside a handler.", "gauge")
	fmt.Fprintf(w, "pcschedd_inflight_requests %d\n", m.Inflight.Load())

	for i := range floatFamilies {
		f := &floatFamilies[i]
		writeMeta(w, f.name, f.help, f.typ)
		fmt.Fprintf(w, "%s %g\n", f.name, math.Float64frombits(m.floats[i].Load()))
	}

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
