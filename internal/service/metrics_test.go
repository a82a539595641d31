package service

import (
	"bufio"
	"fmt"
	"math"
	"net/http"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"
)

// ---------------------------------------------------------------------------
// Prometheus exposition conformance: parse the full /metrics output of a
// live server line by line and hold it to the text-format contract — every
// family announced with # HELP and # TYPE before its samples, legal metric
// and label names, parseable values, cumulative bucket monotonicity, and
// _sum/_count consistency for every histogram series.
// ---------------------------------------------------------------------------

var (
	metricNameRe = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	labelRe      = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*="[^"]*"$`)
)

// sample is one parsed non-comment exposition line.
type sample struct {
	name   string
	labels map[string]string
	value  float64
	line   string
}

func parseSample(t *testing.T, line string) sample {
	t.Helper()
	s := sample{labels: map[string]string{}, line: line}
	rest := line
	if i := strings.IndexByte(line, '{'); i >= 0 {
		j := strings.IndexByte(line, '}')
		if j < i {
			t.Fatalf("malformed label block in %q", line)
		}
		s.name = line[:i]
		for _, pair := range strings.Split(line[i+1:j], ",") {
			if !labelRe.MatchString(pair) {
				t.Fatalf("malformed label %q in %q", pair, line)
			}
			eq := strings.IndexByte(pair, '=')
			s.labels[pair[:eq]] = strings.Trim(pair[eq+1:], `"`)
		}
		rest = strings.TrimSpace(line[j+1:])
	} else {
		fields := strings.Fields(line)
		if len(fields) != 2 {
			t.Fatalf("sample line %q is not \"name value\"", line)
		}
		s.name, rest = fields[0], fields[1]
	}
	if !metricNameRe.MatchString(s.name) {
		t.Fatalf("illegal metric name in %q", line)
	}
	v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
	if err != nil {
		t.Fatalf("unparseable value in %q: %v", line, err)
	}
	s.value = v
	return s
}

// family strips the histogram sample suffixes so a _bucket/_sum/_count line
// maps back to the declared metric family.
func family(name string, types map[string]string) string {
	for _, suf := range []string{"_bucket", "_sum", "_count"} {
		base := strings.TrimSuffix(name, suf)
		if base != name && types[base] == "histogram" {
			return base
		}
	}
	return name
}

func TestMetricsConformance(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	// Exercise enough of the service that every dynamic family renders:
	// a traced solve (stage histograms + traced counter), a repeat (cache
	// hit), a bad request, and a cluster allocation (cluster counters, the
	// iteration count histogram, and the moved-watts float counter).
	if code, body := postJSON(t, ts.URL+"/v1/solve?trace=1",
		SolveRequest{Workload: fastWL, CapPerSocketW: 50}); code != http.StatusOK {
		t.Fatalf("solve: %d (%s)", code, body)
	}
	postJSON(t, ts.URL+"/v1/solve", SolveRequest{Workload: fastWL, CapPerSocketW: 50})
	postJSON(t, ts.URL+"/v1/solve", SolveRequest{Workload: fastWL})
	if code, body := postJSON(t, ts.URL+"/v1/cluster", ClusterRequest{
		Jobs: []ClusterJobSpec{
			{Name: "a", Workload: fastWL},
			{Name: "b", Workload: &WorkloadSpec{Name: "SP", Ranks: 2, Iters: 3, Seed: 2, Scale: 0.15}},
		},
		BudgetW: 130,
	}); code != http.StatusOK {
		t.Fatalf("cluster: %d (%s)", code, body)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type %q", ct)
	}

	helps := map[string]string{} // family -> help
	types := map[string]string{} // family -> counter|gauge|histogram
	var samples []sample
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.SplitN(line, " ", 4)
			if len(fields) < 4 || (fields[1] != "HELP" && fields[1] != "TYPE") {
				t.Fatalf("malformed comment line %q", line)
			}
			name := fields[2]
			if !metricNameRe.MatchString(name) {
				t.Fatalf("illegal family name in %q", line)
			}
			switch fields[1] {
			case "HELP":
				if _, dup := helps[name]; dup {
					t.Fatalf("duplicate HELP for %s", name)
				}
				helps[name] = fields[3]
			case "TYPE":
				if _, dup := types[name]; dup {
					t.Fatalf("duplicate TYPE for %s", name)
				}
				switch fields[3] {
				case "counter", "gauge", "histogram":
				default:
					t.Fatalf("unknown type in %q", line)
				}
				types[name] = fields[3]
			}
			continue
		}
		samples = append(samples, parseSample(t, line))
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}

	// Every sample belongs to a family declared with both HELP and TYPE;
	// every declared family has at least one sample.
	seen := map[string]bool{}
	for _, s := range samples {
		fam := family(s.name, types)
		if _, ok := types[fam]; !ok {
			t.Errorf("sample %q has no # TYPE", s.line)
		}
		if _, ok := helps[fam]; !ok {
			t.Errorf("sample %q has no # HELP", s.line)
		}
		if types[fam] != "histogram" && s.name != fam {
			t.Errorf("sample %q does not match its family name %q", s.line, fam)
		}
		if s.value < 0 || math.IsNaN(s.value) {
			t.Errorf("negative or NaN sample %q", s.line)
		}
		seen[fam] = true
	}
	for fam := range types {
		if !seen[fam] {
			t.Errorf("family %s declared but has no samples", fam)
		}
		if _, ok := helps[fam]; !ok {
			t.Errorf("family %s has TYPE but no HELP", fam)
		}
	}
	for fam := range helps {
		if _, ok := types[fam]; !ok {
			t.Errorf("family %s has HELP but no TYPE", fam)
		}
	}
	for _, fam := range []string{
		"pcschedd_requests_total", "pcschedd_solves_total",
		"pcschedd_traced_requests_total", "pcschedd_inflight_requests",
		"pcschedd_request_latency_seconds", "pcschedd_stage_latency_seconds",
		"pcschedd_goroutines", "pcschedd_cache_entries", "pcschedd_build_info",
		"pcschedd_cluster_allocations_total", "pcschedd_cluster_jobs_allocated_total",
		"pcschedd_cluster_moved_watts_total",
		"pcschedd_queue_occupancy",
		"pcschedd_lp_refactorizations_total", "pcschedd_lp_pivot_rejections_total",
		"pcschedd_lp_factor_tau_retries_total", "pcschedd_lp_nan_recoveries_total",
		"pcschedd_lp_bland_activations_total", "pcschedd_lp_max_eta_len",
		"pcschedd_lp_row_norm_ratio_max",
		"pcschedd_slo_fast_burn", "pcschedd_slo_slow_burn",
		"pcschedd_slo_window_good", "pcschedd_slo_window_total",
		"pcschedd_flightrecorder_events_total",
	} {
		if !seen[fam] {
			t.Errorf("expected family %s missing from /metrics", fam)
		}
	}

	// Histogram invariants per series (name + labels minus le): cumulative
	// buckets monotone in le order, a +Inf bucket equal to _count, and a
	// _sum consistent with the observation count.
	type series struct {
		buckets []sample // in exposition order
		sum     *sample
		count   *sample
	}
	seriesKey := func(s sample) string {
		var parts []string
		for k, v := range s.labels {
			if k != "le" {
				parts = append(parts, k+"="+v)
			}
		}
		return family(s.name, types) + "|" + strings.Join(parts, ",")
	}
	hists := map[string]*series{}
	for _, s := range samples {
		fam := family(s.name, types)
		if types[fam] != "histogram" {
			continue
		}
		key := seriesKey(s)
		sr := hists[key]
		if sr == nil {
			sr = &series{}
			hists[key] = sr
		}
		s := s
		switch {
		case strings.HasSuffix(s.name, "_bucket"):
			if _, ok := s.labels["le"]; !ok {
				t.Fatalf("bucket sample without le label: %q", s.line)
			}
			sr.buckets = append(sr.buckets, s)
		case strings.HasSuffix(s.name, "_sum"):
			sr.sum = &s
		case strings.HasSuffix(s.name, "_count"):
			sr.count = &s
		default:
			t.Errorf("histogram sample %q is not _bucket/_sum/_count", s.line)
		}
	}
	if len(hists) == 0 {
		t.Fatal("no histogram series found")
	}
	parseLE := func(le string) float64 {
		if le == "+Inf" {
			return math.Inf(1)
		}
		v, err := strconv.ParseFloat(le, 64)
		if err != nil {
			t.Fatalf("bad le %q", le)
		}
		return v
	}
	for key, sr := range hists {
		if len(sr.buckets) == 0 || sr.sum == nil || sr.count == nil {
			t.Errorf("series %s incomplete: %d buckets, sum=%v count=%v",
				key, len(sr.buckets), sr.sum != nil, sr.count != nil)
			continue
		}
		prevLE := math.Inf(-1)
		prevCum := -1.0
		for _, b := range sr.buckets {
			le := parseLE(b.labels["le"])
			if le <= prevLE {
				t.Errorf("series %s: le bounds not increasing at %q", key, b.line)
			}
			if b.value < prevCum {
				t.Errorf("series %s: cumulative count decreases at %q", key, b.line)
			}
			prevLE, prevCum = le, b.value
		}
		last := sr.buckets[len(sr.buckets)-1]
		if !math.IsInf(parseLE(last.labels["le"]), 1) {
			t.Errorf("series %s: last bucket %q is not +Inf", key, last.line)
		}
		if last.value != sr.count.value {
			t.Errorf("series %s: +Inf bucket %v != count %v", key, last.value, sr.count.value)
		}
		if sr.count.value > 0 && sr.sum.value < 0 {
			t.Errorf("series %s: negative sum %v", key, sr.sum.value)
		}
	}

	// The per-stage histograms must include the core pipeline stages the
	// traced solve went through.
	stageSeen := map[string]bool{}
	for _, s := range samples {
		if family(s.name, types) == "pcschedd_stage_latency_seconds" {
			stageSeen[s.labels["stage"]] = true
		}
	}
	for _, stage := range []string{"resilience.ladder", "core.solve", "lp.solve", "problem.build"} {
		if !stageSeen[stage] {
			t.Errorf("stage histogram for %q missing (have %v)", stage, stageSeen)
		}
	}

	// The SLO families must break out both objectives and both windows
	// unconditionally — a scrape before traffic still sees every series.
	sloObj := map[string]bool{}
	sloWin := map[string]bool{}
	for _, s := range samples {
		if s.name == "pcschedd_slo_fast_burn" {
			sloObj[s.labels["objective"]] = true
		}
		if s.name == "pcschedd_slo_window_total" {
			sloWin[s.labels["window"]] = true
		}
	}
	for _, obj := range []string{"availability", "latency"} {
		if !sloObj[obj] {
			t.Errorf("pcschedd_slo_fast_burn missing objective %q", obj)
		}
	}
	for _, win := range []string{"fast", "slow"} {
		if !sloWin[win] {
			t.Errorf("pcschedd_slo_window_total missing window %q", win)
		}
	}
}

// ---------------------------------------------------------------------------
// Histogram boundary behavior.
// ---------------------------------------------------------------------------

// TestHistogramBoundaryBuckets: Observe is inclusive at the upper bound —
// a duration exactly equal to latencyBounds[i] lands in bucket i, and one
// just above it lands in bucket i+1.
func TestHistogramBoundaryBuckets(t *testing.T) {
	for i, b := range latencyBounds {
		var h Histogram
		exact := time.Duration(math.Round(b * float64(time.Second)))
		if exact.Seconds() != b {
			t.Fatalf("bound %g is not representable as a duration", b)
		}
		h.Observe(exact)
		if got := h.counts[i].Load(); got != 1 {
			t.Errorf("bound %g: exact observation not in bucket %d", b, i)
		}
		h.Observe(exact + time.Nanosecond)
		if got := h.counts[i+1].Load(); got != 1 {
			t.Errorf("bound %g: bound+1ns observation not in bucket %d", b, i+1)
		}
		if h.Count() != 2 {
			t.Errorf("bound %g: count = %d, want 2", b, h.Count())
		}
	}
}

func TestHistogramEmpty(t *testing.T) {
	var h Histogram
	if h.Count() != 0 {
		t.Fatalf("zero-value count = %d", h.Count())
	}
	var buf strings.Builder
	writeHistogram(&buf, "x_seconds", &h)
	if out := buf.String(); !strings.Contains(out, `x_seconds_bucket{le="+Inf"} 0`) || !strings.Contains(out, "x_seconds_count 0") {
		t.Errorf("empty histogram exposition not all zero:\n%s", out)
	}
}

func TestHistogramSingleObservation(t *testing.T) {
	var h Histogram
	h.Observe(3 * time.Millisecond) // inside the (2.5ms, 5ms] bucket
	if h.Count() != 1 {
		t.Fatalf("count = %d", h.Count())
	}
	for i, b := range latencyBounds {
		want := uint64(0)
		if b == 0.005 {
			want = 1
		}
		if got := h.counts[i].Load(); got != want {
			t.Errorf("bucket le=%g holds %d observations, want %d", b, got, want)
		}
	}
}

// TestHistogramInfBucket: observations beyond the last finite bound land in
// the +Inf bucket.
func TestHistogramInfBucket(t *testing.T) {
	var h Histogram
	h.Observe(time.Hour)
	if got := h.counts[len(latencyBounds)].Load(); got != 1 {
		t.Fatalf("+Inf bucket count = %d", got)
	}
	top := latencyBounds[len(latencyBounds)-1]
	var buf strings.Builder
	writeHistogram(&buf, "x_seconds", &h)
	out := buf.String()
	if !strings.Contains(out, `x_seconds_bucket{le="+Inf"} 1`) {
		t.Errorf("+Inf bucket line missing:\n%s", out)
	}
	if !strings.Contains(out, fmt.Sprintf(`x_seconds_bucket{le="%g"} 0`, top)) {
		t.Errorf("last finite bucket should be empty:\n%s", out)
	}
	if !strings.Contains(out, "x_seconds_sum 3600") {
		t.Errorf("sum missing or wrong:\n%s", out)
	}
}

// TestObserveStageLabels: stage observations render as one labeled family,
// sorted by stage name, and concurrent first observations of the same stage
// collapse into one histogram.
func TestObserveStageLabels(t *testing.T) {
	var m Metrics
	m.ObserveStage("lp.solve", time.Millisecond)
	m.ObserveStage("core.solve", 2*time.Millisecond)
	m.ObserveStage("lp.solve", 3*time.Millisecond)
	if got := m.StageNames(); len(got) != 2 || got[0] != "core.solve" || got[1] != "lp.solve" {
		t.Fatalf("StageNames = %v", got)
	}
	var buf strings.Builder
	m.Render(&buf)
	out := buf.String()
	if !strings.Contains(out, `pcschedd_stage_latency_seconds_count{stage="lp.solve"} 2`) {
		t.Errorf("lp.solve stage count missing:\n%s", out)
	}
	if !strings.Contains(out, `pcschedd_stage_latency_seconds_bucket{stage="core.solve",le="+Inf"} 1`) {
		t.Errorf("core.solve stage buckets missing:\n%s", out)
	}
	if strings.Count(out, "# TYPE pcschedd_stage_latency_seconds histogram") != 1 {
		t.Errorf("stage family TYPE not declared exactly once:\n%s", out)
	}
}
