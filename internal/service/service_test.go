package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"powercap"
	"powercap/internal/trace"
)

// fastWL is a workload whose solve takes a few ms — timing-independent
// tests. slowWL takes hundreds of ms (seconds under -race), long enough
// that polling-based synchronization against it cannot race.
var (
	fastWL = &WorkloadSpec{Name: "CoMD", Ranks: 2, Iters: 3, Seed: 1, Scale: 0.1}
	slowWL = &WorkloadSpec{Name: "BT", Ranks: 16, Iters: 10, Seed: 1, Scale: 1}
)

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return s, ts
}

func postJSON(t *testing.T, url string, body any) (int, []byte) {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out
}

// metricsMap fetches /metrics and parses every "name value" line.
func metricsMap(t *testing.T, base string) map[string]float64 {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	m := make(map[string]float64)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) != 2 {
			continue
		}
		v, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			t.Fatalf("unparseable metric line %q", sc.Text())
		}
		m[fields[0]] = v
	}
	return m
}

func healthz(t *testing.T, base string) map[string]any {
	t.Helper()
	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	return h
}

// TestSolveSingleflight64 is the load-test acceptance criterion: 64
// concurrent identical solve requests must produce exactly one backend
// solve; the other 63 are cache hits (coalesced onto the flight or served
// from the LRU), all verified through /metrics.
func TestSolveSingleflight64(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 4})
	req := SolveRequest{Workload: fastWL, CapPerSocketW: 55}

	const n = 64
	var wg sync.WaitGroup
	codes := make([]int, n)
	resps := make([]SolveResponse, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			code, body := postJSON(t, ts.URL+"/v1/solve", req)
			codes[i] = code
			json.Unmarshal(body, &resps[i])
		}(i)
	}
	wg.Wait()

	cached := 0
	for i := 0; i < n; i++ {
		if codes[i] != http.StatusOK {
			t.Fatalf("request %d: status %d", i, codes[i])
		}
		if resps[i].MakespanS <= 0 {
			t.Fatalf("request %d: no makespan in %+v", i, resps[i])
		}
		if resps[i].MakespanS != resps[0].MakespanS {
			t.Fatalf("request %d: makespan %v differs from %v", i, resps[i].MakespanS, resps[0].MakespanS)
		}
		if resps[i].Cached {
			cached++
		}
	}
	if cached != n-1 {
		t.Errorf("%d responses marked cached, want %d", cached, n-1)
	}

	m := metricsMap(t, ts.URL)
	if got := m["pcschedd_solves_total"]; got != 1 {
		t.Errorf("solves_total = %v, want exactly 1", got)
	}
	if got := m["pcschedd_cache_hits_total"]; got != n-1 {
		t.Errorf("cache_hits_total = %v, want %d", got, n-1)
	}
	if got := m["pcschedd_cache_misses_total"]; got != 1 {
		t.Errorf("cache_misses_total = %v, want 1", got)
	}
	if got := m["pcschedd_requests_total"]; got != n {
		t.Errorf("requests_total = %v, want %d", got, n)
	}
}

// TestSolveExpiredDeadline: a request whose deadline has already passed
// must return promptly with 504 — the cancellation surfacing from the LP
// pivot loop — without a completed backend solve.
func TestSolveExpiredDeadline(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	req := SolveRequest{Workload: slowWL, CapPerSocketW: 60, TimeoutMS: 0.001}

	start := time.Now()
	code, body := postJSON(t, ts.URL+"/v1/solve", req)
	elapsed := time.Since(start)

	if code != http.StatusGatewayTimeout {
		t.Fatalf("status = %d (%s), want 504", code, body)
	}
	if !strings.Contains(string(body), "canceled") && !strings.Contains(string(body), "deadline") {
		t.Errorf("error body %q does not mention cancellation", body)
	}
	// A full solve of slowWL takes hundreds of ms (more under -race); the
	// canceled request must come back in a fraction of that. The workload
	// generation itself (~tens of ms) dominates the observed latency.
	if elapsed > 30*time.Second {
		t.Errorf("canceled request took %v", elapsed)
	}

	m := metricsMap(t, ts.URL)
	if got := m["pcschedd_solves_total"]; got != 0 {
		t.Errorf("solves_total = %v after expired-deadline request, want 0", got)
	}
	if got := m["pcschedd_canceled_total"]; got != 1 {
		t.Errorf("canceled_total = %v, want 1", got)
	}
}

// TestDrainGraceful: with one solve in flight, Drain must let it finish and
// respond, reject newly arriving work, and return once idle.
func TestDrainGraceful(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2})

	type result struct {
		code int
		body []byte
	}
	inFlight := make(chan result, 1)
	go func() {
		code, body := postJSON(t, ts.URL+"/v1/solve", SolveRequest{Workload: slowWL, CapPerSocketW: 60})
		inFlight <- result{code, body}
	}()
	waitUntil(t, 30*time.Second, func() bool {
		return s.metrics.Inflight.Load() >= 1
	})

	drained := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		drained <- s.Drain(ctx)
	}()
	waitUntil(t, 5*time.Second, func() bool {
		return healthz(t, ts.URL)["status"] == "draining"
	})

	// New work is refused while draining.
	code, body := postJSON(t, ts.URL+"/v1/solve", SolveRequest{Workload: fastWL, CapPerSocketW: 55})
	if code != http.StatusServiceUnavailable {
		t.Fatalf("request during drain: status %d (%s), want 503", code, body)
	}

	// The in-flight solve still completes and gets its response.
	res := <-inFlight
	if res.code != http.StatusOK {
		t.Fatalf("in-flight solve: status %d (%s), want 200", res.code, res.body)
	}
	var sr SolveResponse
	if err := json.Unmarshal(res.body, &sr); err != nil || sr.MakespanS <= 0 {
		t.Fatalf("in-flight solve returned no schedule: %s", res.body)
	}

	if err := <-drained; err != nil {
		t.Fatalf("Drain = %v, want nil", err)
	}
	// Observability endpoints survive the drain.
	if h := healthz(t, ts.URL); h["status"] != "draining" {
		t.Errorf("healthz after drain = %v", h["status"])
	}
	if m := metricsMap(t, ts.URL); m["pcschedd_rejected_total"] != 1 {
		t.Errorf("rejected_total = %v, want 1", m["pcschedd_rejected_total"])
	}
}

// TestQueueFullRejects: with one worker and a zero-depth queue, a second
// distinct request arriving mid-solve gets 429 backpressure.
func TestQueueFullRejects(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: -1})

	done := make(chan int, 1)
	go func() {
		code, _ := postJSON(t, ts.URL+"/v1/solve", SolveRequest{Workload: slowWL, CapPerSocketW: 60})
		done <- code
	}()
	waitUntil(t, 30*time.Second, func() bool {
		h := healthz(t, ts.URL)
		used, _ := h["queue_used"].(float64)
		return used >= 1
	})

	// Different cap → different key → would need its own backend solve.
	code, body := postJSON(t, ts.URL+"/v1/solve", SolveRequest{Workload: slowWL, CapPerSocketW: 61})
	if code != http.StatusTooManyRequests {
		t.Fatalf("status = %d (%s), want 429", code, body)
	}
	m := metricsMap(t, ts.URL)
	if m["pcschedd_rejected_total"] != 1 {
		t.Errorf("rejected_total = %v, want 1", m["pcschedd_rejected_total"])
	}
	if got := <-done; got != http.StatusOK {
		t.Fatalf("first request: status %d, want 200", got)
	}
}

func TestSolveCacheRepeat(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	req := SolveRequest{Workload: fastWL, CapPerSocketW: 55}

	var first, second SolveResponse
	code, body := postJSON(t, ts.URL+"/v1/solve", req)
	if code != http.StatusOK {
		t.Fatalf("first solve: %d (%s)", code, body)
	}
	json.Unmarshal(body, &first)
	code, body = postJSON(t, ts.URL+"/v1/solve", req)
	if code != http.StatusOK {
		t.Fatalf("second solve: %d (%s)", code, body)
	}
	json.Unmarshal(body, &second)

	if first.Cached || !second.Cached {
		t.Errorf("cached flags = %v, %v; want false, true", first.Cached, second.Cached)
	}
	if first.MakespanS != second.MakespanS || first.Key != second.Key {
		t.Errorf("cached response differs: %+v vs %+v", first, second)
	}
	m := metricsMap(t, ts.URL)
	if m["pcschedd_solves_total"] != 1 || m["pcschedd_cache_hits_total"] != 1 {
		t.Errorf("solves=%v hits=%v, want 1 and 1",
			m["pcschedd_solves_total"], m["pcschedd_cache_hits_total"])
	}
}

// TestSolveRealize: ?realize= (or the Realize body field) attaches a
// simulator-validated realizable schedule to the solve response. The
// realized makespan can never beat the LP bound, must carry zero cap
// violation, and the rounding mode must be part of the cache key so an
// LP-only solve and a realized solve never collide.
func TestSolveRealize(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})

	code, body := postJSON(t, ts.URL+"/v1/solve", SolveRequest{Workload: fastWL, CapPerSocketW: 55, Realize: "best"})
	if code != http.StatusOK {
		t.Fatalf("realized solve: %d (%s)", code, body)
	}
	var realized SolveResponse
	json.Unmarshal(body, &realized)
	if realized.Realized == nil {
		t.Fatal("realized solve: response has no realized block")
	}
	r := realized.Realized
	if r.CapViolationW != 0 {
		t.Errorf("realized cap violation = %v W, want 0", r.CapViolationW)
	}
	if r.MakespanS < realized.MakespanS*(1-1e-9) {
		t.Errorf("realized makespan %v beats the LP bound %v", r.MakespanS, realized.MakespanS)
	}
	if r.LPMakespanS != realized.MakespanS {
		t.Errorf("realized LP bound %v != solve makespan %v", r.LPMakespanS, realized.MakespanS)
	}

	// The query parameter overrides the body field, and the strategy is
	// part of the content address: distinct key, no realized block leaking
	// into the plain solve.
	code, body = postJSON(t, ts.URL+"/v1/solve?realize=down", SolveRequest{Workload: fastWL, CapPerSocketW: 55})
	if code != http.StatusOK {
		t.Fatalf("realize=down solve: %d (%s)", code, body)
	}
	var down SolveResponse
	json.Unmarshal(body, &down)
	if down.Realized == nil || down.Realized.Strategy != "down" {
		t.Fatalf("realize=down: got %+v", down.Realized)
	}
	code, body = postJSON(t, ts.URL+"/v1/solve", SolveRequest{Workload: fastWL, CapPerSocketW: 55})
	if code != http.StatusOK {
		t.Fatalf("plain solve: %d (%s)", code, body)
	}
	var plain SolveResponse
	json.Unmarshal(body, &plain)
	if plain.Realized != nil {
		t.Error("plain solve unexpectedly carries a realized schedule")
	}
	keys := map[string]bool{realized.Key: true, down.Key: true, plain.Key: true}
	if len(keys) != 3 {
		t.Errorf("cache keys collide across realize modes: %v %v %v", realized.Key, down.Key, plain.Key)
	}

	if code, body := postJSON(t, ts.URL+"/v1/solve?realize=sideways", SolveRequest{Workload: fastWL, CapPerSocketW: 55}); code != http.StatusBadRequest {
		t.Errorf("unknown realize strategy: %d (%s), want 400", code, body)
	}
}

// TestSolveInlineTrace: a trace posted inline (the schema pctrace gen
// emits) must solve to the same schedule as the workload it was taken
// from.
func TestSolveInlineTrace(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})

	wl, err := powercap.WorkloadByName(fastWL.Name, powercap.WorkloadParams{
		Ranks: fastWL.Ranks, Iterations: fastWL.Iters, Seed: fastWL.Seed, WorkScale: fastWL.Scale,
	})
	if err != nil {
		t.Fatal(err)
	}
	tf := trace.Encode("comd-trace", wl.Graph, wl.EffScale)

	code, body := postJSON(t, ts.URL+"/v1/solve", SolveRequest{Trace: tf, CapPerSocketW: 55})
	if code != http.StatusOK {
		t.Fatalf("trace solve: %d (%s)", code, body)
	}
	var got SolveResponse
	json.Unmarshal(body, &got)
	if got.GraphDigest != powercap.GraphDigest(wl.Graph) {
		t.Errorf("decoded trace digest %s != source graph digest", got.GraphDigest)
	}

	sys := powercap.SystemFor(wl, nil)
	want, err := sys.UpperBound(wl.Graph, 55*float64(wl.Graph.NumRanks))
	if err != nil {
		t.Fatal(err)
	}
	if got.MakespanS != want.MakespanS {
		t.Errorf("trace solve makespan %v != direct solve %v", got.MakespanS, want.MakespanS)
	}
	if got.Workload != "comd-trace" {
		t.Errorf("workload name = %q, want comd-trace", got.Workload)
	}
}

func TestSweepEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	code, body := postJSON(t, ts.URL+"/v1/sweep", SweepRequest{Workload: fastWL, Spec: "60:50:5"})
	if code != http.StatusOK {
		t.Fatalf("sweep: %d (%s)", code, body)
	}
	var resp SweepResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Points) != 3 {
		t.Fatalf("got %d points, want 3", len(resp.Points))
	}
	for i, pt := range resp.Points {
		if pt.Error != "" || pt.Infeasible {
			t.Fatalf("point %d failed: %+v", i, pt)
		}
		if pt.MakespanS <= 0 {
			t.Fatalf("point %d has no makespan", i)
		}
		// Caps descend, so the bound can only get worse.
		if i > 0 && pt.MakespanS < resp.Points[i-1].MakespanS-1e-9 {
			t.Errorf("makespan improved as the cap dropped: %v after %v",
				pt.MakespanS, resp.Points[i-1].MakespanS)
		}
	}
	if resp.Stats == nil || resp.Stats.WarmStarts < 1 {
		t.Errorf("sweep reports no warm starts: %+v", resp.Stats)
	}

	// A sweep down past SP's floor: the closed-form floor answers the
	// lowest caps infeasible with no LP, and the effort of the rest belongs
	// in the response and the counters like any other — what one session
	// spends over the same caps.
	sp := &WorkloadSpec{Name: "SP", Ranks: 4, Iters: 3, Seed: 1, Scale: 0.3}
	perSocket := []float64{50, 30, 20, 17.5, 16.25, 15.5, 15, 14.5, 14, 13.75, 13.5}
	before := metricsMap(t, ts.URL)
	code, body = postJSON(t, ts.URL+"/v1/sweep", SweepRequest{Workload: sp, CapsPerSocketW: perSocket})
	if code != http.StatusOK {
		t.Fatalf("sweep past the floor: %d (%s)", code, body)
	}
	resp = SweepResponse{}
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	infeasible := 0
	for _, pt := range resp.Points {
		if pt.Infeasible {
			infeasible++
		}
	}
	if infeasible == 0 {
		t.Fatal("no cap below SP's floor; the case needs infeasible caps")
	}
	ref, err := generate(*sp)
	if err != nil {
		t.Fatal(err)
	}
	wl := ref.wl
	cs, err := powercap.SystemFor(wl, nil).NewCapSession(context.Background(), wl.Graph)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range perSocket {
		// Outcomes are the endpoint's to report; only the effort is compared.
		_, _ = cs.SolveAt(context.Background(), c*float64(wl.Graph.NumRanks))
	}
	want := NewStatsJSON(cs.Stats())
	if want.Solves != len(perSocket)-infeasible {
		t.Fatalf("session solved %d LPs for %d caps, %d of them below the floor; every cap above it should reach the LP",
			want.Solves, len(perSocket), infeasible)
	}
	if resp.Stats == nil || *resp.Stats != *want {
		t.Errorf("sweep stats %+v, session over the same caps %+v", resp.Stats, want)
	}
	after := metricsMap(t, ts.URL)
	if d := after["pcschedd_pivots_total"] - before["pcschedd_pivots_total"]; d != float64(want.SimplexPivots) {
		t.Errorf("pcschedd_pivots_total rose by %v, want %d", d, want.SimplexPivots)
	}
	if d := after["pcschedd_lp_refactorizations_total"] - before["pcschedd_lp_refactorizations_total"]; d != float64(want.Refactorizations) {
		t.Errorf("pcschedd_lp_refactorizations_total rose by %v, want %d", d, want.Refactorizations)
	}
}

func TestCompareEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	req := CompareRequest{
		Workload:      &WorkloadSpec{Name: "CoMD", Ranks: 2, Iters: 6, Seed: 1, Scale: 0.1},
		CapPerSocketW: 55,
	}
	code, body := postJSON(t, ts.URL+"/v1/compare", req)
	if code != http.StatusOK {
		t.Fatalf("compare: %d (%s)", code, body)
	}
	var resp CompareResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	c := resp.Comparison
	if c.StaticS <= 0 || c.ConductorS <= 0 || c.LPBoundS <= 0 {
		t.Fatalf("comparison has empty times: %+v", c)
	}
	if c.LPBoundS > c.StaticS {
		t.Errorf("LP bound %v worse than Static %v", c.LPBoundS, c.StaticS)
	}
	if resp.Cached {
		t.Error("first compare marked cached")
	}

	code, body = postJSON(t, ts.URL+"/v1/compare", req)
	if code != http.StatusOK {
		t.Fatalf("repeat compare: %d (%s)", code, body)
	}
	var again CompareResponse
	json.Unmarshal(body, &again)
	if !again.Cached {
		t.Error("identical compare not served from cache")
	}
	if again.Comparison != c {
		t.Errorf("cached comparison differs: %+v vs %+v", again.Comparison, c)
	}
}

func TestBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	cases := []struct {
		name string
		path string
		body any
	}{
		{"no source", "/v1/solve", SolveRequest{CapPerSocketW: 50}},
		{"both sources", "/v1/solve", SolveRequest{
			Workload: fastWL, Trace: &trace.File{Version: 1, NumRanks: 1}, CapPerSocketW: 50}},
		{"no cap", "/v1/solve", SolveRequest{Workload: fastWL}},
		{"both caps", "/v1/solve", SolveRequest{Workload: fastWL, CapPerSocketW: 50, JobCapW: 100}},
		{"unknown workload", "/v1/solve", SolveRequest{
			Workload: &WorkloadSpec{Name: "HPL"}, CapPerSocketW: 50}},
		{"unknown field", "/v1/solve", map[string]any{"workload": fastWL, "watts": 50}},
		{"bad sweep spec", "/v1/sweep", SweepRequest{Workload: fastWL, Spec: "50:60:5"}},
		{"sweep no caps", "/v1/sweep", SweepRequest{Workload: fastWL}},
		{"compare trace-less", "/v1/compare", CompareRequest{CapPerSocketW: 50}},
	}
	for _, c := range cases {
		code, body := postJSON(t, ts.URL+c.path, c.body)
		if code != http.StatusBadRequest {
			t.Errorf("%s: status %d (%s), want 400", c.name, code, body)
		}
	}
	m := metricsMap(t, ts.URL)
	if got := m["pcschedd_bad_requests_total"]; got != float64(len(cases)) {
		t.Errorf("bad_requests_total = %v, want %d", got, len(cases))
	}
	if m["pcschedd_solves_total"] != 0 {
		t.Errorf("bad requests triggered %v solves", m["pcschedd_solves_total"])
	}
}

func TestHistogram(t *testing.T) {
	var h Histogram
	for i := 0; i < 100; i++ {
		h.Observe(time.Duration(i+1) * time.Millisecond) // 1ms..100ms
	}
	if h.Count() != 100 {
		t.Fatalf("count = %d", h.Count())
	}

	var buf bytes.Buffer
	writeHistogram(&buf, "x_seconds", &h)
	out := buf.String()
	if !strings.Contains(out, `x_seconds_bucket{le="+Inf"} 100`) {
		t.Errorf("missing +Inf bucket:\n%s", out)
	}
	if !strings.Contains(out, "x_seconds_count 100") {
		t.Errorf("missing count:\n%s", out)
	}
}

// The Prometheus exposition conformance test for the full /metrics output
// lives in metrics_test.go (TestMetricsConformance), along with the
// Histogram boundary tests.

// TestSolveWindowed: windows > 1 (body field or ?windows=) routes the
// solve through the windowed decomposition, returns the diagnostics block,
// keys the cache separately from the monolithic solve, and shows up on
// /metrics as windowed counters.
func TestSolveWindowed(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})

	code, body := postJSON(t, ts.URL+"/v1/solve", SolveRequest{Workload: fastWL, CapPerSocketW: 55, Windows: 3})
	if code != http.StatusOK {
		t.Fatalf("windowed solve: %d (%s)", code, body)
	}
	var windowed SolveResponse
	json.Unmarshal(body, &windowed)
	if windowed.Windowed == nil {
		t.Fatal("windowed solve: response has no windowed block")
	}
	wb := windowed.Windowed
	if wb.Windows < 1 || wb.SpeculativeSolves < 1 {
		t.Errorf("implausible windowed diagnostics: %+v", wb)
	}
	if wb.SeamViolationW > 1e-6 {
		t.Errorf("seam cap violation %v W", wb.SeamViolationW)
	}
	if windowed.MakespanS <= 0 {
		t.Errorf("windowed makespan %v", windowed.MakespanS)
	}

	code, body = postJSON(t, ts.URL+"/v1/solve", SolveRequest{Workload: fastWL, CapPerSocketW: 55})
	if code != http.StatusOK {
		t.Fatalf("plain solve: %d (%s)", code, body)
	}
	var plain SolveResponse
	json.Unmarshal(body, &plain)
	if plain.Windowed != nil {
		t.Error("plain solve unexpectedly carries a windowed block")
	}
	if plain.Key == windowed.Key {
		t.Error("windowed and monolithic solves share a cache key")
	}
	// The windowed makespan upper-bounds the monolithic one (DESIGN.md §12).
	if windowed.MakespanS < plain.MakespanS*(1-1e-9) {
		t.Errorf("windowed makespan %v beats monolithic %v", windowed.MakespanS, plain.MakespanS)
	}

	// Query parameter form, equal to the body form (same key → cache hit).
	code, body = postJSON(t, ts.URL+"/v1/solve?windows=3", SolveRequest{Workload: fastWL, CapPerSocketW: 55})
	if code != http.StatusOK {
		t.Fatalf("?windows=3 solve: %d (%s)", code, body)
	}
	var viaQuery SolveResponse
	json.Unmarshal(body, &viaQuery)
	if viaQuery.Key != windowed.Key {
		t.Errorf("?windows=3 key %s != body-form key %s", viaQuery.Key, windowed.Key)
	}
	if !viaQuery.Cached {
		t.Error("identical windowed request missed the cache")
	}

	m := metricsMap(t, ts.URL)
	if m["pcschedd_windowed_solves_total"] != 1 {
		t.Errorf("windowed_solves_total = %v, want 1", m["pcschedd_windowed_solves_total"])
	}
	if m["pcschedd_windows_solved_total"] < float64(wb.Windows) {
		t.Errorf("windows_solved_total = %v, want >= %d", m["pcschedd_windows_solved_total"], wb.Windows)
	}

	if code, body := postJSON(t, ts.URL+"/v1/solve?windows=lots", SolveRequest{Workload: fastWL, CapPerSocketW: 55}); code != http.StatusBadRequest {
		t.Errorf("bad windows value: %d (%s), want 400", code, body)
	}
	if code, body := postJSON(t, ts.URL+"/v1/solve?coarsen_eps=-1", SolveRequest{Workload: fastWL, CapPerSocketW: 55}); code != http.StatusBadRequest {
		t.Errorf("negative coarsen_eps: %d (%s), want 400", code, body)
	}
}
