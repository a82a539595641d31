package service

import (
	"encoding/json"
	"math"
	"net/http"
	"strings"
	"testing"
	"time"

	"powercap"
	"powercap/internal/faultinject"
)

// solveJSON posts a solve request and decodes the response.
func solveJSON(t *testing.T, url string, req SolveRequest) (int, SolveResponse) {
	t.Helper()
	code, body := postJSON(t, url, req)
	var resp SolveResponse
	if code == http.StatusOK {
		if err := json.Unmarshal(body, &resp); err != nil {
			t.Fatalf("bad solve response %s: %v", body, err)
		}
	}
	return code, resp
}

// TestDegradedServedTaggedAndUncached: with both LP backends stalled, a
// solve comes back 200 from the heuristic rung, tagged with its descent
// chain and cap-clean realization — and is NOT cached, so the same key
// re-solves at the top rung once the fault clears.
func TestDegradedServedTaggedAndUncached(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	req := SolveRequest{Workload: fastWL, CapPerSocketW: 55}

	faultinject.Configure(31, map[faultinject.Class]float64{faultinject.LPStall: 1.0})
	defer faultinject.Disable()

	code, resp := solveJSON(t, ts.URL+"/v1/solve", req)
	if code != http.StatusOK {
		t.Fatalf("degraded solve: status %d", code)
	}
	if !resp.Degraded || resp.DegradedRung != "heuristic" {
		t.Fatalf("degraded=%v rung=%q, want true/heuristic", resp.Degraded, resp.DegradedRung)
	}
	if resp.DegradedReason == "" {
		t.Fatal("degraded response carries no reason chain")
	}
	if resp.Realized == nil || resp.Realized.CapViolationW != 0 {
		t.Fatalf("degraded response not certified cap-clean: %+v", resp.Realized)
	}

	// forbid policy refuses the same degraded result with 503.
	code, _ = solveJSON(t, ts.URL+"/v1/solve?degraded=forbid", req)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("?degraded=forbid on a degraded solve: status %d, want 503", code)
	}

	faultinject.Disable()
	code, resp = solveJSON(t, ts.URL+"/v1/solve", req)
	if code != http.StatusOK {
		t.Fatalf("post-fault solve: status %d", code)
	}
	if resp.Degraded {
		t.Fatalf("degraded outcome was cached and replayed: %+v", resp)
	}
	if resp.Cached {
		t.Fatal("degraded outcome entered the LRU")
	}

	m := metricsMap(t, ts.URL)
	if m["pcschedd_degraded_total"] < 1 || m["pcschedd_fallback_heuristic_total"] < 1 {
		t.Fatalf("fallback counters not incremented: %v / %v",
			m["pcschedd_degraded_total"], m["pcschedd_fallback_heuristic_total"])
	}
}

// TestEveryShapeDegradesUnderStall: with every LP pivot loop stalled, each
// /v1/solve shape falls back through the one degradation ladder — the
// monolithic LP, a windowed and a coarsened solve, a costly realization,
// and all of them at once. Every one answers 200 from the heuristic rung
// with a cap-clean realization; none answers 500.
func TestEveryShapeDegradesUnderStall(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	faultinject.Configure(35, map[faultinject.Class]float64{faultinject.LPStall: 1.0})
	defer faultinject.Disable()

	shapes := []struct {
		name string
		req  SolveRequest
	}{
		{"monolithic", SolveRequest{}},
		{"windows=2", SolveRequest{Windows: 2}},
		{"coarsen_eps=0.002", SolveRequest{CoarsenEps: 0.002}},
		{"realize=best", SolveRequest{Realize: "best"}},
		{"realize=down windows=4 coarsen_eps=0.002", SolveRequest{Realize: "down", Windows: 4, CoarsenEps: 0.002}},
	}
	for i, sh := range shapes {
		req := sh.req
		req.Workload = fastWL
		req.CapPerSocketW = 50 + float64(i)
		code, body := postJSON(t, ts.URL+"/v1/solve", req)
		if code != http.StatusOK {
			t.Errorf("%s: status %d (%s), want 200", sh.name, code, body)
			continue
		}
		var resp SolveResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			t.Fatal(err)
		}
		if !resp.Degraded || resp.DegradedRung != "heuristic" {
			t.Errorf("%s: degraded %v rung %q, want true/heuristic", sh.name, resp.Degraded, resp.DegradedRung)
		}
		if !strings.HasPrefix(resp.DegradedReason, "sparse:") {
			t.Errorf("%s: reason %q, want prefix %q", sh.name, resp.DegradedReason, "sparse:")
		}
		if resp.Realized == nil || resp.Realized.CapViolationW != 0 {
			t.Errorf("%s: not certified cap-clean: %+v", sh.name, resp.Realized)
		}
	}
}

func TestDegradedPolicyValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	code, _ := postJSON(t, ts.URL+"/v1/solve?degraded=maybe", SolveRequest{Workload: fastWL, CapPerSocketW: 55})
	if code != http.StatusBadRequest {
		t.Fatalf("bogus degraded policy: status %d, want 400", code)
	}
}

// TestWorkerPanicIsolated: with every worker attempt panicking, the request
// fails 500 (after one clean retry), the panics are counted, and the daemon
// keeps serving once the fault clears.
func TestWorkerPanicIsolated(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2})
	req := SolveRequest{Workload: fastWL, CapPerSocketW: 60}

	faultinject.Configure(32, map[faultinject.Class]float64{faultinject.WorkerPanic: 1.0})
	defer faultinject.Disable()

	code, _ := postJSON(t, ts.URL+"/v1/solve", req)
	if code != http.StatusInternalServerError {
		t.Fatalf("panicking worker: status %d, want 500", code)
	}
	if p := s.metrics.Counter("pcschedd_panics_total"); p != 2 {
		t.Fatalf("panics_total = %d, want 2 (attempt + retry)", p)
	}

	faultinject.Disable()
	if code, _ := postJSON(t, ts.URL+"/v1/solve", req); code != http.StatusOK {
		t.Fatalf("server did not recover after worker panics: status %d", code)
	}
}

// TestWorkerPanicRetrySucceeds: a one-shot panic (rate chosen so the first
// draw fires and the retry's draws do not) is absorbed by the in-handler
// retry — the client still gets its schedule.
func TestWorkerPanicRetrySucceeds(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2})
	req := SolveRequest{Workload: fastWL, CapPerSocketW: 65}

	// Find a seed whose first WorkerPanic draw fires and next several do
	// not, making the retry deterministic.
	seed := uint64(0)
	for cand := uint64(1); cand < 10000; cand++ {
		faultinject.Configure(cand, map[faultinject.Class]float64{faultinject.WorkerPanic: 0.5})
		first := faultinject.Fire(faultinject.WorkerPanic)
		clean := true
		for i := 0; i < 8; i++ {
			if faultinject.Fire(faultinject.WorkerPanic) {
				clean = false
				break
			}
		}
		if first && clean {
			seed = cand
			break
		}
	}
	if seed == 0 {
		t.Fatal("no suitable seed found")
	}
	faultinject.Configure(seed, map[faultinject.Class]float64{faultinject.WorkerPanic: 0.5})
	defer faultinject.Disable()

	code, resp := solveJSON(t, ts.URL+"/v1/solve", req)
	if code != http.StatusOK {
		t.Fatalf("retry after one-shot panic: status %d", code)
	}
	if resp.Degraded || resp.MakespanS <= 0 {
		t.Fatalf("retried solve returned %+v", resp)
	}
	if p := s.metrics.Counter("pcschedd_panics_total"); p != 1 {
		t.Fatalf("panics_total = %d, want exactly 1", p)
	}
}

// TestCacheErrorBypass: injected cache faults force direct solves; the
// responses stay correct and bit-identical, and the bypasses are counted.
func TestCacheErrorBypass(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	req := SolveRequest{Workload: fastWL, CapPerSocketW: 70}

	faultinject.Disable()
	code, base := solveJSON(t, ts.URL+"/v1/solve", req)
	if code != http.StatusOK {
		t.Fatalf("baseline solve: status %d", code)
	}

	faultinject.Configure(33, map[faultinject.Class]float64{faultinject.CacheError: 1.0})
	defer faultinject.Disable()
	for i := 0; i < 2; i++ {
		code, resp := solveJSON(t, ts.URL+"/v1/solve", req)
		if code != http.StatusOK {
			t.Fatalf("bypass solve %d: status %d", i, code)
		}
		if resp.Cached {
			t.Fatalf("bypass solve %d claimed a cache hit", i)
		}
		if math.Float64bits(resp.MakespanS) != math.Float64bits(base.MakespanS) {
			t.Fatalf("bypass makespan %v != cached-path %v", resp.MakespanS, base.MakespanS)
		}
	}
	m := metricsMap(t, ts.URL)
	if m["pcschedd_cache_errors_total"] != 2 {
		t.Fatalf("cache_errors_total = %v, want 2", m["pcschedd_cache_errors_total"])
	}
}

// TestHealthzBreakers: /healthz reports per-rung breaker state, worst-state
// aggregated across pooled Systems.
func TestHealthzBreakers(t *testing.T) {
	faultinject.Disable()
	_, ts := newTestServer(t, Config{
		Workers:    2,
		Resilience: powercap.ResilienceConfig{BreakerCooldown: time.Hour},
	})

	h := healthz(t, ts.URL)
	br, ok := h["breakers"].(map[string]any)
	if !ok {
		t.Fatalf("healthz has no breakers map: %v", h)
	}
	for _, rung := range []string{"sparse", "heuristic", "static"} {
		if br[rung] != "closed" {
			t.Fatalf("breaker %s = %v on a fresh server", rung, br[rung])
		}
	}

	// Stall the LP rung three times, the breaker threshold: its breaker
	// trips open and the heuristic rung serves each one.
	faultinject.Configure(34, map[faultinject.Class]float64{faultinject.LPStall: 1.0})
	defer faultinject.Disable()
	for i := 0; i < 3; i++ {
		if br := healthz(t, ts.URL)["breakers"].(map[string]any); br["sparse"] != "closed" {
			t.Fatalf("breakers after %d stalled solves: %v, want sparse closed", i, br)
		}
		if code, _ := postJSON(t, ts.URL+"/v1/solve", SolveRequest{Workload: fastWL, CapPerSocketW: 55}); code != http.StatusOK {
			t.Fatalf("degraded solve %d failed", i)
		}
	}
	br = healthz(t, ts.URL)["breakers"].(map[string]any)
	if br["sparse"] != "open" || br["heuristic"] != "closed" {
		t.Fatalf("breakers after stalled solves: %v, want sparse open, heuristic closed", br)
	}
}

// TestSweepPanicReleasesSlot: a panic inside a sweep's solve is contained
// as a 500 and gives its worker slot back, so with one worker the next
// request, on another System, still gets the slot (a leaked slot makes it
// wait out its deadline and answer 504).
func TestSweepPanicReleasesSlot(t *testing.T) {
	faultinject.Disable()
	s, ts := newTestServer(t, Config{Workers: 1, FlightSnapshotDir: t.TempDir()})
	other := &WorkloadSpec{Name: "SP", Ranks: 2, Iters: 3, Seed: 2, Scale: 0.15}
	poisoned, err := s.named(*fastWL)
	if err != nil {
		t.Fatal(err)
	}
	clean, err := s.named(*other)
	if err != nil {
		t.Fatal(err)
	}
	sys := s.systemFor(poisoned.wl.EffScale)
	if sys == s.systemFor(clean.wl.EffScale) {
		t.Fatal("the two workloads share a pooled System")
	}
	sys.Model = nil // the sweep's solve dereferences it and panics

	code, body := postJSON(t, ts.URL+"/v1/sweep", SweepRequest{Workload: fastWL, CapsPerSocketW: []float64{50}})
	if code != http.StatusInternalServerError {
		t.Fatalf("poisoned sweep: status %d (%s), want a contained 500", code, body)
	}
	code, body = postJSON(t, ts.URL+"/v1/solve", SolveRequest{Workload: other, CapPerSocketW: 50, TimeoutMS: 2000})
	if code != http.StatusOK {
		t.Fatalf("solve after the sweep's panic: status %d (%s), want 200", code, body)
	}
	m := metricsMap(t, ts.URL)
	if m["pcschedd_queue_occupancy"] != 0 {
		t.Errorf("queue occupancy %v after both requests finished, want 0", m["pcschedd_queue_occupancy"])
	}
	if m["pcschedd_panics_total"] != 1 {
		t.Errorf("panics_total = %v, want 1", m["pcschedd_panics_total"])
	}
}
