package service

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"powercap/internal/faultinject"
	"powercap/internal/obs"
	"powercap/internal/slo"
)

// Solve forensics (DESIGN.md §16): the always-on flight recorder, the
// /debug/flightrecorder endpoint, and the request-ID correlation between
// /v1/cluster allocations and their parked per-job schedules.

// flightDumpJSON mirrors the dump schema for decoding in tests.
type flightDumpJSON struct {
	Reason string          `json:"reason"`
	Total  uint64          `json:"total_recorded"`
	Events []obs.WideEvent `json:"events"`
}

func fetchFlightDump(t *testing.T, url string) flightDumpJSON {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("flight recorder fetch: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Fatalf("flight recorder content type %q", ct)
	}
	var d flightDumpJSON
	if err := json.NewDecoder(resp.Body).Decode(&d); err != nil {
		t.Fatalf("bad flight dump: %v", err)
	}
	return d
}

// postJSONHeaders is postJSON with request headers (for X-Request-Id).
func postJSONHeaders(t *testing.T, url string, body any, hdr map[string]string) (int, []byte, http.Header) {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out, resp.Header
}

// TestFlightRecorderEndpoint: every request leaves one wide event; the dump
// reconstructs the cache story (miss then hit), carries the solve shape and
// kernel effort on the flight that ran the solve, and the ?n= bound and
// validation behave.
func TestFlightRecorderEndpoint(t *testing.T) {
	faultinject.Disable()
	_, ts := newTestServer(t, Config{Workers: 2})

	code, body := postJSON(t, ts.URL+"/v1/solve", SolveRequest{Workload: fastWL, CapPerSocketW: 50})
	if code != http.StatusOK {
		t.Fatalf("solve: %d (%s)", code, body)
	}
	var first SolveResponse
	if err := json.Unmarshal(body, &first); err != nil {
		t.Fatal(err)
	}
	if code, _ := postJSON(t, ts.URL+"/v1/solve", SolveRequest{Workload: fastWL, CapPerSocketW: 50}); code != http.StatusOK {
		t.Fatalf("repeat solve: %d", code)
	}

	d := fetchFlightDump(t, ts.URL+"/debug/flightrecorder?n=10")
	if d.Reason != "debug-endpoint" {
		t.Errorf("dump reason %q", d.Reason)
	}
	if d.Total < 2 || len(d.Events) < 2 {
		t.Fatalf("dump has %d events (total %d), want >= 2", len(d.Events), d.Total)
	}
	var miss, hit *obs.WideEvent
	for i := range d.Events {
		ev := &d.Events[i]
		if ev.Path != "/v1/solve" {
			continue
		}
		switch ev.Cache {
		case "miss":
			miss = ev
		case "hit":
			hit = ev
		}
	}
	if miss == nil || hit == nil {
		t.Fatalf("dump lacks a miss and a hit event: %+v", d.Events)
	}
	if miss.RequestID != first.RequestID {
		t.Errorf("miss event request ID %q, response said %q", miss.RequestID, first.RequestID)
	}
	if miss.Workload != "CoMD" || miss.CapW != 100 {
		t.Errorf("miss event solve shape: workload %q cap %g", miss.Workload, miss.CapW)
	}
	if miss.Rung == "" {
		t.Error("miss event has no resilience rung")
	}
	if miss.Kernel.Solves == 0 || miss.Kernel.SimplexPivots == 0 {
		t.Errorf("miss event kernel health empty: %+v", miss.Kernel)
	}
	sum := 0
	for _, a := range miss.RungAttempts {
		sum += int(a)
	}
	if sum == 0 {
		t.Error("miss event has no rung attempts")
	}
	if miss.DeadlineMS <= 0 {
		t.Errorf("miss event deadline budget %g", miss.DeadlineMS)
	}
	if miss.Status != http.StatusOK || miss.DurMS <= 0 || miss.TimeUnixNS == 0 {
		t.Errorf("miss event outcome: status %d dur %g t %d", miss.Status, miss.DurMS, miss.TimeUnixNS)
	}
	// The hit spent no kernel effort of its own.
	if hit.Kernel.Solves != 0 {
		t.Errorf("hit event charged kernel effort: %+v", hit.Kernel)
	}
	if hit.CacheKey != miss.CacheKey {
		t.Errorf("hit/miss cache keys diverge: %q vs %q", hit.CacheKey, miss.CacheKey)
	}

	// ?n=1 truncates to the newest event; a bad n is a 400.
	if d := fetchFlightDump(t, ts.URL+"/debug/flightrecorder?n=1"); len(d.Events) != 1 {
		t.Errorf("?n=1 returned %d events", len(d.Events))
	}
	resp, err := http.Get(ts.URL + "/debug/flightrecorder?n=bogus")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("?n=bogus: status %d, want 400", resp.StatusCode)
	}
}

// TestWideEventCausalChain: for a fault-injected degraded solve the wide
// event alone reconstructs the causal chain — the rung that served it, the
// per-rung attempt trail of the descent, the machine-readable reason — and
// subsequent admissions see the SLO burn the incident caused.
func TestWideEventCausalChain(t *testing.T) {
	faultinject.Disable()
	_, ts := newTestServer(t, Config{
		Workers: 2,
		// A 1ns latency threshold makes every request "slow", so the
		// latency objective's burn spikes immediately.
		SLO: slo.Config{LatencyThreshold: time.Nanosecond},
	})
	faultinject.Configure(11, map[faultinject.Class]float64{faultinject.LPStall: 1.0})
	defer faultinject.Disable()

	code, body := postJSON(t, ts.URL+"/v1/solve", SolveRequest{Workload: fastWL, CapPerSocketW: 60})
	if code != http.StatusOK {
		t.Fatalf("degraded solve: %d (%s)", code, body)
	}
	var resp SolveResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if !resp.Degraded {
		t.Fatal("all-stall solve was not degraded; fault injection inert?")
	}
	// A second request admits after the first one's outcome was classified.
	if code, _ := postJSON(t, ts.URL+"/v1/solve", SolveRequest{Workload: fastWL, CapPerSocketW: 61}); code != http.StatusOK {
		t.Fatalf("second solve: %d", code)
	}

	d := fetchFlightDump(t, ts.URL+"/debug/flightrecorder?n=0")
	var degraded, second *obs.WideEvent
	for i := range d.Events {
		ev := &d.Events[i]
		if ev.RequestID == resp.RequestID {
			degraded = ev
		} else if ev.Path == "/v1/solve" {
			second = ev
		}
	}
	if degraded == nil || second == nil {
		t.Fatalf("dump lacks the degraded and follow-up events (%d events)", len(d.Events))
	}
	if !degraded.Degraded || degraded.Rung != resp.DegradedRung || degraded.Rung == "" {
		t.Errorf("degraded event rung %q (degraded=%v), response said %q",
			degraded.Rung, degraded.Degraded, resp.DegradedRung)
	}
	if degraded.DegradedReason == "" {
		t.Error("degraded event carries no descent reason")
	}
	// The descent trail: the sparse rung was attempted (and failed) before
	// the ladder fell to the serving rung.
	if degraded.RungAttempts[0] == 0 {
		t.Errorf("degraded event rung attempts %v: sparse rung never attempted", degraded.RungAttempts)
	}
	if second.SLOFastBurn <= 0 {
		t.Errorf("follow-up admission burn %g, want > 0 after the slow/degraded request", second.SLOFastBurn)
	}
}

// TestClusterRequestIDEcho: a client-supplied X-Request-Id is adopted and
// echoed (header and body), the /v1/cluster allocation parks its per-job
// schedules tagged with that ID, and the follow-up /v1/solve that hits a
// parked entry reports the allocation as its cluster origin — the full
// cross-endpoint forensic correlation.
func TestClusterRequestIDEcho(t *testing.T) {
	faultinject.Disable()
	_, ts := newTestServer(t, Config{Workers: 2})

	const clusterID = "test-cluster-1"
	code, body, hdr := postJSONHeaders(t, ts.URL+"/v1/cluster", ClusterRequest{
		Jobs:    []ClusterJobSpec{{Name: "a", Workload: fastWL}},
		BudgetW: 120,
	}, map[string]string{"X-Request-Id": clusterID})
	if code != http.StatusOK {
		t.Fatalf("cluster: %d (%s)", code, body)
	}
	if got := hdr.Get("X-Request-Id"); got != clusterID {
		t.Errorf("header echo %q, want %q", got, clusterID)
	}
	var cresp ClusterResponse
	if err := json.Unmarshal(body, &cresp); err != nil {
		t.Fatal(err)
	}
	if cresp.RequestID != clusterID {
		t.Errorf("body echo %q, want %q", cresp.RequestID, clusterID)
	}
	if len(cresp.Jobs) != 1 || cresp.Jobs[0].ScheduleKey == "" {
		t.Fatalf("cluster parked no schedule: %+v", cresp.Jobs)
	}

	// The follow-up fetch of the job's schedule hits the parked entry and
	// names the allocation that granted the cap.
	code, body = postJSON(t, ts.URL+"/v1/solve", SolveRequest{
		Workload: fastWL, JobCapW: cresp.Jobs[0].CapW,
	})
	if code != http.StatusOK {
		t.Fatalf("follow-up solve: %d (%s)", code, body)
	}
	var sresp SolveResponse
	if err := json.Unmarshal(body, &sresp); err != nil {
		t.Fatal(err)
	}
	if !sresp.Cached {
		t.Error("follow-up solve missed the parked entry")
	}
	if sresp.ClusterOrigin != clusterID {
		t.Errorf("cluster origin %q, want %q", sresp.ClusterOrigin, clusterID)
	}
	if sresp.Key != cresp.Jobs[0].ScheduleKey {
		t.Errorf("follow-up key %q != parked key %q", sresp.Key, cresp.Jobs[0].ScheduleKey)
	}

	// The wide event for the follow-up carries the same correlation.
	d := fetchFlightDump(t, ts.URL+"/debug/flightrecorder?n=0")
	found := false
	for _, ev := range d.Events {
		if ev.RequestID == sresp.RequestID {
			found = true
			if ev.ClusterOrigin != clusterID {
				t.Errorf("wide event cluster origin %q, want %q", ev.ClusterOrigin, clusterID)
			}
		}
	}
	if !found {
		t.Error("follow-up solve left no wide event")
	}

	// Unsafe client identifiers are rejected and replaced.
	code, _, hdr = postJSONHeaders(t, ts.URL+"/v1/solve", SolveRequest{Workload: fastWL, CapPerSocketW: 50},
		map[string]string{"X-Request-Id": "bad id with spaces!"})
	if code != http.StatusOK {
		t.Fatalf("solve with bad id: %d", code)
	}
	if got := hdr.Get("X-Request-Id"); got == "bad id with spaces!" || got == "" {
		t.Errorf("unsafe request ID adopted or lost: %q", got)
	}
}

// TestHealthzSLOBlock: /healthz reports per-objective burn status.
func TestHealthzSLOBlock(t *testing.T) {
	faultinject.Disable()
	_, ts := newTestServer(t, Config{Workers: 1})
	postJSON(t, ts.URL+"/v1/solve", SolveRequest{Workload: fastWL, CapPerSocketW: 50})

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body struct {
		SLO []slo.ObjectiveStatus `json:"slo"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if len(body.SLO) != 2 || body.SLO[0].Name != "availability" || body.SLO[1].Name != "latency" {
		t.Fatalf("healthz slo block: %+v", body.SLO)
	}
	if body.SLO[0].FastTotal == 0 {
		t.Error("availability objective saw no samples after a solve")
	}
}
