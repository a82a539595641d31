package service

import (
	"context"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"powercap/internal/faultinject"
)

// parityGolden holds the counters a fixed request script leaves on a fresh
// server. The script and the golden pin what /metrics counts for each kind
// of request, so a change to how requests are recorded must count the
// same. Run with -update to rewrite it after an intentional change.
var parityGolden = filepath.Join("testdata", "counter_parity.golden.json")

// parityScript drives a fixed, deterministic sequence of requests through
// s (served at base): every endpoint, every cache outcome, every error
// status the API answers, and every fault the service contains. Requests
// run one at a time, so each count is a pure function of the script.
func parityScript(t *testing.T, s *Server, base string) {
	t.Helper()
	faultinject.Disable()
	defer faultinject.Disable()
	want := func(name string, code, wantCode int, body []byte) {
		t.Helper()
		if code != wantCode {
			t.Fatalf("%s: status %d (%s), want %d", name, code, body, wantCode)
		}
	}
	solve := func(name, query string, req SolveRequest, wantCode int) {
		t.Helper()
		if req.Workload == nil && req.Trace == nil {
			req.Workload = fastWL
		}
		code, body := postJSON(t, base+"/v1/solve"+query, req)
		want(name, code, wantCode, body)
	}

	solve("miss", "", SolveRequest{CapPerSocketW: 50}, http.StatusOK)
	solve("lru hit", "", SolveRequest{CapPerSocketW: 50}, http.StatusOK)
	solve("whole", "", SolveRequest{CapPerSocketW: 50, Whole: true}, http.StatusOK)
	solve("windowed", "", SolveRequest{CapPerSocketW: 55, Windows: 3}, http.StatusOK)
	solve("realize=best", "?realize=best", SolveRequest{CapPerSocketW: 52}, http.StatusOK)
	solve("infeasible", "", SolveRequest{CapPerSocketW: 1}, http.StatusOK)
	solve("traced", "?trace=1", SolveRequest{CapPerSocketW: 53}, http.StatusOK)

	faultinject.Configure(33, map[faultinject.Class]float64{faultinject.CacheError: 1.0})
	solve("cache-error bypass", "", SolveRequest{CapPerSocketW: 50}, http.StatusOK)
	faultinject.Disable()

	// A seed whose first WorkerPanic draw fires and whose next eight do
	// not: the first attempt panics, its retry runs clean.
	seed := uint64(0)
	for cand := uint64(1); cand < 10000 && seed == 0; cand++ {
		faultinject.Configure(cand, map[faultinject.Class]float64{faultinject.WorkerPanic: 0.5})
		if !faultinject.Fire(faultinject.WorkerPanic) {
			continue
		}
		clean := true
		for i := 0; i < 8 && clean; i++ {
			clean = !faultinject.Fire(faultinject.WorkerPanic)
		}
		if clean {
			seed = cand
		}
	}
	if seed == 0 {
		t.Fatal("no seed with one panic then a clean retry")
	}
	faultinject.Configure(seed, map[faultinject.Class]float64{faultinject.WorkerPanic: 0.5})
	solve("worker panic then retry", "", SolveRequest{CapPerSocketW: 65}, http.StatusOK)
	faultinject.Disable()

	solve("expired deadline", "", SolveRequest{Workload: slowWL, CapPerSocketW: 60, TimeoutMS: 0.001}, http.StatusGatewayTimeout)

	code, body := postJSON(t, base+"/v1/sweep", SweepRequest{Workload: fastWL, CapsPerSocketW: []float64{50, 45, 1}})
	want("sweep", code, http.StatusOK, body)
	for _, name := range []string{"compare miss", "compare hit"} {
		code, body = postJSON(t, base+"/v1/compare", CompareRequest{Workload: fastWL, CapPerSocketW: 50})
		want(name, code, http.StatusOK, body)
	}
	code, body = postJSON(t, base+"/v1/cluster", clusterReq("market"))
	want("cluster", code, http.StatusOK, body)
	infeasible := clusterReq("market")
	infeasible.BudgetW = 10
	code, body = postJSON(t, base+"/v1/cluster", infeasible)
	want("budget-infeasible cluster", code, http.StatusOK, body)

	// Last of the solves: the stall opens the sparse rung's breaker.
	faultinject.Configure(11, map[faultinject.Class]float64{faultinject.LPStall: 1.0})
	solve("lp-stall degraded", "", SolveRequest{CapPerSocketW: 61}, http.StatusOK)
	faultinject.Disable()

	for _, bad := range []struct{ path, body string }{
		{"/v1/solve", `{"workload":`},
		{"/v1/solve?realize=never", `{"workload":{"name":"CoMD","ranks":2,"iters":3,"seed":1,"scale":0.1},"cap_per_socket_w":50}`},
		{"/v1/sweep", `{"workload":{"name":"CoMD","ranks":2,"iters":3,"seed":1,"scale":0.1}}`},
		{"/v1/compare", `{"cap_per_socket_w":50}`},
		{"/v1/cluster", `{"budget_w":100}`},
	} {
		resp, err := http.Post(base+bad.path, "application/json", strings.NewReader(bad.body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		want("bad request "+bad.path, resp.StatusCode, http.StatusBadRequest, nil)
	}

	s.mux.HandleFunc("POST /v1/boom", s.api(func(http.ResponseWriter, *http.Request) {
		panic("handler bug")
	}))
	code, body = postJSON(t, base+"/v1/boom", struct{}{})
	want("handler panic", code, http.StatusInternalServerError, body)

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	solve("while draining", "", SolveRequest{CapPerSocketW: 50}, http.StatusServiceUnavailable)
}

// parityValues picks the script's counts out of /metrics: every _total
// family, the four max gauges and the _count of the request, queue-wait
// and solve latency histograms. The SLO window gauges are left out: on a
// slow run a request can cross the latency threshold.
func parityValues(t *testing.T, base string) map[string]float64 {
	t.Helper()
	out := make(map[string]float64)
	for name, v := range metricsMap(t, base) {
		switch {
		case strings.HasSuffix(name, "_total"),
			name == "pcschedd_window_seam_violation_watts_max",
			name == "pcschedd_window_stitch_gap_pct_max",
			name == "pcschedd_lp_max_eta_len",
			name == "pcschedd_lp_row_norm_ratio_max",
			name == "pcschedd_request_latency_seconds_count",
			name == "pcschedd_queue_wait_seconds_count",
			name == "pcschedd_solve_latency_seconds_count":
			out[name] = v
		}
	}
	return out
}

// TestCounterParity runs parityScript on a fresh server and holds what
// /metrics counted to the golden.
func TestCounterParity(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2, FlightSnapshotDir: t.TempDir()})
	parityScript(t, s, ts.URL)
	got := parityValues(t, ts.URL)

	if *updateGolden {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(parityGolden, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := os.ReadFile(parityGolden)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	var want map[string]float64
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	names := make([]string, 0, len(want))
	for name := range want {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if g, ok := got[name]; !ok {
			t.Errorf("%s missing from /metrics", name)
		} else if g != want[name] {
			t.Errorf("%s = %v, golden %v", name, g, want[name])
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			t.Errorf("%s = %v is not in the golden", name, got[name])
		}
	}
}
