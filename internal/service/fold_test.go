package service

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"powercap/internal/obs"
)

// TestEventCompleteness: after parityScript, the flight dump alone
// reconstructs every count /metrics reports, so each per-request fact
// /metrics counts is on the request's event (and survives the dump's
// JSON). Each endpoint's event also names what its response did.
func TestEventCompleteness(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2, FlightSnapshotDir: t.TempDir()})
	parityScript(t, s, ts.URL)
	m := metricsMap(t, ts.URL)

	resp, err := http.Get(ts.URL + "/debug/flightrecorder?n=0")
	if err != nil {
		t.Fatal(err)
	}
	var d flightDumpJSON
	err = json.NewDecoder(resp.Body).Decode(&d)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if uint64(len(d.Events)) != d.Total {
		t.Fatalf("dump holds %d of %d events", len(d.Events), d.Total)
	}

	// The script's one request refused while draining is counted at the
	// door and has no event; everything else folds from the dump.
	const door = 1
	for i := range counterFamilies {
		c := &counterFamilies[i]
		var sum uint64
		if c.fold != nil {
			for j := range d.Events {
				sum += c.fold(&d.Events[j])
			}
		}
		switch c.name {
		case "pcschedd_requests_total":
			sum = uint64(len(d.Events)) + door
		case "pcschedd_rejected_total":
			sum += door
		}
		if float64(sum) != m[c.name] {
			t.Errorf("%s: the dump folds to %d, /metrics says %v", c.name, sum, m[c.name])
		}
	}
	for i := range floatFamilies {
		f := &floatFamilies[i]
		got := 0.0
		for j := range d.Events {
			switch v := f.fold(&d.Events[j]); {
			case v <= 0:
			case f.typ == "counter":
				got += v
			default:
				got = math.Max(got, v)
			}
		}
		if got != m[f.name] {
			t.Errorf("%s: the dump folds to %v, /metrics says %v", f.name, got, m[f.name])
		}
	}
	if n := m["pcschedd_request_latency_seconds_count"]; n != float64(len(d.Events)) {
		t.Errorf("request latency count %v, want one per event (%d)", n, len(d.Events))
	}

	// The answered requests of each endpoint, in order.
	byPath := map[string][]obs.WideEvent{}
	for _, ev := range d.Events {
		if ev.Status == http.StatusOK {
			byPath[ev.Path] = append(byPath[ev.Path], ev)
		}
	}

	// Compare: a miss then a hit of one key, each with its workload and cap.
	cmp := byPath["/v1/compare"]
	if len(cmp) != 2 {
		t.Fatalf("%d compare events, want 2", len(cmp))
	}
	for i, want := range []string{"miss", "hit"} {
		ev := cmp[i]
		if ev.Cache != want || ev.Workload != "CoMD" || ev.CapW != 100 || ev.CacheKey == "" {
			t.Errorf("compare %s event: cache %q workload %q cap %g key %q", want, ev.Cache, ev.Workload, ev.CapW, ev.CacheKey)
		}
	}
	if cmp[0].CacheKey != cmp[1].CacheKey || cmp[0].Solves != 1 || cmp[1].Solves != 0 {
		t.Errorf("compare events: keys %q / %q, solves %d / %d", cmp[0].CacheKey, cmp[1].CacheKey, cmp[0].Solves, cmp[1].Solves)
	}
	// The miss splits into waiting and solving as a solve's event does: the
	// deadline it had left and the time the cache call took.
	if miss := cmp[0]; miss.DeadlineMS <= 0 || miss.SolveMS <= 0 || miss.SolveMS > miss.DurMS {
		t.Errorf("compare miss event: deadline %g ms, solve %g ms of %g ms", miss.DeadlineMS, miss.SolveMS, miss.DurMS)
	}

	// Sweep: three caps solved, one of them infeasible, and the kernel
	// effort they cost.
	sweep := byPath["/v1/sweep"]
	if len(sweep) != 1 || sweep[0].Solves != 3 || sweep[0].Infeasible != 1 || sweep[0].Kernel.Solves == 0 || sweep[0].Kernel.SimplexPivots == 0 {
		t.Errorf("sweep events: %+v", sweep)
	}

	// Cluster: the allocation's jobs, degraded jobs and moved watts, and
	// the budget-infeasible request.
	cl := byPath["/v1/cluster"]
	if len(cl) != 2 {
		t.Fatalf("%d cluster events, want 2", len(cl))
	}
	alloc, infeasible := cl[0], cl[1]
	if alloc.Jobs != 2 || alloc.DegradedJobs != 0 || alloc.MovedW <= 0 || alloc.Solves == 0 || alloc.Kernel.Solves == 0 {
		t.Errorf("cluster event: %+v", alloc)
	}
	if !infeasible.BudgetInfeasible || infeasible.Jobs != 0 || infeasible.Solves != 0 {
		t.Errorf("budget-infeasible cluster event: %+v", infeasible)
	}

	// The kernel block carries the row-norm ratio the response's stats do.
	miss := byPath["/v1/solve"][0]
	if miss.Cache != "miss" || miss.Kernel.RowNormRatio <= 0 {
		t.Errorf("solve miss event lacks the kernel's row-norm ratio: %+v", miss)
	}
}

// TestEventRowNormRatioMatchesResponse: a solve's event and its response
// print the same kernel block, row_norm_ratio included.
func TestEventRowNormRatioMatchesResponse(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	code, body := postJSON(t, ts.URL+"/v1/solve", SolveRequest{Workload: fastWL, CapPerSocketW: 50})
	if code != http.StatusOK {
		t.Fatalf("solve: %d (%s)", code, body)
	}
	var resp struct {
		RequestID string          `json:"request_id"`
		Stats     json.RawMessage `json:"stats"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	raw, err := http.Get(ts.URL + "/debug/flightrecorder?n=1")
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Body.Close()
	var d struct {
		Events []struct {
			RequestID string          `json:"request_id"`
			Kernel    json.RawMessage `json:"kernel"`
		} `json:"events"`
	}
	if err := json.NewDecoder(raw.Body).Decode(&d); err != nil {
		t.Fatal(err)
	}
	if len(d.Events) != 1 || d.Events[0].RequestID != resp.RequestID {
		t.Fatalf("dump: %+v", d.Events)
	}
	if !strings.Contains(string(d.Events[0].Kernel), `"row_norm_ratio":`) {
		t.Errorf("event kernel block lacks row_norm_ratio: %s", d.Events[0].Kernel)
	}
	// The dump is indented and the response is not: compare the values.
	var fromEvent, fromResp obs.KernelHealth
	if err := json.Unmarshal(d.Events[0].Kernel, &fromEvent); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(resp.Stats, &fromResp); err != nil {
		t.Fatal(err)
	}
	if fromEvent != fromResp {
		t.Errorf("event kernel %+v, response stats %+v", fromEvent, fromResp)
	}
}

// TestFoldNoAllocs: folding a finished event into the counter and float
// families, the request-latency histogram and the SLO engine allocates
// nothing while the access log is off.
func TestFoldNoAllocs(t *testing.T) {
	s := New(Config{})
	ev := &obs.WideEvent{
		TimeUnixNS: 1, RequestID: "abcd1234", Path: "/v1/solve", Status: http.StatusOK, DurMS: 1.5,
		Workload: "CoMD", CapW: 100, Cache: "miss", CacheKey: "k", Rung: "heuristic", Degraded: true,
		Solves: 1, Infeasible: 1, Panics: 1,
		WindowsSolved: 3, CommitSolves: 2, WarmStartHits: 2, Escalations: 1, SeamViolationW: 1e-9, StitchGapPct: 0.5,
		Jobs: 2, DegradedJobs: 1, MovedW: 6.5, BudgetInfeasible: true, Traced: true, DroppedSpans: 3,
		Kernel: obs.KernelHealth{Solves: 4, SimplexPivots: 900, WarmStarts: 4, Refactorizations: 2, MaxEtaLen: 64, RowNormRatio: 512},
	}
	r := httptest.NewRequest(http.MethodPost, "/v1/solve", nil)
	if allocs := testing.AllocsPerRun(200, func() { s.fold(ev, r) }); allocs != 0 {
		t.Fatalf("fold allocates %.1f objects per event, want 0", allocs)
	}
	if got := s.metrics.Counter("pcschedd_solves_total"); got != 201 {
		t.Errorf("solves_total = %d after 201 folds", got)
	}
}
