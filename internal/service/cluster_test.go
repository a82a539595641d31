package service

import (
	"bytes"
	"encoding/json"
	"flag"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite golden response files")

// clusterReq is the fixed heterogeneous request the cluster tests share:
// two small jobs with distinct power–time curves under one tight budget.
func clusterReq(policy string) ClusterRequest {
	return ClusterRequest{
		Jobs: []ClusterJobSpec{
			{Name: "comd-0", Workload: &WorkloadSpec{Name: "CoMD", Ranks: 2, Iters: 3, Seed: 1, Scale: 0.1}},
			{Name: "sp-0", Workload: &WorkloadSpec{Name: "SP", Ranks: 2, Iters: 3, Seed: 2, Scale: 0.15}},
		},
		BudgetW: 130,
		Policy:  policy,
	}
}

// Volatile response fields: the request identity, wall-clock timing, and
// the cache disposition. Everything else must be bit-stable.
var (
	reqIDRe   = regexp.MustCompile(`"request_id":"[0-9a-f-]+"`)
	elapsedRe = regexp.MustCompile(`"elapsed_ms":[0-9.eE+-]+`)
	cachedRe  = regexp.MustCompile(`"cached":(true|false)`)
)

func normalizeCluster(b []byte) []byte {
	b = reqIDRe.ReplaceAll(b, []byte(`"request_id":"STABLE"`))
	b = elapsedRe.ReplaceAll(b, []byte(`"elapsed_ms":0`))
	b = cachedRe.ReplaceAll(b, []byte(`"cached":false`))
	return b
}

// TestClusterEndpoint: the market allocation end-to-end through HTTP —
// request-order jobs, the whole budget spent in curve pieces on a
// heterogeneous pair, and per-job cache reuse (a follow-up whole-graph
// /v1/solve at a granted cap is served from the LRU without a backend
// solve).
func TestClusterEndpoint(t *testing.T) {
	srv, ts := newTestServer(t, Config{Workers: 2})
	code, body := postJSON(t, ts.URL+"/v1/cluster", clusterReq("market"))
	if code != http.StatusOK {
		t.Fatalf("cluster: %d (%s)", code, body)
	}
	var resp ClusterResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Infeasible {
		t.Fatalf("unexpected infeasible response: %s", body)
	}
	if len(resp.Jobs) != 2 || resp.Jobs[0].Name != "comd-0" || resp.Jobs[1].Name != "sp-0" {
		t.Fatalf("job order not preserved: %s", body)
	}
	if resp.Iterations == 0 || resp.Solves != len(resp.Jobs) {
		t.Errorf("%d lowering steps in %d solves, want > 0 steps and one walk per job", resp.Iterations, resp.Solves)
	}
	var sum float64
	for _, j := range resp.Jobs {
		if j.MakespanS <= 0 || j.CapW < j.FloorW {
			t.Errorf("job %s: makespan %g cap %g floor %g", j.Name, j.MakespanS, j.CapW, j.FloorW)
		}
		if j.ScheduleKey == "" {
			t.Errorf("job %s: no schedule cache key", j.Name)
		}
		sum += j.CapW
	}
	if sum > resp.BudgetW+1e-6 {
		t.Errorf("allocated %.3f W over the %.0f W budget", sum, resp.BudgetW)
	}
	if got := srv.metrics.Counter("pcschedd_cluster_allocations_total"); got != 1 {
		t.Errorf("ClusterAllocations = %d, want 1", got)
	}

	// Per-job cache reuse: the allocation parked each job's final schedule
	// under its default (decomposed) solve key, so this /v1/solve is a pure
	// LRU hit.
	solves := srv.metrics.Counter("pcschedd_solves_total")
	code, body = postJSON(t, ts.URL+"/v1/solve", SolveRequest{
		Workload: clusterReq("market").Jobs[0].Workload,
		JobCapW:  resp.Jobs[0].CapW,
	})
	if code != http.StatusOK {
		t.Fatalf("follow-up solve: %d (%s)", code, body)
	}
	var sr SolveResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	if !sr.Cached {
		t.Errorf("follow-up solve at granted cap %.3f W was not a cache hit", resp.Jobs[0].CapW)
	}
	if sr.Key != resp.Jobs[0].ScheduleKey {
		t.Errorf("solve key %s != advertised schedule_key %s", sr.Key, resp.Jobs[0].ScheduleKey)
	}
	if got := srv.metrics.Counter("pcschedd_solves_total"); got != solves {
		t.Errorf("follow-up solve ran a backend solve (%d → %d)", solves, got)
	}
	if sr.MakespanS != resp.Jobs[0].MakespanS {
		t.Errorf("cached makespan %.12f != allocation makespan %.12f", sr.MakespanS, resp.Jobs[0].MakespanS)
	}

	// A repeat cluster request is a cluster-level cache hit.
	code, body = postJSON(t, ts.URL+"/v1/cluster", clusterReq("market"))
	if code != http.StatusOK {
		t.Fatalf("repeat cluster: %d (%s)", code, body)
	}
	var again ClusterResponse
	if err := json.Unmarshal(body, &again); err != nil {
		t.Fatal(err)
	}
	if !again.Cached {
		t.Error("repeat cluster request was not served from cache")
	}
	if got := srv.metrics.Counter("pcschedd_cluster_allocations_total"); got != 1 {
		t.Errorf("repeat ran the allocator again (ClusterAllocations = %d)", got)
	}
}

// TestClusterGoldenResponse pins the full response JSON byte-for-byte
// (volatile fields normalized): any schema drift, float formatting change,
// or nondeterministic ordering shows up as a golden diff. Run with -update
// to rewrite the golden after an intentional change.
func TestClusterGoldenResponse(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	code, body := postJSON(t, ts.URL+"/v1/cluster", clusterReq("market"))
	if code != http.StatusOK {
		t.Fatalf("cluster: %d (%s)", code, body)
	}
	got := normalizeCluster(body)

	golden := filepath.Join("testdata", "cluster_market.golden.json")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("response diverges from golden %s (rerun with -update after intentional changes)\n got: %s\nwant: %s",
			golden, got, want)
	}

	// Determinism across server instances: a fresh daemon answering the
	// same request produces byte-identical normalized JSON — stable job
	// ordering, no map iteration order leaking into the schema.
	_, ts2 := newTestServer(t, Config{Workers: 2})
	code, body2 := postJSON(t, ts2.URL+"/v1/cluster", clusterReq("market"))
	if code != http.StatusOK {
		t.Fatalf("second instance: %d (%s)", code, body2)
	}
	if got2 := normalizeCluster(body2); !bytes.Equal(got, got2) {
		t.Errorf("two fresh instances disagree on the same request:\n a: %s\n b: %s", got, got2)
	}
}

// TestClusterBudgetInfeasible: a budget below the floor sum answers 200
// with the in-band infeasibility proof naming every job's floor,
// largest first.
func TestClusterBudgetInfeasible(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	req := clusterReq("market")
	req.BudgetW = 10
	code, body := postJSON(t, ts.URL+"/v1/cluster", req)
	if code != http.StatusOK {
		t.Fatalf("infeasible cluster: %d (%s)", code, body)
	}
	var resp ClusterResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if !resp.Infeasible {
		t.Fatalf("expected infeasible response: %s", body)
	}
	if resp.FloorSumW <= req.BudgetW {
		t.Errorf("floor_sum_w %g should exceed budget %g", resp.FloorSumW, req.BudgetW)
	}
	if len(resp.Floors) != 2 {
		t.Fatalf("floors should name both jobs: %s", body)
	}
	if resp.Floors[0].FloorW < resp.Floors[1].FloorW {
		t.Errorf("floors not sorted largest-first: %s", body)
	}
	if len(resp.Jobs) != 0 {
		t.Errorf("infeasible response should carry no job allocations: %s", body)
	}
}

// TestClusterBadRequests: structural validation answers 400.
func TestClusterBadRequests(t *testing.T) {
	srv, ts := newTestServer(t, Config{Workers: 2})
	wl := &WorkloadSpec{Name: "CoMD", Ranks: 2, Iters: 3, Seed: 1, Scale: 0.1}
	cases := []struct {
		name string
		req  ClusterRequest
	}{
		{"no jobs", ClusterRequest{BudgetW: 100}},
		{"no budget", ClusterRequest{Jobs: []ClusterJobSpec{{Name: "a", Workload: wl}}}},
		{"both budgets", ClusterRequest{Jobs: []ClusterJobSpec{{Name: "a", Workload: wl}}, BudgetW: 100, BudgetPerSocketW: 50}},
		{"unnamed job", ClusterRequest{Jobs: []ClusterJobSpec{{Workload: wl}}, BudgetW: 100}},
		{"dup names", ClusterRequest{Jobs: []ClusterJobSpec{{Name: "a", Workload: wl}, {Name: "a", Workload: wl}}, BudgetW: 100}},
		{"no graph", ClusterRequest{Jobs: []ClusterJobSpec{{Name: "a"}}, BudgetW: 100}},
		{"bad policy", func() ClusterRequest { r := clusterReq("vickrey"); return r }()},
		{"bad workload", ClusterRequest{Jobs: []ClusterJobSpec{{Name: "a", Workload: &WorkloadSpec{Name: "nope"}}}, BudgetW: 100}},
	}
	before := srv.metrics.Counter("pcschedd_bad_requests_total")
	for _, tc := range cases {
		code, body := postJSON(t, ts.URL+"/v1/cluster", tc.req)
		if code != http.StatusBadRequest {
			t.Errorf("%s: status %d (%s)", tc.name, code, body)
		}
	}
	if got := srv.metrics.Counter("pcschedd_bad_requests_total") - before; got != uint64(len(cases)) {
		t.Errorf("BadRequests counted %d of %d", got, len(cases))
	}
	// The retired market convergence knobs are unknown fields.
	for _, field := range []string{"tolerance_s_per_w", "max_iterations"} {
		req := map[string]any{"jobs": []ClusterJobSpec{{Name: "a", Workload: wl}}, "budget_w": 100, field: 1}
		code, body := postJSON(t, ts.URL+"/v1/cluster", req)
		if code != http.StatusBadRequest || !strings.Contains(string(body), field) {
			t.Errorf("%s: status %d (%s), want 400 naming the field", field, code, body)
		}
	}
}

// TestClusterPolicies: every policy answers through the endpoint, the
// market total never exceeds the uniform total on the heterogeneous pair,
// and a retired policy name is a 400 that names the accepted ones.
func TestClusterPolicies(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	totals := map[string]float64{}
	for _, pol := range []string{"uniform", "proportional", "market"} {
		code, body := postJSON(t, ts.URL+"/v1/cluster", clusterReq(pol))
		if code != http.StatusOK {
			t.Fatalf("%s: %d (%s)", pol, code, body)
		}
		var resp ClusterResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			t.Fatal(err)
		}
		if resp.Policy != pol {
			t.Errorf("policy echoed as %q, want %q", resp.Policy, pol)
		}
		totals[pol] = resp.TotalMakespanS
	}
	if totals["market"] > totals["uniform"]*(1+1e-9) {
		t.Errorf("market total %.6f worse than uniform %.6f", totals["market"], totals["uniform"])
	}
	code, body := postJSON(t, ts.URL+"/v1/cluster", clusterReq("auction"))
	if code != http.StatusBadRequest || !strings.Contains(string(body), "[uniform proportional market]") {
		t.Errorf("auction policy: status %d (%s), want 400 naming the three policies", code, body)
	}
}
