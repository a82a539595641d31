package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"powercap"
	"powercap/internal/obs"
	"powercap/internal/service"
)

// TestJSONMatchesService is the CLI↔service schema integration test: the
// comparison `pcsched -policy all -json` emits must decode as a service
// CompareResponse and carry the exact Comparison that POST /v1/compare
// returns for the same workload and cap.
func TestJSONMatchesService(t *testing.T) {
	args := []string{
		"-workload", "CoMD", "-ranks", "2", "-iters", "6",
		"-seed", "1", "-scale", "0.1", "-cap", "55",
		"-policy", "all", "-json",
	}
	var out, errs bytes.Buffer
	if err := run(args, &out, &errs); err != nil {
		t.Fatalf("run: %v (stderr: %s)", err, errs.String())
	}
	var cli service.CompareResponse
	if err := json.Unmarshal(out.Bytes(), &cli); err != nil {
		t.Fatalf("-json output is not a CompareResponse: %v\n%s", err, out.String())
	}
	if cli.Comparison.Workload != "CoMD" || cli.Comparison.PerSocketW != 55 {
		t.Fatalf("unexpected comparison header: %+v", cli.Comparison)
	}
	if cli.Comparison.LPBoundS <= 0 || cli.Comparison.StaticS <= 0 || cli.Comparison.ConductorS <= 0 {
		t.Fatalf("comparison has empty times: %+v", cli.Comparison)
	}

	ts := httptest.NewServer(service.New(service.Config{Workers: 2}))
	defer ts.Close()
	body := `{"workload":{"name":"CoMD","ranks":2,"iters":6,"seed":1,"scale":0.1},"cap_per_socket_w":55}`
	resp, err := http.Post(ts.URL+"/v1/compare", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("service compare: %d (%s)", resp.StatusCode, raw)
	}
	var svc service.CompareResponse
	if err := json.Unmarshal(raw, &svc); err != nil {
		t.Fatal(err)
	}
	if cli.Comparison != svc.Comparison {
		t.Errorf("CLI and service disagree:\ncli: %+v\nsvc: %+v", cli.Comparison, svc.Comparison)
	}
}

// TestSolveJSONMatchesService is the solve-side CLI↔service parity test:
// `pcsched -policy lp -json` must emit the /v1/solve response schema with
// the same cache key, graph digest, makespan, and solver-effort stats the
// service reports for the identical request — the satellite guarantee that
// CLI and daemon report the same effort numbers.
func TestSolveJSONMatchesService(t *testing.T) {
	args := []string{
		"-workload", "CoMD", "-ranks", "2", "-iters", "6",
		"-seed", "1", "-scale", "0.1", "-cap", "55",
		"-policy", "lp", "-json",
	}
	var out, errs bytes.Buffer
	if err := run(args, &out, &errs); err != nil {
		t.Fatalf("run: %v (stderr: %s)", err, errs.String())
	}
	var cli service.SolveResponse
	if err := json.Unmarshal(out.Bytes(), &cli); err != nil {
		t.Fatalf("-json output is not a SolveResponse: %v\n%s", err, out.String())
	}
	if cli.MakespanS <= 0 || cli.Stats == nil || cli.Stats.SimplexPivots <= 0 {
		t.Fatalf("CLI solve missing makespan or stats: %+v", cli)
	}

	ts := httptest.NewServer(service.New(service.Config{Workers: 2}))
	defer ts.Close()
	body := `{"workload":{"name":"CoMD","ranks":2,"iters":6,"seed":1,"scale":0.1},"cap_per_socket_w":55}`
	resp, err := http.Post(ts.URL+"/v1/solve", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("service solve: %d (%s)", resp.StatusCode, raw)
	}
	var svc service.SolveResponse
	if err := json.Unmarshal(raw, &svc); err != nil {
		t.Fatal(err)
	}
	if cli.Key != svc.Key || cli.GraphDigest != svc.GraphDigest {
		t.Errorf("CLI and service key/digest disagree:\ncli: %s %s\nsvc: %s %s",
			cli.Key, cli.GraphDigest, svc.Key, svc.GraphDigest)
	}
	if cli.MakespanS != svc.MakespanS {
		t.Errorf("makespan: cli %v != svc %v", cli.MakespanS, svc.MakespanS)
	}
	if *cli.Stats != *svc.Stats {
		t.Errorf("solver effort disagrees:\ncli: %+v\nsvc: %+v", *cli.Stats, *svc.Stats)
	}
	if svc.RequestID == "" || resp.Header.Get("X-Request-Id") != svc.RequestID {
		t.Errorf("service response id %q not echoed in X-Request-Id %q",
			svc.RequestID, resp.Header.Get("X-Request-Id"))
	}
}

// TestJSONPolicyGate: -json is an error outside -sweep and -policy all/lp —
// never silently ignored. -sweep overrides -policy, with -json too: the
// sweep is emitted in the /v1/sweep schema whatever the policy names.
func TestJSONPolicyGate(t *testing.T) {
	var out, errs bytes.Buffer
	if err := run([]string{"-policy", "static", "-json"}, &out, &errs); err == nil {
		t.Fatal("-json with -policy static did not error")
	}
	if err := run([]string{"-policy", "conductor", "-json"}, &out, &errs); err == nil {
		t.Fatal("-json with -policy conductor did not error")
	}
	for _, policy := range []string{"static", "all", "lp"} {
		out.Reset()
		args := []string{"-workload", "CoMD", "-ranks", "2", "-iters", "3", "-scale", "0.1",
			"-policy", policy, "-json", "-sweep", "60:50:5"}
		if err := run(args, &out, &errs); err != nil {
			t.Fatalf("-json -policy %s with -sweep: %v", policy, err)
		}
		var resp service.SweepResponse
		if err := json.Unmarshal(out.Bytes(), &resp); err != nil || len(resp.Points) != 3 {
			t.Fatalf("-json -policy %s with -sweep: %v, %d points, want the 3-cap sweep", policy, err, len(resp.Points))
		}
	}
}

// TestTraceFlagWritesChromeJSON: -trace produces a well-formed Chrome
// trace-event document covering the solve pipeline, with strictly valid
// span nesting.
func TestTraceFlagWritesChromeJSON(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.json")
	args := []string{
		"-workload", "CoMD", "-ranks", "2", "-iters", "3",
		"-scale", "0.1", "-cap", "55", "-realize", "down", "-trace", path,
	}
	var out, errs bytes.Buffer
	if err := run(args, &out, &errs); err != nil {
		t.Fatalf("run: %v (stderr: %s)", err, errs.String())
	}
	if !strings.Contains(errs.String(), "spans written to") {
		t.Errorf("missing trace confirmation on stderr: %s", errs.String())
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc obs.Document
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("trace file is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("trace has no events")
	}
	if doc.DroppedSpans != 0 {
		t.Errorf("trace dropped %d spans", doc.DroppedSpans)
	}
	if err := obs.CheckNesting(doc.TraceEvents); err != nil {
		t.Errorf("nesting: %v", err)
	}
	names := map[string]bool{}
	for _, e := range doc.TraceEvents {
		names[e.Name] = true
	}
	for _, want := range []string{
		"core.solve", "lp.solve", "problem.build", "schedule.realize", "sim.evaluate",
	} {
		if !names[want] {
			t.Errorf("span %q missing from trace (have %v)", want, names)
		}
	}
}

// TestSweepSpecRejected: malformed -sweep specs must surface
// ParseSweepSpec's descriptive errors through the CLI.
func TestSweepSpecRejected(t *testing.T) {
	cases := []struct {
		spec    string
		wantSub string
	}{
		{"70:30", "want hi:lo:step"},
		{"70:30:0", "step must be positive"},
		{"70:30:-5", "step must be positive"},
		{"30:70:5", "must be ≥ lo"},
		{"70:abc:5", "not a number"},
		{"NaN:30:5", "must be finite"},
	}
	for _, c := range cases {
		var out, errs bytes.Buffer
		err := run([]string{"-workload", "CoMD", "-ranks", "2", "-iters", "3",
			"-scale", "0.1", "-sweep", c.spec}, &out, &errs)
		if err == nil {
			t.Errorf("spec %q accepted, want error", c.spec)
			continue
		}
		if !strings.Contains(err.Error(), c.wantSub) {
			t.Errorf("spec %q: error %q does not mention %q", c.spec, err, c.wantSub)
		}
	}
}

// TestSweepRuns: a valid sweep spec produces one table row per cap.
func TestSweepRuns(t *testing.T) {
	var out, errs bytes.Buffer
	err := run([]string{"-workload", "CoMD", "-ranks", "2", "-iters", "3",
		"-scale", "0.1", "-sweep", "60:50:5"}, &out, &errs)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(out.String(), "sweep: 60 → 50 W per socket (3 caps") {
		t.Errorf("missing sweep header:\n%s", out.String())
	}
	for _, cap := range []string{"60.0", "55.0", "50.0"} {
		if !strings.Contains(out.String(), cap) {
			t.Errorf("missing row for cap %s:\n%s", cap, out.String())
		}
	}
}

// clusterRequestJSON is a small heterogeneous /v1/cluster request.
const clusterRequestJSON = `{
	"jobs": [
		{"name": "comd-0", "workload": {"name": "CoMD", "ranks": 2, "iters": 3, "seed": 1, "scale": 0.1}},
		{"name": "sp-0", "workload": {"name": "SP", "ranks": 2, "iters": 3, "seed": 2, "scale": 0.15}}
	],
	"budget_w": 130,
	"policy": "market"%s
}`

// TestClusterJSONMatchesService: `pcsched -cluster FILE -json` emits
// exactly the response the service's renderer builds for the same request.
func TestClusterJSONMatchesService(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cluster.json")
	if err := os.WriteFile(path, []byte(fmt.Sprintf(clusterRequestJSON, "")), 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errs bytes.Buffer
	if err := run([]string{"-cluster", path, "-json"}, &out, &errs); err != nil {
		t.Fatalf("run: %v (stderr: %s)", err, errs.String())
	}

	var req service.ClusterRequest
	if err := json.Unmarshal([]byte(fmt.Sprintf(clusterRequestJSON, "")), &req); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	in, err := service.ResolveCluster(ctx, &req)
	if err != nil {
		t.Fatal(err)
	}
	alloc, err := powercap.AllocateCluster(ctx, in.Jobs, in.BudgetW, nil, in.Opts)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	enc := json.NewEncoder(&want)
	enc.SetIndent("", "  ")
	if err := enc.Encode(service.NewClusterResponse(in, alloc, nil, nil)); err != nil {
		t.Fatal(err)
	}
	if out.String() != want.String() {
		t.Errorf("CLI and service renderer disagree:\ncli: %s\nsvc: %s", out.String(), want.String())
	}
}

// TestClusterRejectsUnknownField: the request file is decoded as strictly
// as the daemon decodes /v1/cluster — a retired or misspelled field is an
// error naming the field, not a silently ignored key.
func TestClusterRejectsUnknownField(t *testing.T) {
	for _, field := range []string{"tolerance_s_per_w", "budgetw"} {
		path := filepath.Join(t.TempDir(), "cluster.json")
		body := fmt.Sprintf(clusterRequestJSON, fmt.Sprintf(",\n\t%q: 1", field))
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		var out, errs bytes.Buffer
		err := run([]string{"-cluster", path}, &out, &errs)
		if err == nil || !strings.Contains(err.Error(), field) {
			t.Errorf("%s: got %v, want an error naming the field", field, err)
		}
	}
}

// TestSweepJSONMatchesService: `pcsched -sweep -workers 1 -json` emits the
// response POST /v1/sweep returns for the same spec, field for field but
// the daemon-only request ID, elapsed time and trace; and a -workers 4
// sweep, whose chunks each start cold, lands on the same bounds within
// 1e-9.
func TestSweepJSONMatchesService(t *testing.T) {
	args := []string{
		"-workload", "SP", "-ranks", "4", "-iters", "2", "-seed", "3", "-scale", "0.5",
		"-sweep", "60:10:10", "-json",
	}
	cli := func(workers string) service.SweepResponse {
		var out, errs bytes.Buffer
		if err := run(append(args, "-workers", workers), &out, &errs); err != nil {
			t.Fatalf("run -workers %s: %v (stderr: %s)", workers, err, errs.String())
		}
		var resp service.SweepResponse
		dec := json.NewDecoder(&out)
		dec.DisallowUnknownFields()
		if err := dec.Decode(&resp); err != nil {
			t.Fatalf("-workers %s: output is not a SweepResponse: %v", workers, err)
		}
		return resp
	}
	one, four := cli("1"), cli("4")

	ts := httptest.NewServer(service.New(service.Config{Workers: 2}))
	defer ts.Close()
	body := `{"workload":{"name":"SP","ranks":4,"iters":2,"seed":3,"scale":0.5},"spec":"60:10:10"}`
	resp, err := http.Post(ts.URL+"/v1/sweep", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("service sweep: %d (%s)", resp.StatusCode, raw)
	}
	var svc service.SweepResponse
	if err := json.Unmarshal(raw, &svc); err != nil {
		t.Fatal(err)
	}
	svc.RequestID, svc.ElapsedMS, svc.Trace = "", 0, nil
	if !reflect.DeepEqual(one, svc) {
		c, _ := json.Marshal(one)
		s, _ := json.Marshal(svc)
		t.Errorf("CLI and service sweeps disagree:\ncli: %s\nsvc: %s", c, s)
	}

	infeasible := 0
	if len(four.Points) != len(one.Points) || len(one.Points) != 6 {
		t.Fatalf("%d points with 4 workers, %d with 1, want 6", len(four.Points), len(one.Points))
	}
	for i, p := range one.Points {
		q := four.Points[i]
		if p.Infeasible {
			infeasible++
		}
		if q.PerSocketW != p.PerSocketW || q.Infeasible != p.Infeasible || q.Error != p.Error ||
			math.Abs(q.MakespanS-p.MakespanS) > 1e-9*p.MakespanS {
			t.Errorf("cap %g W: 4 workers %+v, 1 worker %+v", p.PerSocketW, q, p)
		}
	}
	if infeasible == 0 || infeasible == len(one.Points) {
		t.Errorf("%d of %d caps infeasible, want both kinds of point", infeasible, len(one.Points))
	}
}
