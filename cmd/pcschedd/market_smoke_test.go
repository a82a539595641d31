package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

// TestMarketSmoke drives the cluster power market end-to-end against a real
// daemon: build pcschedd, start it on a random port, fire one /v1/cluster
// allocation (market policy, heterogeneous pair), assert the response
// schema (lowering steps in one walk per job, no retired convergence
// fields) and budget feasibility, verify the per-job
// schedule cache seeding with a follow-up /v1/solve at a granted cap, check
// the pcschedd_cluster_* /metrics counters (and that the retired ones are
// gone), then SIGTERM and require a clean exit. This is the
// `make market-smoke` daemon half; the allocator properties themselves are
// covered race-detected in internal/market.
func TestMarketSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping daemon smoke test in -short mode")
	}
	bin := filepath.Join(t.TempDir(), "pcschedd")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building pcschedd: %v\n%s", err, out)
	}

	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-quiet")
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()

	var base string
	sc := bufio.NewScanner(stdout)
	for sc.Scan() {
		if _, url, ok := strings.Cut(sc.Text(), "listening on "); ok {
			base = url
			break
		}
	}
	if base == "" {
		t.Fatalf("no listening line from pcschedd; stderr:\n%s", stderr.String())
	}

	post := func(path, body string) (int, string) {
		t.Helper()
		resp, err := http.Post(base+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(b)
	}

	clusterReq := `{
		"jobs": [
			{"name": "comd-0", "workload": {"name":"CoMD","ranks":2,"iters":3,"seed":1,"scale":0.1}},
			{"name": "sp-0",   "workload": {"name":"SP","ranks":2,"iters":3,"seed":2,"scale":0.15}}
		],
		"budget_w": 130,
		"policy": "market"
	}`
	code, body := post("/v1/cluster", clusterReq)
	if code != http.StatusOK {
		t.Fatalf("cluster: status %d (%s)", code, body)
	}
	var resp struct {
		Iterations int `json:"iterations"`
		Solves     int `json:"solves"`
		Jobs       []struct {
			Name        string  `json:"name"`
			CapW        float64 `json:"cap_w"`
			ScheduleKey string  `json:"schedule_key"`
		} `json:"jobs"`
		BudgetW float64 `json:"budget_w"`
	}
	if err := json.Unmarshal([]byte(body), &resp); err != nil {
		t.Fatalf("decoding cluster response: %v (%s)", err, body)
	}
	if resp.Iterations == 0 || resp.Solves != 2 {
		t.Errorf("want lowering steps in 2 solves (one walk per job): %s", body)
	}
	for _, retired := range []string{`"converged"`, `"final_spread_s_per_w"`, `"transfers"`} {
		if strings.Contains(body, retired) {
			t.Errorf("response still carries the retired field %s: %s", retired, body)
		}
	}
	var sum float64
	for _, j := range resp.Jobs {
		sum += j.CapW
		if j.ScheduleKey == "" {
			t.Errorf("job %s: no schedule_key", j.Name)
		}
	}
	if len(resp.Jobs) != 2 || sum > resp.BudgetW+1e-6 {
		t.Fatalf("bad allocation (sum %.3f of %.0f W): %s", sum, resp.BudgetW, body)
	}

	// A repeat allocation is a cluster-level cache hit.
	if code, body := post("/v1/cluster", clusterReq); code != http.StatusOK {
		t.Fatalf("repeat cluster: status %d (%s)", code, body)
	} else if !strings.Contains(body, `"cached":true`) {
		t.Fatalf("repeat cluster not served from cache: %s", body)
	}

	// The allocation parked each job's schedule under its default
	// (decomposed) solve key: fetching comd-0's schedule at the granted cap
	// is a cache hit.
	solveReq, _ := json.Marshal(map[string]any{
		"workload":  map[string]any{"name": "CoMD", "ranks": 2, "iters": 3, "seed": 1, "scale": 0.1},
		"job_cap_w": resp.Jobs[0].CapW,
	})
	if code, body := post("/v1/solve", string(solveReq)); code != http.StatusOK {
		t.Fatalf("follow-up solve: status %d (%s)", code, body)
	} else if !strings.Contains(body, `"cached":true`) {
		t.Fatalf("follow-up solve at granted cap not a cache hit: %s", body)
	}

	m := fetchMetrics(t, base)
	for name, want := range map[string]float64{
		"pcschedd_cluster_allocations_total":    1,
		"pcschedd_cluster_jobs_allocated_total": 2,
		"pcschedd_cluster_degraded_jobs_total":  0,
		"pcschedd_cluster_infeasible_total":     0,
	} {
		if got := m[name]; got != want {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	for _, retired := range []string{"pcschedd_cluster_converged_total", "pcschedd_cluster_iterations_count"} {
		if _, ok := m[retired]; ok {
			t.Errorf("/metrics still exports the retired %s", retired)
		}
	}
	if m["pcschedd_cluster_moved_watts_total"] <= 0 {
		t.Errorf("pcschedd_cluster_moved_watts_total = %v, want > 0",
			m["pcschedd_cluster_moved_watts_total"])
	}

	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("pcschedd exited uncleanly: %v\nstderr:\n%s", err, stderr.String())
		}
	case <-time.After(30 * time.Second):
		t.Fatal("pcschedd did not exit after SIGTERM")
	}
}
