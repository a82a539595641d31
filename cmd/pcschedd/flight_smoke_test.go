package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"powercap/internal/obs"
	"powercap/internal/service"
)

// sigquitMarker is how the indented stderr dump tags itself.
const sigquitMarker = `"reason": "sigquit"`

// syncBuffer lets the test poll the daemon's stderr while the exec copier
// goroutine is still appending to it (plain bytes.Buffer would race).
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// TestFlightRecorderSmoke is the forensics half of `make obs-smoke`: a real
// pcschedd, a PCSCHEDD_FAULTS-induced lp-stall window, and an aggressive
// latency SLO. It asserts the flight recorder reconstructs the incident —
// wide events naming the ladder rung that served and the descent trail,
// admission-time SLO burn spiking — that the
// pcschedd_lp_* / pcschedd_slo_* metric families carry the incident, and
// that SIGQUIT dumps the ring to stderr without stopping the daemon.
func TestFlightRecorderSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping daemon smoke test in -short mode")
	}
	bin := filepath.Join(t.TempDir(), "pcschedd")
	// Race-instrumented daemon: the lock-free record path and the SIGQUIT
	// dump goroutine run under the detector with real traffic.
	if out, err := exec.Command("go", "build", "-race", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building pcschedd: %v\n%s", err, out)
	}

	// Every pivot loop stalls, so every fresh solve rides the ladder down;
	// the 1ns latency objective makes every request burn.
	cmd := exec.Command(bin,
		"-addr", "127.0.0.1:0", "-quiet",
		"-slo-latency", "1ns",
		"-flight-dir", t.TempDir(),
	)
	cmd.Env = append(cmd.Environ(), "PCSCHEDD_FAULTS=seed=11,lp-stall=1.0")
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	var stderr syncBuffer
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

	// Ten distinct caps: every one is a cache miss and a fresh (stalled,
	// degraded) solve. A request rejected with 429 still leaves a wide
	// event; we need at least one 200 to anchor the causal-chain
	// assertions.
	var okResp service.SolveResponse
	requests := 0
	for cap := 50; cap < 60; cap++ {
		body := fmt.Sprintf(
			`{"workload":{"name":"CoMD","ranks":2,"iters":3,"seed":1,"scale":0.1},"cap_per_socket_w":%d}`, cap)
		resp, err := http.Post(base+"/v1/solve", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		requests++
		if resp.StatusCode == http.StatusOK && okResp.RequestID == "" {
			if err := json.Unmarshal(raw, &okResp); err != nil {
				t.Fatalf("bad solve response: %v (%s)", err, raw)
			}
		}
		time.Sleep(10 * time.Millisecond) // let SLO buckets advance
	}
	if okResp.RequestID == "" {
		t.Fatal("no solve succeeded during the fault window")
	}
	if !okResp.Degraded {
		t.Error("all-stall solve was not degraded; PCSCHEDD_FAULTS inert?")
	}

	// The flight dump reconstructs the incident.
	fr, err := http.Get(base + "/debug/flightrecorder?n=0")
	if err != nil {
		t.Fatal(err)
	}
	var dump struct {
		Total  uint64          `json:"total_recorded"`
		Events []obs.WideEvent `json:"events"`
	}
	err = json.NewDecoder(fr.Body).Decode(&dump)
	fr.Body.Close()
	if err != nil {
		t.Fatalf("bad flight dump: %v", err)
	}
	if dump.Total < uint64(requests) {
		t.Errorf("flight recorder saw %d events, want >= %d", dump.Total, requests)
	}
	var anchor *obs.WideEvent
	burnSeen := false
	for i := range dump.Events {
		ev := &dump.Events[i]
		if ev.RequestID == okResp.RequestID {
			anchor = ev
		}
		if ev.SLOFastBurn > 0 {
			burnSeen = true
		}
	}
	if anchor == nil {
		t.Fatalf("dump lacks the anchored solve %s (%d events)", okResp.RequestID, len(dump.Events))
	}
	if anchor.Rung == "" || !anchor.Degraded {
		t.Errorf("anchored event rung %q degraded=%v, want a named ladder rung", anchor.Rung, anchor.Degraded)
	}
	if anchor.RungAttempts[0] == 0 {
		t.Errorf("anchored event rung attempts %v: no descent trail", anchor.RungAttempts)
	}
	if !burnSeen {
		t.Error("no wide event carries an SLO burn spike")
	}

	// The incident is visible in the metric families.
	m := fetchMetrics(t, base)
	if m[`pcschedd_slo_fast_burn{objective="latency"}`] <= 0 {
		t.Error("latency fast burn not spiking in /metrics")
	}
	if m[`pcschedd_slo_window_total{objective="availability",window="fast"}`] <= 0 {
		t.Error("availability fast window empty in /metrics")
	}
	if m["pcschedd_flightrecorder_events_total"] < float64(requests) {
		t.Errorf("flightrecorder_events_total = %v, want >= %d",
			m["pcschedd_flightrecorder_events_total"], requests)
	}
	// The lp-stall window never completes an LP solve, so the numerical-
	// health counters stay at zero — but the families must still be
	// scrapeable mid-incident (zero-valued, not absent).
	for _, fam := range []string{
		"pcschedd_lp_refactorizations_total",
		"pcschedd_lp_nan_recoveries_total",
		"pcschedd_lp_max_eta_len",
	} {
		if _, ok := m[fam]; !ok {
			t.Errorf("family %s absent from /metrics during the incident", fam)
		}
	}

	// SIGQUIT: live forensics dump, daemon keeps serving.
	if err := cmd.Process.Signal(syscall.SIGQUIT); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		hz, err := http.Get(base + "/healthz")
		if err != nil {
			t.Fatalf("daemon died after SIGQUIT: %v", err)
		}
		io.Copy(io.Discard, hz.Body)
		hz.Body.Close()
		// The dump goroutine races this probe; poll stderr until it lands.
		if strings.Contains(stderr.String(), sigquitMarker) || time.Now().After(deadline) {
			break
		}
		time.Sleep(50 * time.Millisecond)
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
	log := stderr.String()
	if !strings.Contains(log, "FAULT INJECTION ARMED") {
		t.Error("no loud fault-injection warning on stderr")
	}
	if !strings.Contains(log, sigquitMarker) {
		t.Errorf("SIGQUIT flight dump missing from stderr:\n%.2000s", log)
	}
	// The dump on stderr is itself valid wide-event JSON: round-trip it.
	if i := strings.Index(log, sigquitMarker); i >= 0 {
		i = strings.LastIndex(log[:i], "{")
		var qd struct {
			Events []obs.WideEvent `json:"events"`
		}
		dec := json.NewDecoder(strings.NewReader(log[i:]))
		if err := dec.Decode(&qd); err != nil {
			t.Errorf("SIGQUIT dump is not valid JSON: %v", err)
		} else if len(qd.Events) == 0 {
			t.Error("SIGQUIT dump carries no events")
		}
	}
}
