package service

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"strconv"
	"testing"
	"time"

	"powercap"
	"powercap/internal/faultinject"
)

// Service-level tests of admission under overload: Retry-After hints on
// 429s, the queue-occupancy gauge, and breaker recovery after a fault
// storm.

func TestRetryAfterOnQueueFull(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1})
	// Occupy every admission token so the next solve is rejected.
	for i := 0; i < cap(s.queue); i++ {
		s.queue <- struct{}{}
	}
	defer func() {
		for i := 0; i < cap(s.queue); i++ {
			<-s.queue
		}
	}()

	body, err := json.Marshal(SolveRequest{Workload: fastWL, CapPerSocketW: 50})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/solve", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	ra, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil || ra < 1 {
		t.Fatalf("Retry-After %q, want an integer ≥ 1", resp.Header.Get("Retry-After"))
	}
}

// TestQueueOccupancy: the occupancy gauge is the admission tokens held over
// the admission capacity (workers + queue depth).
func TestQueueOccupancy(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2, QueueDepth: 2})
	occupancy := func() float64 { return metricsMap(t, ts.URL)["pcschedd_queue_occupancy"] }
	if got := occupancy(); got != 0 {
		t.Fatalf("idle occupancy %g", got)
	}
	release, err := s.acquire(context.Background())
	if err != nil {
		t.Fatalf("acquire: %v", err)
	}
	if got := occupancy(); got != 0.25 {
		t.Fatalf("occupancy %g, want 0.25 (1 of 4 admission tokens)", got)
	}
	release()
	if got := occupancy(); got != 0 {
		t.Fatalf("occupancy %g after release, want 0", got)
	}
}

// TestTwinChaosRecovery is the chaos-smoke recovery case: under an lp-nan +
// lp-stall + worker-panic storm the sparse breaker opens while every answer
// stays a 200, 500 or 429; once the faults clear and the cooldown elapses,
// calm solves must re-close it within a bounded number of requests, and the
// recovered daemon serves clean full-fidelity schedules.
func TestTwinChaosRecovery(t *testing.T) {
	faultinject.Disable()
	s, ts := newTestServer(t, Config{
		Workers: 2,
		Resilience: powercap.ResilienceConfig{
			BreakerCooldown: 50 * time.Millisecond,
		},
	})

	// NaNs alone are repaired in place by the solver's refactorization
	// rescue; stalls are what actually fail a rung and charge its breaker.
	faultinject.Configure(7, map[faultinject.Class]float64{
		faultinject.LPNaN:       0.5,
		faultinject.LPStall:     1.0,
		faultinject.WorkerPanic: 0.2,
	})
	defer faultinject.Disable()

	// Storm: every LP pivot loop stalls out, so the ladder descends to its
	// heuristic and the sparse breaker opens.
	for i := 0; i < 10; i++ {
		code, _ := postJSON(t, ts.URL+"/v1/solve",
			SolveRequest{Workload: fastWL, CapPerSocketW: 50 + float64(i)})
		if code != http.StatusOK && code != http.StatusInternalServerError &&
			code != http.StatusTooManyRequests {
			t.Fatalf("storm solve %d: unexpected status %d", i, code)
		}
	}
	if br := s.breakerStates(); br["sparse"] == "closed" {
		t.Fatal("sparse breaker still closed after an all-stall storm")
	}
	t.Logf("storm: breakers %v", s.breakerStates())

	// Recovery: faults off, cooldown elapses, and calm solves must re-close
	// the sparse breaker within 30 requests.
	faultinject.Disable()
	time.Sleep(60 * time.Millisecond) // past BreakerCooldown
	recovered := -1
	for i := 0; i < 30; i++ {
		code, _ := postJSON(t, ts.URL+"/v1/solve",
			SolveRequest{Workload: fastWL, CapPerSocketW: 100 + float64(i)})
		if code != http.StatusOK {
			t.Fatalf("recovery solve %d: status %d", i, code)
		}
		if s.breakerStates()["sparse"] == "closed" {
			recovered = i + 1
			break
		}
	}
	if recovered < 0 {
		t.Fatalf("no recovery within 30 calm solves: breakers %v", s.breakerStates())
	}
	t.Logf("sparse breaker closed again after %d calm solves", recovered)

	// Fully recovered service serves clean full-fidelity schedules.
	code, resp := solveJSON(t, ts.URL+"/v1/solve", SolveRequest{Workload: fastWL, CapPerSocketW: 200})
	if code != http.StatusOK || resp.Degraded {
		t.Fatalf("post-recovery solve: status %d degraded %v", code, resp.Degraded)
	}
}
