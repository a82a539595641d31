package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"

	"powercap/internal/service"
)

// The "service" exhibit benchmarks pcschedd's serving layer in-process:
// throughput and latency of POST /v1/solve at 1, 4, and 16 concurrent
// clients, cold (every request a distinct cap, forcing a backend solve)
// versus cached (the same caps again, served from the content-addressed
// LRU). With -benchjson the measurements are written as BENCH_service.json.

// servicePhase is one (concurrency, cold|cached) measurement.
type servicePhase struct {
	Requests  int     `json:"requests"`
	ReqPerSec float64 `json:"req_per_sec"`
	P50MS     float64 `json:"p50_ms"`
	P99MS     float64 `json:"p99_ms"`
}

// serviceLevel is one concurrency level's cold and cached phases.
type serviceLevel struct {
	Clients int          `json:"clients"`
	Cold    servicePhase `json:"cold"`
	Cached  servicePhase `json:"cached"`
}

// serviceReport is the BENCH_service.json document.
type serviceReport struct {
	Workload  string         `json:"workload"`
	Ranks     int            `json:"ranks"`
	Iters     int            `json:"iters"`
	Workers   int            `json:"workers"`
	Levels    []serviceLevel `json:"levels"`
	Generated string         `json:"generated"`
}

func runService(cfg config) error {
	header("Service", "pcschedd solve throughput: cold vs content-addressed cache at 1/4/16 clients")

	// Bounded problem size: the exhibit measures the serving layer, not
	// the solver, so a mid-size workload keeps the full run to seconds.
	ranks := cfg.ranks
	if ranks > 8 {
		ranks = 8
	}
	const iters = 6
	workers := runtime.GOMAXPROCS(0)

	svc := service.New(service.Config{Workers: workers, CacheSize: 4096})
	ts := httptest.NewServer(svc)
	defer ts.Close()
	client := ts.Client()

	const perPhase = 48 // divisible by every client count
	report := serviceReport{
		Workload: "CoMD", Ranks: ranks, Iters: iters, Workers: workers,
		Generated: time.Now().UTC().Format(time.RFC3339),
	}

	fmt.Printf("%8s%10s%14s%10s%10s\n", "clients", "phase", "req/sec", "p50(ms)", "p99(ms)")
	for li, clients := range []int{1, 4, 16} {
		// A per-level seed gives each level its own efficiency scales and
		// therefore its own cache keys: every level's cold phase is cold.
		bodies := make([][]byte, perPhase)
		for i := range bodies {
			body, err := json.Marshal(service.SolveRequest{
				Workload: &service.WorkloadSpec{
					Name: "CoMD", Ranks: ranks, Iters: iters,
					Seed: int64(100 + li), Scale: cfg.scale,
				},
				CapPerSocketW: 70 - 0.5*float64(i), // 48 distinct caps, 70 → 46.5 W
			})
			if err != nil {
				return err
			}
			bodies[i] = body
		}

		fmt.Fprintf(os.Stderr, "  %d client(s): cold...\n", clients)
		cold, err := runServicePhase(client, ts.URL, bodies, clients)
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "  %d client(s): cached...\n", clients)
		cached, err := runServicePhase(client, ts.URL, bodies, clients)
		if err != nil {
			return err
		}

		report.Levels = append(report.Levels, serviceLevel{Clients: clients, Cold: cold, Cached: cached})
		fmt.Printf("%8d%10s%14.1f%10.2f%10.2f\n", clients, "cold", cold.ReqPerSec, cold.P50MS, cold.P99MS)
		fmt.Printf("%8d%10s%14.1f%10.2f%10.2f\n", clients, "cached", cached.ReqPerSec, cached.P50MS, cached.P99MS)
	}

	m := svc.Metrics()
	fmt.Printf("\nbackend solves %d, cache hits %d (of %d requests)\n",
		m.Counter("pcschedd_solves_total"), m.Counter("pcschedd_cache_hits_total"), m.Counter("pcschedd_requests_total"))

	if cfg.benchJSON != "" {
		data, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(cfg.benchJSON, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", cfg.benchJSON)
	}
	return nil
}

// runServicePhase fires every body once, spread over the given number of
// concurrent clients, and reduces the per-request latencies.
func runServicePhase(client *http.Client, base string, bodies [][]byte, clients int) (servicePhase, error) {
	work := make(chan int)
	latencies := make([]time.Duration, len(bodies))
	errs := make(chan error, clients)
	var wg sync.WaitGroup

	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				t0 := time.Now()
				resp, err := client.Post(base+"/v1/solve", "application/json", bytes.NewReader(bodies[i]))
				if err != nil {
					errs <- err
					return
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("solve request %d: status %d", i, resp.StatusCode)
					return
				}
				latencies[i] = time.Since(t0)
			}
		}()
	}
	for i := range bodies {
		work <- i
	}
	close(work)
	wg.Wait()
	wall := time.Since(start)
	select {
	case err := <-errs:
		return servicePhase{}, err
	default:
	}

	sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
	n := len(latencies)
	return servicePhase{
		Requests:  n,
		ReqPerSec: float64(n) / wall.Seconds(),
		P50MS:     float64(latencies[n/2]) / float64(time.Millisecond),
		P99MS:     float64(latencies[min(n-1, n*99/100)]) / float64(time.Millisecond),
	}, nil
}
