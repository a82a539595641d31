package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"time"

	"powercap"
	"powercap/internal/faultinject"
	"powercap/internal/service"
)

// The "resilience" exhibit measures the fallback ladder of DESIGN.md §10
// under deterministic fault injection: one fresh pcschedd instance per fault
// class, a fixed sweep of solve requests against it, and a report of how
// often the ladder descended, how far, how many retries it spent, and how
// much makespan the degraded rungs gave up relative to the clean LP bound.
// The faults-off scenario doubles as the regression guard: its fallback rate
// must be exactly zero. With -benchjson the measurements are written as
// JSON (the committed copy is BENCH_resilience.json).

// resilienceScenario is one fault class's aggregate over the request sweep.
type resilienceScenario struct {
	Class         string  `json:"class"`
	Rate          float64 `json:"rate"`
	Requests      int     `json:"requests"`
	OK            int     `json:"ok"`
	Contained500s int     `json:"contained_500s"`
	Timeouts      int     `json:"timeouts_504"`
	Degraded      int     `json:"degraded"`
	FallbackPct   float64 `json:"fallback_pct"`
	Heuristic     uint64  `json:"fallback_heuristic"`
	Static        uint64  `json:"fallback_static"`
	Retries       uint64  `json:"solve_retries"`
	Panics        uint64  `json:"panics"`
	CacheBypasses uint64  `json:"cache_bypasses"`
	MeanGapPct    float64 `json:"mean_degraded_gap_pct"`
	MaxGapPct     float64 `json:"max_degraded_gap_pct"`
}

// resilienceReport is the BENCH_resilience.json document.
type resilienceReport struct {
	Workload  string               `json:"workload"`
	Ranks     int                  `json:"ranks"`
	Iters     int                  `json:"iters"`
	CapsPerW  []float64            `json:"caps_per_socket_w"`
	Scenarios []resilienceScenario `json:"scenarios"`
	Generated string               `json:"generated"`
}

func runResilience(cfg config) error {
	header("Resilience", "fallback ladder under injected faults: descent rate, retries, degraded-vs-LP gap per fault class")

	// Bounded problem size, like the service exhibit: the subject here is
	// the failure path, not solve throughput.
	ranks := cfg.ranks
	if ranks > 8 {
		ranks = 8
	}
	const iters = 4

	var caps []float64
	for i := 0; i < 16; i++ {
		caps = append(caps, 70-1.5*float64(i)) // 70 → 47.5 W/socket, all feasible
	}

	type scenario struct {
		name      string
		class     faultinject.Class
		rate      float64
		timeoutMS float64
		slowDelay time.Duration
	}
	scenarios := []scenario{
		// Faults off first: it both records the clean LP baseline the gap
		// columns compare against and asserts a zero fallback rate.
		{name: "none"},
		{name: "lp-nan", class: faultinject.LPNaN, rate: 0.3},
		{name: "lp-stall", class: faultinject.LPStall, rate: 1.0},
		{name: "cache-error", class: faultinject.CacheError, rate: 1.0},
		{name: "worker-panic", class: faultinject.WorkerPanic, rate: 0.2},
		// SlowSolve only bites when the request carries a deadline: a delay
		// larger than the LP rung's slice forces a deterministic descent to
		// the (LP-free) heuristic rung.
		{name: "slow-solve", class: faultinject.SlowSolve, rate: 1.0,
			timeoutMS: 200, slowDelay: 150 * time.Millisecond},
	}

	report := resilienceReport{
		Workload: "CoMD", Ranks: ranks, Iters: iters, CapsPerW: caps,
		Generated: time.Now().UTC().Format(time.RFC3339),
	}
	baseline := make(map[float64]float64) // cap → clean LP makespan

	fmt.Printf("%14s%7s%6s%6s%7s%8s%9s%8s%8s%16s\n",
		"class", "rate", "req", "ok", "degr", "fb(%)", "retries", "panics", "bypass", "gap avg/max(%)")
	for si, sc := range scenarios {
		svc := service.New(service.Config{
			Workers:   runtime.GOMAXPROCS(0),
			CacheSize: 1024,
			Resilience: powercap.ResilienceConfig{
				BackoffBase:     100 * time.Microsecond,
				BreakerCooldown: 50 * time.Millisecond,
			},
		})
		ts := httptest.NewServer(svc)

		faultinject.Disable()
		if sc.rate > 0 {
			faultinject.Configure(uint64(1000+si), map[faultinject.Class]float64{sc.class: sc.rate})
			if sc.slowDelay > 0 {
				faultinject.SetSlowDelay(sc.slowDelay)
			}
		}

		row := resilienceScenario{Class: sc.name, Rate: sc.rate}
		var gapSum float64
		for _, capW := range caps {
			body, err := json.Marshal(service.SolveRequest{
				Workload: &service.WorkloadSpec{
					Name: "CoMD", Ranks: ranks, Iters: iters,
					Seed: cfg.seed, Scale: cfg.scale,
				},
				CapPerSocketW: capW,
				TimeoutMS:     sc.timeoutMS,
			})
			if err != nil {
				ts.Close()
				return err
			}
			row.Requests++
			resp, err := ts.Client().Post(ts.URL+"/v1/solve", "application/json", bytes.NewReader(body))
			if err != nil {
				ts.Close()
				return err
			}
			respBody, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				ts.Close()
				return err
			}
			switch resp.StatusCode {
			case http.StatusOK:
				var sr service.SolveResponse
				if err := json.Unmarshal(respBody, &sr); err != nil {
					ts.Close()
					return fmt.Errorf("scenario %s cap %g: bad response: %v", sc.name, capW, err)
				}
				row.OK++
				if sc.name == "none" {
					baseline[capW] = sr.MakespanS
				}
				if sr.Degraded {
					row.Degraded++
					if base := baseline[capW]; base > 0 {
						gap := (sr.MakespanS - base) / base * 100
						gapSum += gap
						if gap > row.MaxGapPct {
							row.MaxGapPct = gap
						}
					}
				}
			case http.StatusInternalServerError:
				// A double worker panic: contained (500, counted, daemon
				// alive), but the request is lost.
				row.Contained500s++
			case http.StatusGatewayTimeout:
				// Every rung's deadline slice expired before even the
				// heuristic could answer — possible on a heavily loaded
				// machine in the slow-solve scenario.
				row.Timeouts++
			default:
				ts.Close()
				return fmt.Errorf("scenario %s cap %g: status %d: %s", sc.name, capW, resp.StatusCode, respBody)
			}
		}
		faultinject.Disable()

		m := svc.Metrics()
		row.Heuristic = m.FallbackHeuristic.Load()
		row.Static = m.FallbackStatic.Load()
		row.Retries = m.SolveRetries.Load()
		row.Panics = m.Panics.Load()
		row.CacheBypasses = m.CacheErrors.Load()
		row.FallbackPct = 100 * float64(row.Degraded) / float64(row.Requests)
		if row.Degraded > 0 {
			row.MeanGapPct = gapSum / float64(row.Degraded)
		}
		ts.Close()

		if sc.name == "none" && (row.Degraded != 0 || row.OK != row.Requests) {
			return fmt.Errorf("faults off: %d/%d ok with %d degraded, want a clean sweep",
				row.OK, row.Requests, row.Degraded)
		}

		report.Scenarios = append(report.Scenarios, row)
		fmt.Printf("%14s%7.2f%6d%6d%7d%8.1f%9d%8d%8d%11.2f/%.2f\n",
			row.Class, row.Rate, row.Requests, row.OK, row.Degraded, row.FallbackPct,
			row.Retries, row.Panics, row.CacheBypasses, row.MeanGapPct, row.MaxGapPct)
	}

	fmt.Printf("\nfaults off: fallback rate 0.0%%; every degraded result above is simulator-validated cap-clean\n")

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
