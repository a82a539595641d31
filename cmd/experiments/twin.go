package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"time"

	"powercap"
	"powercap/internal/service"
	"powercap/internal/twin"
)

// The "twin" exhibit drives pcschedd with the deterministic traffic twin
// (internal/twin) and tests the statically sized daemon against stated
// hypotheses. Each scenario prints its hypothesis up front and a
// CONFIRMED/FALSIFIED verdict from the measured outcome; with -benchjson
// the full measurements land in BENCH_twin.json.
//
// All daemons are in-process (httptest) so fault windows can arm the
// process-global fault injector, and they run serially: one scenario, one
// daemon at a time — this exhibit is sized for a single-CPU host.

// twinRun is one daemon configuration's classified result.
type twinRun struct {
	Config string       `json:"config"`
	Result *twin.Result `json:"result"`
}

// twinScenarioReport is one scenario of the BENCH_twin.json document.
type twinScenarioReport struct {
	Name       string    `json:"name"`
	Hypothesis string    `json:"hypothesis"`
	Verdict    string    `json:"verdict"` // "CONFIRMED" or "FALSIFIED"
	Detail     string    `json:"detail"`
	Runs       []twinRun `json:"runs,omitempty"`
	Replay     []string  `json:"replay_summaries,omitempty"`
}

type twinReport struct {
	Scenarios []twinScenarioReport `json:"scenarios"`
	Generated string               `json:"generated"`
}

// twinCapacity is the shared daemon sizing: small enough that a flash crowd
// genuinely overflows admission on one CPU.
func twinCapacity() service.Config {
	return service.Config{
		Workers:    2,
		QueueDepth: 4,
		CacheSize:  64,
		Resilience: powercap.ResilienceConfig{
			BreakerCooldown: 50 * time.Millisecond,
		},
	}
}

// twinDaemon starts an in-process daemon; the caller must call the returned
// cleanup.
func twinDaemon(cfg service.Config) (base string, cleanup func()) {
	ts := httptest.NewServer(service.New(cfg))
	return ts.URL, ts.Close
}

// twinRunStatic drives sc against a fresh daemon of size cfg.
func twinRunStatic(cfg service.Config, sc twin.Scenario) *twin.Result {
	base, cleanup := twinDaemon(cfg)
	defer cleanup()
	return twin.Run(base, sc, twin.RunOptions{MaxInflight: 24})
}

var twinHeavy = []twin.Workload{
	// ~24 ms per cache-miss solve: two workers saturate near 80/s.
	{Name: "CoMD", Ranks: 8, Iters: 8, Seed: 1, Scale: 0.5},
	{Name: "SP", Ranks: 8, Iters: 8, Seed: 2, Scale: 0.5},
}

var twinLight = []twin.Workload{
	// ~8 ms per cache-miss solve: comfortable at diurnal rates.
	{Name: "CoMD", Ranks: 4, Iters: 6, Seed: 1, Scale: 0.3},
	{Name: "SP", Ranks: 4, Iters: 6, Seed: 2, Scale: 0.3},
}

func runTwin(cfg config) error {
	header("Twin", "deterministic traffic twin against statically sized daemons: hypotheses and verdicts per scenario")

	report := twinReport{Generated: time.Now().UTC().Format(time.RFC3339)}
	confirmed := 0
	for _, scenario := range []func() (twinScenarioReport, error){
		twinDiurnal, twinFlashCrowd, twinRetryStorm, twinFaultBrownout, twinReplayRegression,
	} {
		s, err := scenario()
		if err != nil {
			return err
		}
		report.Scenarios = append(report.Scenarios, s)
		if s.Verdict == "CONFIRMED" {
			confirmed++
		}
		fmt.Printf("  %s: %s\n\n", s.Verdict, s.Detail)
	}

	fmt.Printf("%d/%d hypotheses confirmed\n", confirmed, len(report.Scenarios))

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
	if confirmed != len(report.Scenarios) {
		return fmt.Errorf("%d of %d twin hypotheses falsified",
			len(report.Scenarios)-confirmed, len(report.Scenarios))
	}
	return nil
}

// verdict names a hypothesis outcome.
func verdict(ok bool) string {
	if ok {
		return "CONFIRMED"
	}
	return "FALSIFIED"
}

// twinDiurnal: moderate load is answered in full.
func twinDiurnal() (twinScenarioReport, error) {
	s := twinScenarioReport{
		Name: "diurnal",
		Hypothesis: "a diurnal ramp well inside capacity is answered in full: " +
			"every request gets a 200, none is rejected",
	}
	fmt.Printf("[diurnal] hypothesis: %s\n", s.Hypothesis)

	sc := twin.Scenario{
		Name: "diurnal",
		Seed: 101,
		Phases: []twin.Phase{
			{Name: "night", DurMS: 700, RatePerS: 15},
			{Name: "peak", DurMS: 900, RatePerS: 45},
			{Name: "evening", DurMS: 700, RatePerS: 15},
		},
		Workloads: twinLight,
		Caps:      []float64{45, 50, 55, 60, 65},
		ZipfS:     1.0,
	}

	res := twinRunStatic(twinCapacity(), sc)
	fmt.Printf("  %s\n", res)

	s.Runs = []twinRun{{Config: "static", Result: res}}
	s.Verdict = verdict(res.OK == res.Requests && res.Rej429 == 0)
	s.Detail = fmt.Sprintf("%d/%d answered (%d full, %d degraded), %d rejected under the diurnal ramp",
		res.OK, res.Requests, res.OKFull, res.Degraded, res.Rej429)
	return s, nil
}

// twinFlashCrowd: three static sizings under the same flash crowd.
func twinFlashCrowd() (twinScenarioReport, error) {
	s := twinScenarioReport{
		Name: "flash-crowd",
		Hypothesis: "on a 2x-capacity flash crowd with an 800 ms deadline, no static " +
			"sizing (default, deep-queue, extra-workers) serves a cap-violating schedule",
	}
	fmt.Printf("[flash-crowd] hypothesis: %s\n", s.Hypothesis)

	sc := twin.Scenario{
		Name: "flash-crowd",
		Seed: 202,
		Phases: []twin.Phase{
			{Name: "warm", DurMS: 300, RatePerS: 30},
			{Name: "flash", DurMS: 1500, RatePerS: 160},
			{Name: "cool", DurMS: 400, RatePerS: 30},
		},
		Workloads:   twinHeavy,
		Caps:        capRangeTwin(40, 70, 0.5),
		ZipfS:       0.4,
		RealizeFrac: 0.3,
		TimeoutMS:   800,
		Retry:       twin.RetryPolicy{MaxRetries: 2, DelayMS: 50, HonorRetryAfter: true},
	}

	configs := []struct {
		label string
		mod   func(*service.Config)
	}{
		{"static-default", func(c *service.Config) {}},
		{"static-deep-queue", func(c *service.Config) { c.QueueDepth = 32 }},
		{"static-extra-workers", func(c *service.Config) { c.Workers = 4 }},
	}
	violations := 0
	var answered []string
	for _, cc := range configs {
		cfg := twinCapacity()
		cc.mod(&cfg)
		res := twinRunStatic(cfg, sc)
		fmt.Printf("  %-21s %s\n", cc.label+":", res)
		s.Runs = append(s.Runs, twinRun{Config: cc.label, Result: res})
		violations += res.CapViolations
		answered = append(answered, fmt.Sprintf("%s %.1f%%", cc.label, 100*res.GoodFrac()))
	}
	s.Verdict = verdict(violations == 0)
	s.Detail = fmt.Sprintf("answered: %s; %d cap violations anywhere",
		strings.Join(answered, ", "), violations)
	return s, nil
}

// twinRetryStorm: impatient clients that retry fast and ignore hints.
func twinRetryStorm() (twinScenarioReport, error) {
	s := twinScenarioReport{
		Name: "retry-storm",
		Hypothesis: "a storm of impatient clients (4 fast retries, hints ignored) " +
			"costs the static daemon answers, never correctness: zero 5xx and " +
			"zero cap violations",
	}
	fmt.Printf("[retry-storm] hypothesis: %s\n", s.Hypothesis)

	sc := twin.Scenario{
		Name: "retry-storm",
		Seed: 303,
		Phases: []twin.Phase{
			{Name: "storm", DurMS: 1500, RatePerS: 120},
			{Name: "after", DurMS: 500, RatePerS: 20},
		},
		Workloads: twinHeavy,
		Caps:      capRangeTwin(40, 70, 1),
		ZipfS:     0.4,
		Retry:     twin.RetryPolicy{MaxRetries: 4, DelayMS: 10, HonorRetryAfter: false},
	}

	res := twinRunStatic(twinCapacity(), sc)
	fmt.Printf("  %s\n", res)
	s.Runs = []twinRun{{Config: "static", Result: res}}
	s.Verdict = verdict(res.Err5xx == 0 && res.CapViolations == 0)
	s.Detail = fmt.Sprintf("%.1f good/s over %.1fs, %d/%d answered, %d 5xx, %d cap violations",
		res.GoodputPerS, res.WallS, res.OK, res.Requests, res.Err5xx, res.CapViolations)
	return s, nil
}

// twinFaultBrownout: injected solver stalls must degrade the service, not
// fail it, and the primary solve path must recover after the window.
func twinFaultBrownout() (twinScenarioReport, error) {
	s := twinScenarioReport{
		Name: "fault-brownout",
		Hypothesis: "a window of injected LP stalls degrades fidelity instead of availability " +
			"(zero 5xx, zero cap violations, every request answered) and after the window " +
			"the primary solve path's breaker re-closes with none left open",
	}
	fmt.Printf("[fault-brownout] hypothesis: %s\n", s.Hypothesis)

	sc := twin.Scenario{
		Name: "fault-brownout",
		Seed: 404,
		Phases: []twin.Phase{
			{Name: "calm", DurMS: 500, RatePerS: 40},
			{Name: "stormy", DurMS: 1200, RatePerS: 40},
			{Name: "recovery", DurMS: 1000, RatePerS: 40},
		},
		Workloads: twinLight,
		// A wide cap universe so the stall window keeps seeing cache
		// misses: warm LRU entries must not absorb the whole fault.
		Caps:  capRangeTwin(40, 70, 1),
		ZipfS: 0.3,
		Faults: []twin.FaultWindow{
			{Class: "lp-stall", Prob: 1.0, StartMS: 500, EndMS: 1700},
		},
	}

	base, cleanup := twinDaemon(twinCapacity())
	defer cleanup()
	res := twin.Run(base, sc, twin.RunOptions{MaxInflight: 24})
	fmt.Printf("  %s\n", res)
	s.Runs = []twinRun{{Config: "static+faults", Result: res}}

	// After the run, probe until the sparse (primary) breaker is closed
	// again and no breaker is open. Deeper rungs may report half-open
	// indefinitely: once the sparse path works again they never see
	// another request, so there is nothing to close them with — half-open
	// means "ready to probe", which is recovered.
	breakers, probes, recovered := "", 0, false
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		probes++
		body, _ := json.Marshal(map[string]any{
			"workload":         twinLight[probes%len(twinLight)],
			"cap_per_socket_w": 44 + float64(probes),
		})
		resp, err := http.Post(base+"/v1/solve", "application/json", bytes.NewReader(body))
		if err == nil {
			resp.Body.Close()
		}
		hr, err := http.Get(base + "/healthz")
		if err != nil {
			return s, err
		}
		var hz struct {
			Breakers map[string]string `json:"breakers"`
		}
		err = json.NewDecoder(hr.Body).Decode(&hz)
		hr.Body.Close()
		if err != nil {
			return s, err
		}
		ok := hz.Breakers["sparse"] == "closed"
		for _, st := range hz.Breakers {
			if st == "open" {
				ok = false
			}
		}
		breakers = fmt.Sprintf("sparse=%s", hz.Breakers["sparse"])
		if ok {
			recovered = true
			break
		}
		time.Sleep(100 * time.Millisecond)
	}

	s.Verdict = verdict(res.Err5xx == 0 && res.CapViolations == 0 && res.OK == res.Requests && recovered)
	s.Detail = fmt.Sprintf("%d/%d answered through the stall window (%d degraded), %d 5xx; breakers %s after %d probes",
		res.OK, res.Requests, res.Degraded, res.Err5xx, breakers, probes)
	return s, nil
}

// twinReplayRegression: serial replays are byte-identical.
func twinReplayRegression() (twinScenarioReport, error) {
	s := twinScenarioReport{
		Name: "replay-regression",
		Hypothesis: "a tape recorded against a fresh daemon replays with zero mismatches " +
			"and byte-identical summaries against two more fresh daemons",
	}
	fmt.Printf("[replay-regression] hypothesis: %s\n", s.Hypothesis)

	sc := twin.Scenario{
		Name:        "replay",
		Seed:        505,
		Phases:      []twin.Phase{{Name: "serial", DurMS: 200, RatePerS: 120}},
		Workloads:   twinLight,
		Caps:        []float64{48, 52, 56, 60},
		ZipfS:       1.0,
		RealizeFrac: 0.25,
	}

	base, cleanup := twinDaemon(twinCapacity())
	tape, err := twin.Record(base, sc)
	cleanup()
	if err != nil {
		return s, err
	}

	var summaries []string
	mismatches := 0
	for i := 0; i < 2; i++ {
		base, cleanup := twinDaemon(twinCapacity())
		rep, err := tape.Replay(base)
		cleanup()
		if err != nil {
			return s, err
		}
		mismatches += rep.Mismatches
		summaries = append(summaries, rep.Summary())
		fmt.Printf("  replay %d: %s\n", i+1, rep.Summary())
	}
	s.Replay = summaries
	s.Verdict = verdict(mismatches == 0 && summaries[0] == summaries[1] && len(tape.Entries) > 0)
	s.Detail = fmt.Sprintf("%d entries, %d mismatches, summaries identical: %v",
		len(tape.Entries), mismatches, summaries[0] == summaries[1])
	return s, nil
}

func capRangeTwin(lo, hi, step float64) []float64 {
	var caps []float64
	for c := lo; c <= hi; c += step {
		caps = append(caps, c)
	}
	return caps
}
