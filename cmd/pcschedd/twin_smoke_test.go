package main

import (
	"bufio"
	"bytes"
	"net/http"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"powercap/internal/twin"
)

// TestTwinSmoke is the end-to-end harness behind `make twin-smoke`: it runs
// the deterministic traffic twin against real pcschedd daemons.
//
// Part 1 (overload): a seeded flash crowd at about twice the daemon's
// capacity, with Retry-After-honoring clients. Whatever the daemon cannot
// answer it must reject, never answer with a cap-violating schedule.
//
// Part 2 (determinism): a tape recorded against a fresh daemon is replayed
// against two more fresh daemons; both replays must report zero mismatches
// and byte-identical summaries.
func TestTwinSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping daemon twin smoke test in -short mode")
	}
	bin := filepath.Join(t.TempDir(), "pcschedd")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building pcschedd: %v\n%s", err, out)
	}

	// The queue is kept short so the flash crowd genuinely overflows
	// admission rather than parking in a deep buffer.
	capacityArgs := []string{"-addr", "127.0.0.1:0", "-quiet", "-workers", "2", "-queue", "4", "-cache", "64"}

	flash := twin.Scenario{
		Name: "smoke-flash",
		Seed: 20260807,
		Phases: []twin.Phase{
			{Name: "warm", DurMS: 300, RatePerS: 30},
			{Name: "flash", DurMS: 1800, RatePerS: 160},
			{Name: "cool", DurMS: 500, RatePerS: 30},
		},
		// ~24 ms per cache-miss solve: 2 workers saturate near 80/s, so the
		// 160/s flash is ~2× capacity.
		Workloads: []twin.Workload{
			{Name: "CoMD", Ranks: 8, Iters: 8, Seed: 1, Scale: 0.5},
			{Name: "SP", Ranks: 8, Iters: 8, Seed: 2, Scale: 0.5},
		},
		// A wide cap universe with mild skew: some cache hits, mostly misses,
		// so the flash crowd is real LP work.
		Caps:        capRange(40, 70, 0.5),
		ZipfS:       0.4,
		RealizeFrac: 0.3,
		TimeoutMS:   2000,
		Retry:       twin.RetryPolicy{MaxRetries: 2, DelayMS: 50, HonorRetryAfter: true},
	}

	res := runAgainstDaemon(t, bin, flash, capacityArgs)
	t.Logf("flash crowd: %s", res)
	if res.CapViolations != 0 {
		t.Errorf("cap violations under load: %d", res.CapViolations)
	}

	// Part 2: record once, replay twice, byte-identical summaries.
	regression := twin.Scenario{
		Name:      "smoke-regression",
		Seed:      7,
		Phases:    []twin.Phase{{Name: "serial", DurMS: 150, RatePerS: 100}},
		Workloads: flash.Workloads,
		Caps:      []float64{50, 55, 60},
		ZipfS:     1.0,
	}
	base, stop := spawnDaemon(t, bin, capacityArgs)
	tape, err := twin.Record(base, regression)
	stop()
	if err != nil {
		t.Fatalf("recording regression tape: %v", err)
	}
	if len(tape.Entries) == 0 {
		t.Fatal("empty regression tape")
	}
	summaries := make([]string, 2)
	for i := range summaries {
		base, stop := spawnDaemon(t, bin, capacityArgs)
		rep, err := tape.Replay(base)
		stop()
		if err != nil {
			t.Fatalf("replay %d: %v", i, err)
		}
		if rep.Mismatches != 0 {
			t.Fatalf("replay %d diverged from recording: %s", i, rep.First)
		}
		summaries[i] = rep.Summary()
	}
	if summaries[0] != summaries[1] {
		t.Fatalf("replay summaries not byte-identical:\n  %s\n  %s", summaries[0], summaries[1])
	}
	t.Logf("replay: %s", summaries[0])
}

func capRange(lo, hi, step float64) []float64 {
	var caps []float64
	for c := lo; c <= hi; c += step {
		caps = append(caps, c)
	}
	return caps
}

// runAgainstDaemon spawns a daemon, drives the scenario against it, and
// tears it down.
func runAgainstDaemon(t *testing.T, bin string, sc twin.Scenario, args []string) *twin.Result {
	t.Helper()
	base, stop := spawnDaemon(t, bin, args)
	defer stop()
	// MaxInflight must exceed the daemon's workers+queue, or the client
	// throttles itself and admission never overflows.
	return twin.Run(base, sc, twin.RunOptions{MaxInflight: 24})
}

// spawnDaemon starts the built binary, waits for its listening line, and
// returns the base URL plus a stop func that SIGTERMs and reaps it.
func spawnDaemon(t *testing.T, bin string, args []string) (string, func()) {
	t.Helper()
	cmd := exec.Command(bin, args...)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	var base string
	sc := bufio.NewScanner(stdout)
	for sc.Scan() {
		if _, url, ok := strings.Cut(sc.Text(), "listening on "); ok {
			base = url
			break
		}
	}
	if base == "" {
		cmd.Process.Kill()
		cmd.Wait()
		t.Fatalf("no listening line from pcschedd; stderr:\n%s", stderr.String())
	}
	// Wait for readiness so the first twin request is not racing startup.
	for i := 0; ; i++ {
		resp, err := http.Get(base + "/healthz")
		if err == nil {
			resp.Body.Close()
			break
		}
		if i > 100 {
			cmd.Process.Kill()
			cmd.Wait()
			t.Fatalf("daemon never became healthy: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	var once bool
	stop := func() {
		if once {
			return
		}
		once = true
		cmd.Process.Signal(syscall.SIGTERM)
		done := make(chan error, 1)
		go func() { done <- cmd.Wait() }()
		select {
		case err := <-done:
			if err != nil {
				t.Errorf("pcschedd exited uncleanly: %v\nstderr:\n%s", err, stderr.String())
			}
		case <-time.After(30 * time.Second):
			cmd.Process.Kill()
			t.Error("pcschedd did not exit after SIGTERM")
		}
	}
	t.Cleanup(stop)
	return base, stop
}
