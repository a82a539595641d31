package service

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"powercap"
	"powercap/internal/faultinject"
)

// TestChaosSoak is the fault-injected soak of DESIGN.md §10: with every
// fault class firing at realistic rates, the daemon must keep answering —
// zero crashes, ≥99% of requests served, and never a cap-violating
// schedule. Afterwards, with faults off, results must be bit-identical to a
// never-faulted server and the breakers must recover.
func TestChaosSoak(t *testing.T) {
	faultinject.Disable()
	caps := []float64{50, 55, 60, 65}
	req := func(cap float64) SolveRequest {
		return SolveRequest{Workload: fastWL, CapPerSocketW: cap, Realize: "down"}
	}

	// Baseline: a clean server's makespan per cap, recorded bit-exactly.
	baseline := make(map[float64]uint64)
	func() {
		_, ts := newTestServer(t, Config{Workers: 4})
		for _, c := range caps {
			code, resp := solveJSON(t, ts.URL+"/v1/solve", req(c))
			if code != http.StatusOK || resp.Degraded {
				t.Fatalf("baseline cap %g: status %d degraded %v", c, code, resp.Degraded)
			}
			baseline[c] = math.Float64bits(resp.MakespanS)
		}
	}()

	s, ts := newTestServer(t, Config{
		Workers: 4,
		Resilience: powercap.ResilienceConfig{
			BreakerCooldown: 50 * time.Millisecond,
		},
	})

	faultinject.Configure(42, map[faultinject.Class]float64{
		faultinject.LPNaN:       0.05,
		faultinject.LPStall:     0.03,
		faultinject.CacheError:  0.05,
		faultinject.WorkerPanic: 0.02,
		faultinject.SlowSolve:   0.05,
	})
	faultinject.SetSlowDelay(time.Millisecond)
	defer faultinject.Disable()

	const workers = 8
	const perWorker = 40
	var (
		ok500     atomic.Uint64 // contained failures (double worker panic)
		okValid   atomic.Uint64
		degradedN atomic.Uint64
		wg        sync.WaitGroup
		failMu    sync.Mutex
		failures  []string
	)
	fail := func(format string, args ...any) {
		failMu.Lock()
		failures = append(failures, fmt.Sprintf(format, args...))
		failMu.Unlock()
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				c := caps[(w+i)%len(caps)]
				code, body := postJSON(t, ts.URL+"/v1/solve", req(c))
				switch code {
				case http.StatusOK:
					var resp SolveResponse
					if err := json.Unmarshal(body, &resp); err != nil {
						fail("unparseable 200 body: %v", err)
						continue
					}
					if resp.MakespanS <= 0 {
						fail("cap %g: nonpositive makespan %v", c, resp.MakespanS)
						continue
					}
					if resp.Realized == nil || resp.Realized.CapViolationW != 0 {
						fail("cap %g: response without cap-clean realization: %+v", c, resp.Realized)
						continue
					}
					if resp.Degraded {
						degradedN.Add(1)
						if resp.DegradedRung == "" || resp.DegradedReason == "" {
							fail("degraded response lacks rung/reason: %+v", resp)
							continue
						}
					} else if base := math.Float64frombits(baseline[c]); math.Abs(resp.MakespanS-base) > 1e-6*base {
						// A non-degraded result is a top-rung LP solve. A
						// NaN-recovery refactorization may change the pivot
						// path (and the last bits), but never the optimum.
						fail("cap %g: non-degraded makespan %v far from baseline %v", c, resp.MakespanS, base)
						continue
					}
					okValid.Add(1)
				case http.StatusInternalServerError:
					ok500.Add(1) // tolerated if rare; checked below
				default:
					fail("cap %g: unexpected status %d: %s", c, code, body)
				}
			}
		}(w)
	}
	wg.Wait()

	if len(failures) > 0 {
		t.Fatalf("%d invalid responses during soak, first: %s", len(failures), failures[0])
	}
	total := uint64(workers * perWorker)
	if okValid.Load()*100 < total*99 {
		t.Fatalf("only %d/%d requests valid (%d contained 500s), want ≥99%%",
			okValid.Load(), total, ok500.Load())
	}
	t.Logf("soak: %d/%d valid, %d degraded, %d contained 500s; fired: nan=%d stall=%d cache=%d panic=%d slow=%d",
		okValid.Load(), total, degradedN.Load(), ok500.Load(),
		faultinject.Count(faultinject.LPNaN), faultinject.Count(faultinject.LPStall),
		faultinject.Count(faultinject.CacheError), faultinject.Count(faultinject.WorkerPanic),
		faultinject.Count(faultinject.SlowSolve))

	// Faults off: the soaked server must converge back to clean top-rung
	// service (breakers recover after their cooldown), and a fresh server
	// must reproduce the baseline bit for bit. The soaked server may serve
	// NaN-recovered solves from its LRU, so only the fresh server is held
	// to bit-identity.
	faultinject.Disable()
	time.Sleep(60 * time.Millisecond) // past BreakerCooldown
	for _, c := range caps {
		code, resp := solveJSON(t, ts.URL+"/v1/solve", req(c))
		if code != http.StatusOK {
			t.Fatalf("post-soak cap %g: status %d", c, code)
		}
		if resp.Degraded {
			t.Fatalf("post-soak cap %g still degraded: %s", c, resp.DegradedReason)
		}
	}
	// Every cap above may be an LRU hit, which never reaches the ladder. A
	// cap the soak never asked for misses the cache and probes the sparse
	// breaker, closing it if the soak left it open.
	if code, resp := solveJSON(t, ts.URL+"/v1/solve", req(57.5)); code != http.StatusOK || resp.Degraded {
		t.Fatalf("post-soak probe at 57.5 W/socket: status %d degraded %v (%s)", code, resp.Degraded, resp.DegradedReason)
	}
	br := s.breakerStates()
	if br["sparse"] != "closed" {
		t.Fatalf("sparse breaker %q after recovery solves", br["sparse"])
	}

	_, ts2 := newTestServer(t, Config{Workers: 4})
	for _, c := range caps {
		code, resp := solveJSON(t, ts2.URL+"/v1/solve", req(c))
		if code != http.StatusOK || math.Float64bits(resp.MakespanS) != baseline[c] {
			t.Fatalf("fresh server cap %g: status %d makespan %v, want bit-identical baseline",
				c, code, resp.MakespanS)
		}
	}
}
