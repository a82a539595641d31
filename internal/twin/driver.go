package twin

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	"powercap/internal/faultinject"
)

// Result is one Run's classified outcome. Goodput counts every 2xx answer
// — full-fidelity and degraded alike: the overload experiments are
// precisely about how much of the offered load still gets *an* answer,
// with the fidelity split reported alongside.
type Result struct {
	Scenario string  `json:"scenario"`
	Requests int     `json:"requests"`
	Retries  int     `json:"retries"`
	WallS    float64 `json:"wall_s"`

	OK       int `json:"ok"`
	OKFull   int `json:"ok_full"`
	Degraded int `json:"ok_degraded"`
	Cached   int `json:"ok_cached"`

	Rej429       int `json:"rejected_429"`
	Drain503     int `json:"unavailable_503"`
	Timeout504   int `json:"timeout_504"`
	Err5xx       int `json:"errors_5xx"`
	TransportErr int `json:"transport_errors"`

	// CapViolations counts realized schedules reporting a positive cap
	// violation — the invariant no overload response may break.
	CapViolations int `json:"cap_violations"`

	GoodputPerS float64 `json:"goodput_per_s"`
	P95MS       float64 `json:"p95_ms"`
}

// goodFrac is the fraction of issued requests that got a 2xx answer.
func (r *Result) GoodFrac() float64 {
	if r.Requests == 0 {
		return 0
	}
	return float64(r.OK) / float64(r.Requests)
}

// RunOptions tunes the paced driver.
type RunOptions struct {
	// MaxInflight bounds concurrent requests (default 16) — enough to
	// overload a small worker pool, bounded so a single-CPU host is not
	// oversubscribed by the client itself.
	MaxInflight int
	// Client overrides the HTTP client (default: 60 s timeout).
	Client *http.Client
}

// solveBody is the subset of the service's solve response the classifier
// reads.
type solveBody struct {
	MakespanS float64 `json:"makespan_s"`
	Degraded  bool    `json:"degraded"`
	Cached    bool    `json:"cached"`
	Realized  *struct {
		CapViolationW float64 `json:"cap_violation_w"`
	} `json:"realized"`
}

// faultClasses maps FaultWindow class names onto faultinject classes.
var faultClasses = map[string]faultinject.Class{
	"lp-nan":       faultinject.LPNaN,
	"lp-stall":     faultinject.LPStall,
	"cache-error":  faultinject.CacheError,
	"worker-panic": faultinject.WorkerPanic,
	"slow-solve":   faultinject.SlowSolve,
}

// activeFaults returns the fault rates armed at scenario offset nowMS.
func activeFaults(windows []FaultWindow, nowMS float64) map[faultinject.Class]float64 {
	var rates map[faultinject.Class]float64
	for _, w := range windows {
		if nowMS < w.StartMS || nowMS >= w.EndMS {
			continue
		}
		cl, ok := faultClasses[w.Class]
		if !ok {
			continue
		}
		if rates == nil {
			rates = make(map[faultinject.Class]float64)
		}
		rates[cl] = w.Prob
	}
	return rates
}

func sameRates(a, b map[faultinject.Class]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

// Run paces the scenario's schedule against the daemon at base in real
// time, honoring fault windows (faultinject is process-global, so base must
// be an in-process test server for faults to arm) and the retry policy, and
// classifies every response. Not deterministic — this is the load-test
// mode; use Record/Replay for regressions.
func Run(base string, sc Scenario, opt RunOptions) *Result {
	if opt.MaxInflight <= 0 {
		opt.MaxInflight = 16
	}
	client := opt.Client
	if client == nil {
		client = &http.Client{Timeout: 60 * time.Second}
	}
	sched := sc.Schedule()
	res := &Result{Scenario: sc.Name, Requests: len(sched)}

	var mu sync.Mutex
	var latencies []float64
	record := func(f func()) { mu.Lock(); f(); mu.Unlock() }

	var cur map[faultinject.Class]float64
	defer func() {
		if cur != nil {
			faultinject.Disable()
		}
	}()

	sem := make(chan struct{}, opt.MaxInflight)
	var wg sync.WaitGroup
	start := time.Now()
	for i := range sched {
		req := &sched[i]
		if d := time.Duration(req.AtMS*float64(time.Millisecond)) - time.Since(start); d > 0 {
			time.Sleep(d)
		}
		// Fault windows are evaluated at dispatch time on the paced clock.
		if want := activeFaults(sc.Faults, float64(time.Since(start))/float64(time.Millisecond)); !sameRates(cur, want) {
			if want == nil {
				faultinject.Disable()
			} else {
				faultinject.Configure(sc.Seed, want)
			}
			cur = want
		}
		sem <- struct{}{}
		wg.Add(1)
		go func(req *Request) {
			defer wg.Done()
			defer func() { <-sem }()
			t0 := time.Now()
			status, body, retries, terr := issue(client, base, req, sc.Retry)
			lat := float64(time.Since(t0)) / float64(time.Millisecond)
			record(func() {
				res.Retries += retries
				if terr != nil {
					res.TransportErr++
					return
				}
				latencies = append(latencies, lat)
				classify(res, status, body)
			})
		}(req)
	}
	wg.Wait()
	res.WallS = time.Since(start).Seconds()
	if res.WallS > 0 {
		res.GoodputPerS = float64(res.OK) / res.WallS
	}
	res.P95MS = p95(latencies)
	return res
}

func classify(res *Result, status int, body []byte) {
	switch {
	case status == http.StatusOK:
		res.OK++
		var sb solveBody
		if json.Unmarshal(body, &sb) != nil {
			return
		}
		if sb.Degraded {
			res.Degraded++
		} else {
			res.OKFull++
		}
		if sb.Cached {
			res.Cached++
		}
		if sb.Realized != nil && sb.Realized.CapViolationW > 0 {
			res.CapViolations++
		}
	case status == http.StatusTooManyRequests:
		res.Rej429++
	case status == http.StatusServiceUnavailable:
		res.Drain503++
	case status == http.StatusGatewayTimeout:
		res.Timeout504++
	case status >= 500:
		res.Err5xx++
	}
}

// issue posts one request, applying the retry policy on 429s. Returns the
// final status/body and the number of retries spent.
func issue(client *http.Client, base string, req *Request, rp RetryPolicy) (status int, body []byte, retries int, err error) {
	payload, err := json.Marshal(map[string]any{
		"workload":         req.Workload,
		"cap_per_socket_w": req.CapPerSocketW,
		"realize":          req.Realize,
		"timeout_ms":       req.TimeoutMS,
	})
	if err != nil {
		return 0, nil, 0, err
	}
	for attempt := 0; ; attempt++ {
		hr, herr := http.NewRequest(http.MethodPost, base+"/v1/solve", bytes.NewReader(payload))
		if herr != nil {
			return 0, nil, retries, herr
		}
		hr.Header.Set("Content-Type", "application/json")
		if attempt > 0 {
			hr.Header.Set("X-Retry-Attempt", strconv.Itoa(attempt))
		}
		resp, derr := client.Do(hr)
		if derr != nil {
			return 0, nil, retries, derr
		}
		var buf bytes.Buffer
		_, rerr := buf.ReadFrom(resp.Body)
		resp.Body.Close()
		if rerr != nil {
			return 0, nil, retries, rerr
		}
		if resp.StatusCode != http.StatusTooManyRequests || attempt >= rp.MaxRetries {
			return resp.StatusCode, buf.Bytes(), retries, nil
		}
		delay := rp.DelayMS
		if rp.HonorRetryAfter {
			if ra, aerr := strconv.Atoi(resp.Header.Get("Retry-After")); aerr == nil && ra > 0 {
				if hinted := float64(ra) * 1000; hinted > delay {
					delay = hinted
				}
				if maxD := rp.DelayMS * 8; maxD > 0 && delay > maxD {
					delay = maxD
				}
			}
		}
		if delay > 0 {
			time.Sleep(time.Duration(delay * float64(time.Millisecond)))
		}
		retries++
	}
}

func p95(ms []float64) float64 {
	if len(ms) == 0 {
		return 0
	}
	sort.Float64s(ms)
	i := int(0.95 * float64(len(ms)))
	if i >= len(ms) {
		i = len(ms) - 1
	}
	return ms[i]
}

// String renders the result as one compact report line.
func (r *Result) String() string {
	return fmt.Sprintf(
		"%s: %d req (%d retries) in %.1fs — ok %d (full %d, degraded %d, cached %d), 429 %d, 503 %d, 504 %d, 5xx %d, transport %d, cap-violations %d, goodput %.1f/s, p95 %.0fms",
		r.Scenario, r.Requests, r.Retries, r.WallS,
		r.OK, r.OKFull, r.Degraded, r.Cached,
		r.Rej429, r.Drain503, r.Timeout504, r.Err5xx, r.TransportErr,
		r.CapViolations, r.GoodputPerS, r.P95MS)
}
