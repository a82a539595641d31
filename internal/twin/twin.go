// Package twin is pcschedd's deterministic traffic twin: a seeded
// closed-loop load generator plus a record/replay harness, built so the
// service's overload behavior — flash crowds, retry storms, injected
// faults — can be reproduced exactly and regressed against.
//
// Two layers:
//
//   - Schedule generation is pure and deterministic: a Scenario (phased
//     arrival rates, a Zipf-skewed cap universe, workload mix, fault
//     windows) expands under a splitmix64 stream into the same []Request
//     for the same seed, byte for byte, on every machine.
//
//   - Driving is split by purpose. Run paces the schedule against a live
//     daemon in real time with bounded in-flight concurrency and
//     classifies every response (goodput vs rejected vs failed) — that is the
//     load-test mode, where wall-clock and scheduling jitter are part of
//     the experiment. Record/Replay issue the schedule *serially* and
//     canonicalize each response (volatile fields stripped, keys sorted),
//     which makes the transcript a deterministic function of the daemon's
//     configuration — the regression mode: two replays against equivalent
//     daemons must produce byte-identical summaries.
package twin

import (
	"math"
	"sort"
)

// Workload names one built-in benchmark proxy in the twin's mix, mirroring
// the service's workload schema.
type Workload struct {
	Name  string  `json:"name"`
	Ranks int     `json:"ranks,omitempty"`
	Iters int     `json:"iters,omitempty"`
	Seed  int64   `json:"seed,omitempty"`
	Scale float64 `json:"scale,omitempty"`
}

// Phase is one arrival-rate regime: requests arrive with exponential
// interarrival gaps at RatePerS for DurMS of scenario time. Diurnal load is
// a ramp of phases; a flash crowd is one short phase at a rate far above
// service capacity.
type Phase struct {
	Name     string  `json:"name"`
	DurMS    float64 `json:"dur_ms"`
	RatePerS float64 `json:"rate_per_s"`
}

// FaultWindow arms one faultinject class at probability Prob for the
// scenario-time interval [StartMS, EndMS).
type FaultWindow struct {
	Class   string  `json:"class"` // faultinject class name, e.g. "lp-nan"
	Prob    float64 `json:"prob"`
	StartMS float64 `json:"start_ms"`
	EndMS   float64 `json:"end_ms"`
}

// RetryPolicy is the twin client's behavior on 429: up to MaxRetries
// re-sends, each tagged with an X-Retry-Attempt header, after DelayMS (or
// the server's Retry-After hint when HonorRetryAfter is set — capped to
// DelayMS×8 so a test cannot sleep for minutes).
type RetryPolicy struct {
	MaxRetries      int     `json:"max_retries"`
	DelayMS         float64 `json:"delay_ms"`
	HonorRetryAfter bool    `json:"honor_retry_after"`
}

// Scenario is a complete deterministic load description.
type Scenario struct {
	Name string `json:"name"`
	Seed uint64 `json:"seed"`

	Phases    []Phase    `json:"phases"`
	Workloads []Workload `json:"workloads"`

	// Caps is the per-socket cap universe; requests draw from it with a
	// Zipf(ZipfS) rank distribution (index 0 most popular), so cache-hit
	// behavior under skewed traffic is part of the model. ZipfS 0 means
	// uniform.
	Caps  []float64 `json:"caps"`
	ZipfS float64   `json:"zipf_s"`

	// RealizeFrac of requests ask for the most expensive realization
	// strategy ("best").
	RealizeFrac float64 `json:"realize_frac,omitempty"`

	// TimeoutMS is the per-request deadline sent to the service (0 = none).
	TimeoutMS float64 `json:"timeout_ms,omitempty"`

	Retry  RetryPolicy   `json:"retry"`
	Faults []FaultWindow `json:"faults,omitempty"`
}

// Request is one scheduled arrival. AtMS is the offset from scenario start;
// the JSON-tagged fields are the solve request body.
type Request struct {
	AtMS float64 `json:"at_ms"`

	Workload      Workload `json:"workload"`
	CapPerSocketW float64  `json:"cap_per_socket_w"`
	Realize       string   `json:"realize,omitempty"`
	TimeoutMS     float64  `json:"timeout_ms,omitempty"`
}

// rng is a splitmix64 stream: tiny, seedable, and identical everywhere —
// the twin must not depend on math/rand's generator or shuffling order.
type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return z
}

// float returns a uniform draw in [0, 1).
func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// expMS returns an exponential interarrival gap in ms for ratePerS.
func (r *rng) expMS(ratePerS float64) float64 {
	if ratePerS <= 0 {
		return math.Inf(1)
	}
	u := r.float()
	return -math.Log(1-u) * 1000 / ratePerS
}

// zipfCDF precomputes the cumulative Zipf(s) distribution over n ranks.
func zipfCDF(n int, s float64) []float64 {
	cdf := make([]float64, n)
	sum := 0.0
	for i := 0; i < n; i++ {
		if s <= 0 {
			sum += 1
		} else {
			sum += 1 / math.Pow(float64(i+1), s)
		}
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return cdf
}

// Schedule expands the scenario into its deterministic arrival sequence.
// The same Scenario value always yields the same slice.
func (sc Scenario) Schedule() []Request {
	r := &rng{s: sc.Seed}
	capCDF := zipfCDF(len(sc.Caps), sc.ZipfS)
	var reqs []Request
	t := 0.0
	for _, ph := range sc.Phases {
		end := t + ph.DurMS
		for {
			t += r.expMS(ph.RatePerS)
			if t >= end {
				t = end
				break
			}
			req := Request{
				AtMS:      t,
				Workload:  sc.Workloads[int(r.next()%uint64(len(sc.Workloads)))],
				TimeoutMS: sc.TimeoutMS,
			}
			ci := sort.SearchFloat64s(capCDF, r.float())
			if ci >= len(sc.Caps) { // float round-off at the CDF tail
				ci = len(sc.Caps) - 1
			}
			req.CapPerSocketW = sc.Caps[ci]
			if sc.RealizeFrac > 0 && r.float() < sc.RealizeFrac {
				req.Realize = "best"
			}
			reqs = append(reqs, req)
		}
	}
	return reqs
}
