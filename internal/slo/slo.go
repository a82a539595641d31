// Package slo turns the daemon's raw request stream into service-level
// objectives with multiwindow burn rates, reported in /healthz, /metrics
// and every wide event in place of a raw latency percentile.
//
// An objective is a target fraction of "good" requests (availability: no
// 5xx; latency: served under a threshold). The burn rate is the rate at
// which the error budget (1 − target) is being consumed, normalized so
// burn = 1 means "exactly sustainable": a 99% availability objective
// seeing 1% errors burns at 1.0, seeing 10% errors burns at 10.
//
// Each objective is measured over two sliding windows — a fast window
// (minutes) that reacts to incidents within seconds and recovers within
// minutes, and a slow window (an hour) that reports sustained erosion.
// Both burns are forensic context in /healthz, /metrics, and wide events.
//
// Windows are rings of bucketed counters: a window of span S with n
// buckets holds n buckets of width S/n, each stamped with its epoch
// (bucket index since the Unix epoch). Observing into a bucket whose
// stamp is stale CASes the stamp forward and resets the counters, so the
// ring slides with no ticker goroutine and no locks — every operation is
// a handful of atomics, cheap enough to sit on the request hot path.
// Counts are monitoring-grade: a reader racing a bucket turnover can
// misattribute a single in-flight observation, never corrupt a counter.
package slo

import (
	"sync/atomic"
	"time"
)

// The objectives' targets and windows are fixed. Availability's good
// fraction is 0.99 (good = not a 5xx; deliberate backpressure, a 429, is
// excluded entirely: admission control doing its job is not a failure of
// the service). Latency's is 0.95 (good = a non-error response under the
// threshold). The fast window (5m) reacts to incidents; the slow window
// (1h) reports sustained erosion. Each holds windowBuckets buckets.
const (
	availabilityTarget      = 0.99
	latencyTarget           = 0.95
	defaultLatencyThreshold = 2 * time.Second
	fastWindow              = 5 * time.Minute
	slowWindow              = time.Hour
	windowBuckets           = 30
)

// Config sets the engine's one setting.
type Config struct {
	// LatencyThreshold is the latency objective's good-latency bound
	// (default 2s).
	LatencyThreshold time.Duration
}

// window is one sliding ring of bucketed good/total counters.
type window struct {
	bucketNS int64
	n        int64
	epochs   []atomic.Int64
	good     []atomic.Uint64
	total    []atomic.Uint64
}

func newWindow(span time.Duration, buckets int) *window {
	w := &window{
		bucketNS: int64(span) / int64(buckets),
		n:        int64(buckets),
		epochs:   make([]atomic.Int64, buckets),
		good:     make([]atomic.Uint64, buckets),
		total:    make([]atomic.Uint64, buckets),
	}
	if w.bucketNS <= 0 {
		w.bucketNS = 1
	}
	// Epoch 0 is a real epoch for t near the Unix epoch (tests use small
	// times); stamp buckets with an impossible epoch so they read empty.
	for i := range w.epochs {
		w.epochs[i].Store(-1)
	}
	return w
}

// slot rotates the bucket for epoch e into the current epoch if its stamp
// is stale, and returns its index.
func (w *window) slot(e int64) int64 {
	i := e % w.n
	for {
		old := w.epochs[i].Load()
		if old == e {
			return i
		}
		if w.epochs[i].CompareAndSwap(old, e) {
			w.good[i].Store(0)
			w.total[i].Store(0)
			return i
		}
	}
}

func (w *window) observe(t time.Time, good bool) {
	i := w.slot(t.UnixNano() / w.bucketNS)
	w.total[i].Add(1)
	if good {
		w.good[i].Add(1)
	}
}

// counts sums the buckets still inside the window ending at t.
func (w *window) counts(t time.Time) (good, total uint64) {
	cur := t.UnixNano() / w.bucketNS
	oldest := cur - w.n + 1
	for i := range w.epochs {
		e := w.epochs[i].Load()
		if e < oldest || e > cur {
			continue
		}
		good += w.good[i].Load()
		total += w.total[i].Load()
	}
	return good, total
}

// Objective is one SLO measured over the fast and slow windows.
type Objective struct {
	Name   string
	Target float64
	fast   *window
	slow   *window
}

func newObjective(name string, target float64, fast, slow time.Duration, buckets int) *Objective {
	return &Objective{
		Name:   name,
		Target: target,
		fast:   newWindow(fast, buckets),
		slow:   newWindow(slow, buckets),
	}
}

func (o *Objective) observe(t time.Time, good bool) {
	o.fast.observe(t, good)
	o.slow.observe(t, good)
}

// burn converts a good/total pair into a normalized burn rate:
// (bad fraction) / (error budget). Zero when the window is empty.
func (o *Objective) burn(good, total uint64) float64 {
	if total == 0 {
		return 0
	}
	bad := float64(total-good) / float64(total)
	return bad / (1 - o.Target)
}

// Burn reports the objective's fast- and slow-window burn rates at t.
func (o *Objective) Burn(t time.Time) (fast, slow float64) {
	fg, ft := o.fast.counts(t)
	sg, st := o.slow.counts(t)
	return o.burn(fg, ft), o.burn(sg, st)
}

// ObjectiveStatus is one objective's snapshot for /healthz and wide
// events.
type ObjectiveStatus struct {
	Name      string  `json:"name"`
	Target    float64 `json:"target"`
	FastGood  uint64  `json:"fast_good"`
	FastTotal uint64  `json:"fast_total"`
	SlowGood  uint64  `json:"slow_good"`
	SlowTotal uint64  `json:"slow_total"`
	FastBurn  float64 `json:"fast_burn"`
	SlowBurn  float64 `json:"slow_burn"`
}

// Status snapshots the objective at t.
func (o *Objective) Status(t time.Time) ObjectiveStatus {
	fg, ft := o.fast.counts(t)
	sg, st := o.slow.counts(t)
	return ObjectiveStatus{
		Name:      o.Name,
		Target:    o.Target,
		FastGood:  fg,
		FastTotal: ft,
		SlowGood:  sg,
		SlowTotal: st,
		FastBurn:  o.burn(fg, ft),
		SlowBurn:  o.burn(sg, st),
	}
}

// Engine holds the daemon's two request objectives.
type Engine struct {
	threshold    time.Duration
	Availability *Objective
	Latency      *Objective
}

// New builds an engine (a zero LatencyThreshold takes the default).
func New(cfg Config) *Engine {
	return newEngine(cfg.LatencyThreshold, fastWindow, slowWindow, windowBuckets)
}

// newEngine builds an engine over windows of the given spans, each of the
// given number of buckets.
func newEngine(threshold, fast, slow time.Duration, buckets int) *Engine {
	if threshold <= 0 {
		threshold = defaultLatencyThreshold
	}
	return &Engine{
		threshold:    threshold,
		Availability: newObjective("availability", availabilityTarget, fast, slow, buckets),
		Latency:      newObjective("latency", latencyTarget, fast, slow, buckets),
	}
}

// LatencyThreshold reports the configured good-latency bound.
func (e *Engine) LatencyThreshold() time.Duration { return e.threshold }

// Observe classifies one finished request into both objectives.
// Availability sees every non-429 request (good = not 5xx); latency sees
// every successfully served request (good = under the threshold), so a
// fast 500 cannot launder the latency objective.
func (e *Engine) Observe(t time.Time, status int, dur time.Duration) {
	if status == 429 {
		return
	}
	ok := status < 500
	e.Availability.observe(t, ok)
	if ok {
		e.Latency.observe(t, dur <= e.threshold)
	}
}

// Status snapshots every objective at t, availability first.
func (e *Engine) Status(t time.Time) []ObjectiveStatus {
	return []ObjectiveStatus{e.Availability.Status(t), e.Latency.Status(t)}
}
