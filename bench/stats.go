package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is the sample-count rule for tail percentiles: a percentile is
// resolved only when at least this many samples lie above it, so p75 needs
// 40 samples and p99 needs 1,000.
const minBeyond = 10

// Metric is one reported number with its sample count and, for
// distributions, the first and third quartile of the samples it summarizes.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n"`
	Q1    float64 `json:"q1"`
	Q3    float64 `json:"q3"`
	// Unresolved marks a tail percentile with fewer than minBeyond samples
	// above it.
	Unresolved bool `json:"unresolved,omitempty"`
}

// quantile returns the q-quantile (0 ≤ q ≤ 1) of sorted by linear
// interpolation between closest ranks; NaN when sorted is empty.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	if lo >= n-1 {
		return sorted[n-1]
	}
	frac := pos - float64(lo)
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

// resolved reports whether the q-quantile of n samples has at least
// minBeyond samples above it.
func resolved(n int, q float64) bool {
	return float64(n)*(1-q) >= minBeyond
}

// summarize reports the q-quantile of samples with the sample count and
// quartiles.
func summarize(samples []float64, q float64, unit string) Metric {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return Metric{
		Value:      quantile(s, q),
		Unit:       unit,
		N:          len(s),
		Q1:         quantile(s, 0.25),
		Q3:         quantile(s, 0.75),
		Unresolved: !resolved(len(s), q) && q > 0.5,
	}
}

// median of xs (NaN when empty).
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// openLoopSample is one open-loop request: when it was due, when the
// generator actually sent it, and when its response completed.
type openLoopSample struct {
	due, sent, done time.Duration
}

// latency is timed from the due time, so a stall that delays later sends
// is charged to every request it delayed.
func (s openLoopSample) latency() time.Duration { return s.done - s.due }

// lateness is how far behind schedule the generator sent the request.
func (s openLoopSample) lateness() time.Duration { return s.sent - s.due }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
