package resilience

import (
	"sync"
	"time"
)

// Breaker is a per-rung circuit breaker for the fallback ladder. A rung
// whose solver keeps failing trips its breaker open; subsequent requests
// skip the rung immediately instead of burning their deadline slice on a
// solver that is currently broken. After a cooldown the breaker admits one
// probe (half-open): success closes it, failure re-opens it for another
// cooldown.
type Breaker struct {
	mu       sync.Mutex
	cooldown time.Duration // open duration before a half-open probe
	now      func() time.Time

	failures int
	state    breakerState
	openedAt time.Time
	onOpen   func() // fired outside the lock on a closed→open transition
}

type breakerState int32

const (
	breakerClosed breakerState = iota
	breakerOpen
	breakerHalfOpen
)

// breakerThreshold is the consecutive-failure count that trips a breaker.
const breakerThreshold = 3

// NewBreaker returns a closed breaker that opens after breakerThreshold
// consecutive failures and probes again after cooldown (default 5s).
func NewBreaker(cooldown time.Duration) *Breaker {
	if cooldown <= 0 {
		cooldown = 5 * time.Second
	}
	return &Breaker{cooldown: cooldown, now: time.Now}
}

// Allow reports whether a request may attempt the rung. An open breaker past
// its cooldown transitions to half-open and admits this one probe.
func (b *Breaker) Allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerClosed, breakerHalfOpen:
		return true
	default: // open
		if b.now().Sub(b.openedAt) >= b.cooldown {
			b.state = breakerHalfOpen
			return true
		}
		return false
	}
}

// Success records a successful attempt, closing the breaker.
func (b *Breaker) Success() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.failures = 0
	b.state = breakerClosed
}

// SetNotify installs fn to be called whenever the breaker transitions to
// open (initial trip or a failed half-open probe). fn runs outside the
// breaker lock, on the goroutine whose Failure tripped it, so it may take
// other locks but must not block for long — the service uses it to snapshot
// the flight recorder.
func (b *Breaker) SetNotify(fn func()) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.onOpen = fn
}

// Failure records a failed attempt: a half-open probe re-opens immediately;
// a closed breaker opens once the consecutive-failure threshold is reached.
func (b *Breaker) Failure() {
	b.mu.Lock()
	opened := false
	b.failures++
	if b.state == breakerHalfOpen || b.failures >= breakerThreshold {
		opened = b.state != breakerOpen
		b.state = breakerOpen
		b.openedAt = b.now()
	}
	notify := b.onOpen
	b.mu.Unlock()
	if opened && notify != nil {
		notify()
	}
}

// State names the breaker's current state for /healthz reporting.
func (b *Breaker) State() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerOpen:
		if b.now().Sub(b.openedAt) >= b.cooldown {
			return "half-open"
		}
		return "open"
	case breakerHalfOpen:
		return "half-open"
	default:
		return "closed"
	}
}
