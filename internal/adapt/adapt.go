// Package adapt is pcschedd's overload control plane: an epoch-based
// feedback controller that watches signals the service already emits for
// free (rejection rate, queue occupancy, breaker states, solve latency)
// and adapts the service's operational knobs — admission capacity, worker
// count, cache size — plus a *brownout ladder* that progressively routes
// traffic onto cheaper solve modes under sustained pressure (DESIGN.md
// §15). A brownout rung is a request rewrite (realize-down, coarsen,
// windowed) plus an entry into the service's one degradation ladder
// (internal/resilience): any rung below full selects the ladder's tighter
// brownout deadline slices, and the heuristic rung enters the ladder at
// its heuristic rung.
//
// The controller itself is a pure, deterministic state machine: Step takes
// one epoch's worth of Signals and returns the new published State. All
// time is epoch-counted, never wall-clock, so hysteresis behavior is
// exactly table-testable. The service samples its counters, calls Step
// once per epoch, and applies the returned State; with the controller
// disabled the service never loads anything from this package on the hot
// path beyond one nil atomic pointer check, mirroring the disarmed paths
// of internal/obs and internal/faultinject.
//
// Guardrails, in precedence order:
//
//  1. `?degraded=forbid` beats every brownout rung — the service must not
//     brown out such a request (enforced service-side; the State carries
//     the rung, the request carries the veto).
//  2. Brownout results are never cached (enforced service-side via
//     non-cacheable flights on a rung-scoped key).
//  3. Recovery snaps back: sustained low pressure always walks the ladder
//     up, and BeginDrain snaps straight to full fidelity and refuses any
//     further descent.
//  4. The LP pricing rule (steepest edge) is never part of the ladder:
//     brownout changes *what* is solved, not *how well* the solver prices.
package adapt

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Rung is a brownout fidelity level. Rung 0 is full fidelity; each higher
// rung swaps in a cheaper solve mode. The LP pricing rule is never part of
// this ladder.
type Rung int

const (
	// RungFull serves every request exactly as asked.
	RungFull Rung = iota
	// RungRealizeDown downgrades expensive realization strategies
	// ("best", "replay") to the cheapest one ("down").
	RungRealizeDown
	// RungCoarsen additionally merges short same-rank task chains below
	// a time epsilon before solving (smaller LP, bounded bound-gap).
	RungCoarsen
	// RungWindowed additionally slices the event order into overlapping
	// windows solved independently (much smaller LPs, stitched bound).
	RungWindowed
	// RungHeuristic enters the degradation ladder at its slack-aware
	// heuristic rung — no LP at all (static if the heuristic fails).
	// Results are marked degraded and never cached.
	RungHeuristic

	numRungs
)

// MaxRung is the deepest brownout rung.
const MaxRung = numRungs - 1

func (r Rung) String() string {
	switch r {
	case RungFull:
		return "full"
	case RungRealizeDown:
		return "realize-down"
	case RungCoarsen:
		return "coarsen"
	case RungWindowed:
		return "windowed"
	case RungHeuristic:
		return "heuristic"
	}
	return fmt.Sprintf("rung(%d)", int(r))
}

// Config parameterizes the controller. The zero value is unusable; New
// fills every unset field.
type Config struct {
	// Enabled arms the control plane. When false the service publishes a
	// nil State and behaves bit-identically to a build without this
	// package.
	Enabled bool

	// Epoch is the sampling interval of the service's controller loop
	// (default 1s). The controller itself never reads clocks; this is
	// plumbing for the loop owner.
	Epoch time.Duration

	// Baseline knob values (the service's configured statics). The
	// controller adapts *around* these and snaps back to them.
	Workers    int
	QueueDepth int
	CacheSize  int
}

// The controller's fixed tuning (DESIGN.md §15 tabulates it).
const (
	// enterPressure / exitPressure are the hysteresis band: pressure at
	// or above enterPressure for enterDwell consecutive epochs descends
	// one rung; pressure at or below exitPressure for exitDwell
	// consecutive epochs ascends one rung. Between the two thresholds
	// both dwell counters reset, which is what suppresses flapping on an
	// oscillating signal.
	enterPressure = 0.5
	exitPressure  = 0.15
	enterDwell    = 2
	exitDwell     = 3
	// minDwell is the minimum number of epochs between any two rung
	// transitions, in either direction.
	minDwell = 2

	// burnSaturation is the SLO burn rate at which the burn term saturates
	// pressure at 1: consuming error budget at 10× the sustainable rate is
	// a full-pressure emergency. The term is linear below that, so burn 1
	// — exactly sustainable — contributes only 0.1.
	burnSaturation = 10

	// Brownout solve-mode parameters applied at the corresponding rungs.
	coarsenEps = 0.002 // RungCoarsen+: coarsening epsilon (seconds)
	windows    = 4     // RungWindowed+: windowed-decomposition window count

	// minWorkers / minQueue floor the adapted knobs.
	minWorkers = 1
	minQueue   = 2
	// maxCacheBoost bounds adaptive cache growth to CacheSize << 2 (4×).
	maxCacheBoost = 2
)

// withDefaults returns cfg with every unset field filled in.
func (cfg Config) withDefaults() Config {
	if cfg.Epoch <= 0 {
		cfg.Epoch = time.Second
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 1
	}
	if cfg.QueueDepth < 0 {
		cfg.QueueDepth = 0
	}
	if cfg.CacheSize <= 0 {
		cfg.CacheSize = 1
	}
	return cfg
}

// Signals is one epoch's observation of the service. Counter fields are
// per-epoch deltas; the rest are instantaneous gauges sampled at epoch
// end. All of it comes from counters the service already maintains —
// the controller adds no probes of its own.
type Signals struct {
	Requests    uint64 // API requests seen this epoch
	Rejected    uint64 // 429s from queue-full admission
	Shed        uint64 // 429s from controller shedding (deadline + retry budget)
	Solves      uint64 // backend solves completed
	CacheHits   uint64
	CacheMisses uint64
	Panics      uint64 // recovered worker panics
	Retries     uint64 // ladder retry attempts

	QueueLen     int // admission tokens currently held (effective)
	QueueCap     int // effective admission capacity
	Inflight     int
	BreakersOpen int // rung breakers currently open across pooled systems

	AvgSolveS float64 // mean backend solve latency this epoch; 0 = no sample
	EpochS    float64 // measured epoch length in seconds (defaults to cfg.Epoch)

	// SLOBurn is the worst fast-window error-budget burn rate across the
	// service's objectives (see internal/slo), and SLOSamples the number
	// of fast-window observations behind it. When SLOSamples > 0 the burn
	// is a term of Pressure: the controller descends because the error
	// budget is burning, which the flight recorder can show per request.
	SLOBurn    float64
	SLOSamples uint64
}

// rejectFrac is the fraction of this epoch's requests turned away.
func (s Signals) rejectFrac() float64 {
	if s.Requests == 0 {
		return 0
	}
	return float64(s.Rejected+s.Shed) / float64(s.Requests)
}

// queueFrac is the instantaneous admission occupancy.
func (s Signals) queueFrac() float64 {
	if s.QueueCap <= 0 {
		return 0
	}
	f := float64(s.QueueLen) / float64(s.QueueCap)
	if f > 1 {
		f = 1
	}
	return f
}

// Pressure folds the epoch's signals into one scalar in [0, 1+]. It is the
// max, not the sum, of its terms: any single saturated term means the
// service is in trouble, and max keeps each threshold independently
// interpretable in tests.
func Pressure(s Signals) float64 {
	p := s.rejectFrac()
	if q := s.queueFrac(); q > p {
		p = q
	}
	if s.BreakersOpen > 0 && p < 1 {
		p = 1
	}
	if s.SLOSamples > 0 {
		// Error-budget burn, linear to saturation (see burnSaturation).
		bt := s.SLOBurn / burnSaturation
		if bt > 1 {
			bt = 1
		}
		if bt > p {
			p = bt
		}
	}
	return p
}

// State is one epoch's published control decision. The service holds it in
// an atomic.Pointer; nil means the controller is off and every knob is at
// its configured static value.
type State struct {
	Epoch uint64
	Rung  Rung

	// Brownout solve-mode overrides (zero values at RungFull).
	CoarsenEps float64
	Windows    int

	// Effective knob targets.
	Workers    int
	QueueDepth int
	CacheSize  int

	// EstSolveS is the controller's EWMA estimate of one solve's
	// latency, used for deadline-aware shedding.
	EstSolveS float64

	// Shedding enables deadline-aware admission shedding (requests that
	// cannot finish inside their remaining budget are 429d up front).
	Shedding bool

	// Pressure is the scalar the decision was made on (for /healthz and
	// logs).
	Pressure float64

	// Draining is set once BeginDrain has run: the ladder is pinned at
	// full fidelity and the retry budget stops gating (every remaining
	// request is a goodbye).
	Draining bool
}

// Transition records one rung change for logs and metrics.
type Transition struct {
	Epoch uint64
	From  Rung
	To    Rung
	Why   string
}

// Checkpoint is the controller's final-epoch summary, logged at drain.
type Checkpoint struct {
	Epoch       uint64  `json:"epoch"`
	Rung        Rung    `json:"-"`
	RungName    string  `json:"rung"`
	Transitions uint64  `json:"transitions"`
	EstSolveS   float64 `json:"est_solve_s"`
	Pressure    float64 `json:"pressure"`
}

// Controller is the epoch state machine. One goroutine calls Step; any
// goroutine may read State or call BeginDrain.
type Controller struct {
	cfg Config

	mu          sync.Mutex
	epoch       uint64
	rung        Rung
	above       int // consecutive epochs at/above enterPressure
	below       int // consecutive epochs at/below exitPressure
	sinceTrans  int // epochs since the last rung transition
	brkCalm     int // consecutive epochs with zero open breakers
	workersCut  bool
	cacheBoost  int // cache capacity multiplier exponent (0..maxCacheBoost)
	cacheHot    int // consecutive thrashing epochs
	cacheCold   int // consecutive quiet epochs
	est         float64
	lastP       float64
	transitions uint64
	draining    bool

	state atomic.Pointer[State]
}

// New builds a controller and publishes its initial full-fidelity State.
func New(cfg Config) *Controller {
	c := &Controller{cfg: cfg.withDefaults()}
	c.state.Store(c.derive())
	return c
}

// Config returns the controller's effective (default-filled) config.
func (c *Controller) Config() Config { return c.cfg }

// State returns the most recently published decision.
func (c *Controller) State() *State { return c.state.Load() }

// Transitions returns the total rung transitions taken so far.
func (c *Controller) Transitions() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.transitions
}

// Step advances the controller by one epoch. It is deterministic: the same
// sequence of Signals from a fresh controller always yields the same
// sequence of States and Transitions.
func (c *Controller) Step(sig Signals) (*State, []Transition) {
	c.mu.Lock()
	defer c.mu.Unlock()

	c.epoch++
	c.sinceTrans++
	p := Pressure(sig)
	c.lastP = p

	// Solve-latency EWMA (0.7 old / 0.3 new): the shedding estimator.
	if sig.AvgSolveS > 0 {
		if c.est == 0 {
			c.est = sig.AvgSolveS
		} else {
			c.est = 0.7*c.est + 0.3*sig.AvgSolveS
		}
	}

	// Hysteresis dwell counters. The middle band resets both, so a
	// signal oscillating across one threshold never accumulates dwell.
	switch {
	case p >= enterPressure:
		c.above++
		c.below = 0
	case p <= exitPressure:
		c.below++
		c.above = 0
	default:
		c.above, c.below = 0, 0
	}

	var trans []Transition
	switch {
	case c.draining:
		// Drain only ever snaps up; BeginDrain already did.
	case c.rung < MaxRung && c.above >= enterDwell && c.sinceTrans >= minDwell:
		trans = append(trans, Transition{
			Epoch: c.epoch, From: c.rung, To: c.rung + 1,
			Why: fmt.Sprintf("pressure %.2f ≥ %.2f for %d epochs", p, enterPressure, c.above),
		})
		c.rung++
		c.above, c.sinceTrans = 0, 0
		c.transitions++
	case c.rung > RungFull && c.below >= exitDwell && c.sinceTrans >= minDwell:
		trans = append(trans, Transition{
			Epoch: c.epoch, From: c.rung, To: c.rung - 1,
			Why: fmt.Sprintf("pressure %.2f ≤ %.2f for %d epochs", p, exitPressure, c.below),
		})
		c.rung--
		c.below, c.sinceTrans = 0, 0
		c.transitions++
	}

	// Worker-count breaker response, with its own calm-dwell so a
	// breaker flapping open/half-open doesn't bounce the pool size.
	if sig.BreakersOpen > 0 {
		c.brkCalm = 0
		c.workersCut = true
	} else if c.workersCut {
		if c.brkCalm++; c.brkCalm >= exitDwell {
			c.workersCut = false
		}
	}

	// Cache sizing: grow while the miss stream exceeds current capacity
	// per epoch (thrash), shrink back once it goes quiet.
	c.stepCache(sig)

	st := c.derive()
	c.state.Store(st)
	return st, trans
}

func (c *Controller) stepCache(sig Signals) {
	capNow := c.cfg.CacheSize << c.cacheBoost
	switch {
	case int(sig.CacheMisses) > capNow:
		c.cacheCold = 0
		if c.cacheHot++; c.cacheHot >= enterDwell && c.cacheBoost < maxCacheBoost {
			c.cacheBoost++
			c.cacheHot = 0
		}
	case int(sig.CacheMisses) <= capNow/8:
		c.cacheHot = 0
		if c.cacheCold++; c.cacheCold >= exitDwell && c.cacheBoost > 0 {
			c.cacheBoost--
			c.cacheCold = 0
		}
	default:
		c.cacheHot, c.cacheCold = 0, 0
	}
}

// derive computes the published State from the controller's current
// internal position. Callers hold c.mu.
func (c *Controller) derive() *State {
	st := &State{
		Epoch:      c.epoch,
		Rung:       c.rung,
		Workers:    c.cfg.Workers,
		QueueDepth: c.cfg.QueueDepth,
		CacheSize:  c.cfg.CacheSize << c.cacheBoost,
		EstSolveS:  c.est,
		Pressure:   c.lastP,
		Draining:   c.draining,
	}
	if c.rung >= RungCoarsen {
		st.CoarsenEps = coarsenEps
	}
	if c.rung >= RungWindowed {
		st.Windows = windows
	}
	if c.rung >= RungRealizeDown {
		// Under brownout: shed work that can't finish, and shrink the
		// standing queue so waiting work stays young.
		st.Shedding = true
		q := c.cfg.QueueDepth >> uint(c.rung)
		if q < minQueue {
			q = minQueue
		}
		if q > c.cfg.QueueDepth {
			q = c.cfg.QueueDepth
		}
		st.QueueDepth = q
	}
	if c.workersCut {
		w := c.cfg.Workers / 2
		if w < minWorkers {
			w = minWorkers
		}
		st.Workers = w
	}
	return st
}

// BeginDrain pins the controller at full fidelity for the rest of its
// life: the rung snaps to RungFull immediately (drain only ever moves
// *toward* fidelity) and every later Step refuses to descend. It returns a
// Checkpoint of the final adaptive epoch for the drain log.
func (c *Controller) BeginDrain() Checkpoint {
	c.mu.Lock()
	defer c.mu.Unlock()

	ck := Checkpoint{
		Epoch:       c.epoch,
		Rung:        c.rung,
		RungName:    c.rung.String(),
		Transitions: c.transitions,
		EstSolveS:   c.est,
		Pressure:    c.lastP,
	}
	if !c.draining {
		c.draining = true
		if c.rung != RungFull {
			c.rung = RungFull
			c.transitions++
		}
	}
	c.state.Store(c.derive())
	return ck
}
