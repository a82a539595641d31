// Package resilience implements the fallback ladder of DESIGN.md §10: a
// solve request descends through progressively simpler, more robust modes
// until one produces a cap-respecting schedule.
//
//	LP (sparse revised simplex) → slack-aware heuristic → static
//
// Numerical rescue of the LP itself happens inside lp.Solve (a cold
// re-solve without presolve); a *lp.NumericalError reaching the ladder has
// already had it. Each rung gets a bounded slice of the request's remaining
// deadline, a small retry budget with exponential backoff for numerical
// failures, and a circuit breaker so a persistently broken rung is skipped
// without burning its slice. Any result produced below the top rung is
// tagged Degraded with a machine-readable reason chain, and is validated on
// the simulator through internal/schedule's realization/repair loop before
// being returned — the ladder never serves a cap-violating schedule.
package resilience

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"time"

	"powercap/internal/core"
	"powercap/internal/dag"
	"powercap/internal/lp"
	"powercap/internal/obs"
	"powercap/internal/schedule"
)

// Rung identifies one level of the fallback ladder, ordered from the
// preferred mode down to the always-available one.
type Rung int

const (
	// RungSparse is the normal path: the fixed-vertex-order LP on the
	// sparse revised simplex kernel.
	RungSparse Rung = iota
	// RungHeuristic builds a slack-aware discrete schedule without an LP:
	// off-critical tasks at their frontier floor, critical tasks at their
	// fair power share.
	RungHeuristic
	// RungStatic is the last resort: every task at the floor of a uniform
	// fair share, the paper's static baseline policy.
	RungStatic

	numRungs
)

// String names the rung as it appears in Degraded reasons and metrics.
func (r Rung) String() string {
	switch r {
	case RungSparse:
		return "sparse"
	case RungHeuristic:
		return "heuristic"
	case RungStatic:
		return "static"
	default:
		return fmt.Sprintf("Rung(%d)", int(r))
	}
}

// Rungs lists the ladder top to bottom.
func Rungs() []Rung {
	return []Rung{RungSparse, RungHeuristic, RungStatic}
}

// Config tunes the ladder. The zero value selects the defaults noted on
// each field.
type Config struct {
	// Retries is how many extra attempts a rung gets after a numerical
	// failure before the ladder descends (default 1).
	Retries int
	// BackoffBase and BackoffMax bound the exponential backoff between
	// retries (defaults 1ms and 50ms).
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// JitterSeed seeds the deterministic backoff jitter.
	JitterSeed uint64
	// BreakerThreshold is the consecutive-failure count that trips a rung's
	// circuit breaker (default 3); BreakerCooldown how long it stays open
	// before a half-open probe (default 5s).
	BreakerThreshold int
	BreakerCooldown  time.Duration
	// MaxRepairs bounds the realization repair loop for validated rungs
	// (0 = the natural bound, the sum of frontier sizes).
	MaxRepairs int
	// DeadlineFracs gives each rung's slice as a fraction of the request's
	// *remaining* deadline when the rung starts; a fraction ≥ 1 passes the
	// parent deadline through unchanged. Zero selects the defaults
	// {0.5, 0.75, 1.0}: early rungs may not starve later ones, and the last
	// rung gets whatever is left.
	DeadlineFracs [numRungs]float64
	// Sleep replaces time.Sleep between retries (tests); nil = time.Sleep.
	Sleep func(time.Duration)
}

// Outcome is a ladder result: which rung produced the schedule and whether
// the caller should treat it as degraded.
type Outcome struct {
	// Schedule is the accepted schedule. For sub-top rungs its MakespanS is
	// the simulator-validated realized makespan.
	Schedule *core.Schedule
	// Realized is the simulator validation attached to every sub-top-rung
	// result (nil for RungSparse, whose callers choose their own
	// realization). Its CapViolationW is always 0.
	Realized *schedule.Realized
	// Rung is the ladder level that produced Schedule.
	Rung Rung
	// Degraded is true for any rung below the top; Reason then carries the
	// machine-readable descent chain, e.g.
	// "sparse:numerical(ftran/btran pivot mismatch)→heuristic".
	Degraded bool
	Reason   string
	// Attempts counts solve attempts across all rungs; Retries the backoff
	// retries among them.
	Attempts int
	Retries  int
	// RungAttempts and RungRetries break Attempts/Retries down per rung in
	// ladder order (sparse, heuristic, static) — the per-rung descent counts
	// the flight recorder stores with each request.
	RungAttempts [NumRungs]int
	RungRetries  [NumRungs]int
}

// NumRungs is the ladder depth, exported for callers sizing DeadlineFracs
// overrides.
const NumRungs = int(numRungs)

// Ladder executes the fallback ladder. Safe for concurrent use; breaker
// state is shared across requests, which is the point.
type Ladder struct {
	cfg      Config
	breakers [numRungs]*Breaker
	jitter   atomic.Uint64
	// fracs is the live per-rung deadline-slice table. It starts as
	// cfg.DeadlineFracs and may be swapped at runtime by the adaptive
	// control plane (SetDeadlineFracs) without disturbing in-flight
	// solves, which read it once per rung.
	fracs atomic.Pointer[[numRungs]float64]
}

// New returns a Ladder over cfg (zero-value fields get defaults).
func New(cfg Config) *Ladder {
	if cfg.Retries <= 0 {
		cfg.Retries = 1
	}
	if cfg.BackoffBase <= 0 {
		cfg.BackoffBase = time.Millisecond
	}
	if cfg.BackoffMax <= 0 {
		cfg.BackoffMax = 50 * time.Millisecond
	}
	var zero [numRungs]float64
	if cfg.DeadlineFracs == zero {
		cfg.DeadlineFracs = [numRungs]float64{0.5, 0.75, 1.0}
	}
	l := &Ladder{cfg: cfg}
	fr := cfg.DeadlineFracs
	l.fracs.Store(&fr)
	for r := range l.breakers {
		l.breakers[r] = NewBreaker(cfg.BreakerThreshold, cfg.BreakerCooldown)
	}
	return l
}

// SetDeadlineFracs swaps the live per-rung deadline-slice table. Entries
// beyond NumRungs are ignored; missing or non-positive entries keep their
// configured value. A nil slice restores the configured table.
func (l *Ladder) SetDeadlineFracs(fracs []float64) {
	next := l.cfg.DeadlineFracs
	for i := 0; i < len(fracs) && i < NumRungs; i++ {
		if fracs[i] > 0 {
			next[i] = fracs[i]
		}
	}
	l.fracs.Store(&next)
}

// DeadlineFracs returns a copy of the live deadline-slice table.
func (l *Ladder) DeadlineFracs() []float64 {
	cur := *l.fracs.Load()
	return append([]float64(nil), cur[:]...)
}

// SetBreakerNotify installs fn to be called (outside any breaker lock, on
// the goroutine whose failure tripped it) whenever a rung's breaker
// transitions to open — the flight-recorder snapshot hook.
func (l *Ladder) SetBreakerNotify(fn func(rung string)) {
	for r, b := range l.breakers {
		name := Rung(r).String()
		b.SetNotify(func() { fn(name) })
	}
}

// BreakerStates reports each rung's circuit-breaker state for /healthz.
func (l *Ladder) BreakerStates() map[string]string {
	out := make(map[string]string, numRungs)
	for r, b := range l.breakers {
		out[Rung(r).String()] = b.State()
	}
	return out
}

// Solve runs the ladder for one request. It returns an error only when the
// problem itself is bad (infeasible cap, malformed graph), the parent
// context dies, or every rung — including the static last resort — fails.
func (l *Ladder) Solve(ctx context.Context, sv *core.Solver, g *dag.Graph, capW float64, decompose bool) (*Outcome, error) {
	ctx, span := obs.Start(ctx, "resilience.ladder")
	defer span.End()
	span.SetAttr("cap_w", capW)

	out := &Outcome{}
	var chain []string
	var lastErr error

	for rung := RungSparse; rung < numRungs; rung++ {
		br := l.breakers[rung]
		if !br.Allow() {
			chain = append(chain, rung.String()+":breaker-open")
			continue
		}
		rungCtx, cancel := l.rungContext(ctx, rung)
		sched, realized, err := l.attempt(rungCtx, sv, g, capW, decompose, rung, br, out)
		cancel()
		if err == nil {
			out.Schedule, out.Realized, out.Rung = sched, realized, rung
			if rung > RungSparse {
				out.Degraded = true
				out.Reason = strings.Join(append(chain, rung.String()), "→")
			}
			span.SetAttr("rung", rung.String())
			span.SetAttr("attempts", out.Attempts)
			span.SetAttr("degraded", out.Degraded)
			return out, nil
		}
		if errors.Is(err, core.ErrInfeasible) {
			// A statement about the problem, not the solver: no lower rung
			// can conjure power that does not exist.
			return nil, err
		}
		if ctx.Err() != nil {
			return nil, fmt.Errorf("resilience: request deadline exhausted at %s rung: %w", rung, err)
		}
		chain = append(chain, describeFailure(rung, err))
		lastErr = err
	}
	return nil, fmt.Errorf("resilience: every rung failed (%s): %w", strings.Join(chain, "→"), lastErr)
}

// SolveHeuristic runs only the slack-aware heuristic rung — no LP at all.
// It is the service's deepest brownout mode: the result is still
// simulator-validated cap-clean, but it is always tagged Degraded so it is
// never cached and never served to a `degraded=forbid` request. The rung's
// circuit breaker is deliberately not consulted or charged: brownout
// traffic must not perturb the failure accounting of the fallback path.
func (l *Ladder) SolveHeuristic(ctx context.Context, sv *core.Solver, g *dag.Graph, capW float64) (*Outcome, error) {
	ctx, span := obs.Start(ctx, "resilience.brownout")
	defer span.End()
	span.SetAttr("cap_w", capW)

	sched, realized, err := l.heuristicRung(ctx, sv, g, capW, true)
	if err != nil {
		return nil, err
	}
	out := &Outcome{
		Schedule: sched,
		Realized: realized,
		Rung:     RungHeuristic,
		Degraded: true,
		Reason:   "brownout:heuristic",
		Attempts: 1,
	}
	out.RungAttempts[RungHeuristic] = 1
	return out, nil
}

// attempt runs one rung with its retry budget. Numerical failures are
// retried with backoff; anything else descends immediately.
func (l *Ladder) attempt(ctx context.Context, sv *core.Solver, g *dag.Graph, capW float64, decompose bool, rung Rung, br *Breaker, out *Outcome) (*core.Schedule, *schedule.Realized, error) {
	var lastErr error
	for try := 0; ; try++ {
		out.Attempts++
		out.RungAttempts[rung]++
		actx, sp := obs.Start(ctx, "resilience."+rung.String())
		sp.SetAttr("try", try)
		sp.SetAttr("breaker", br.State())
		sched, realized, err := l.runRung(actx, sv, g, capW, decompose, rung)
		sp.SetAttr("ok", err == nil)
		sp.End()
		if err == nil {
			br.Success()
			return sched, realized, nil
		}
		lastErr = err
		if errors.Is(err, core.ErrInfeasible) || ctx.Err() != nil {
			// Not the rung's fault (or no time left to retry on it):
			// don't poison the breaker.
			return nil, nil, err
		}
		var ne *lp.NumericalError
		if errors.As(err, &ne) && try < l.cfg.Retries {
			out.Retries++
			out.RungRetries[rung]++
			l.sleep(l.backoff(try))
			continue
		}
		br.Failure()
		return nil, nil, lastErr
	}
}

// runRung executes one ladder level. Sub-top rungs validate their schedule
// on the simulator via the Down realization (repairing any cap excess)
// before returning it.
func (l *Ladder) runRung(ctx context.Context, sv *core.Solver, g *dag.Graph, capW float64, decompose bool, rung Rung) (*core.Schedule, *schedule.Realized, error) {
	switch rung {
	case RungSparse:
		solve := sv.SolveCtx
		if decompose {
			solve = sv.SolveIterationsCtx
		}
		sched, err := solve(ctx, g, capW)
		return sched, nil, err
	case RungHeuristic:
		return l.heuristicRung(ctx, sv, g, capW, true)
	case RungStatic:
		return l.heuristicRung(ctx, sv, g, capW, false)
	default:
		return nil, nil, fmt.Errorf("resilience: unknown rung %v", rung)
	}
}

// rungContext carves the rung's deadline slice out of the parent's
// remaining time. Without a parent deadline the rung inherits ctx as-is.
func (l *Ladder) rungContext(ctx context.Context, rung Rung) (context.Context, context.CancelFunc) {
	frac := l.fracs.Load()[rung]
	deadline, ok := ctx.Deadline()
	if !ok || frac >= 1 {
		return context.WithCancel(ctx)
	}
	remaining := time.Until(deadline)
	if remaining <= 0 {
		return context.WithCancel(ctx)
	}
	slice := time.Duration(float64(remaining) * frac)
	return context.WithDeadline(ctx, time.Now().Add(slice))
}

// backoff computes the delay before retry number try: exponential from
// BackoffBase, capped at BackoffMax, plus a deterministic seeded jitter of
// up to half the base step (decorrelates retry storms across concurrent
// requests without nondeterministic randomness).
func (l *Ladder) backoff(try int) time.Duration {
	d := l.cfg.BackoffBase << uint(try)
	if d > l.cfg.BackoffMax {
		d = l.cfg.BackoffMax
	}
	x := l.cfg.JitterSeed + l.jitter.Add(1)
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	x ^= x >> 31
	jitter := time.Duration(x % uint64(l.cfg.BackoffBase/2+1))
	return d + jitter
}

func (l *Ladder) sleep(d time.Duration) {
	if l.cfg.Sleep != nil {
		l.cfg.Sleep(d)
		return
	}
	time.Sleep(d)
}

// describeFailure renders one rung's failure for the Degraded reason chain.
func describeFailure(rung Rung, err error) string {
	var ne *lp.NumericalError
	switch {
	case errors.As(err, &ne):
		return fmt.Sprintf("%s:numerical(%s)", rung, ne.Reason)
	case errors.Is(err, context.DeadlineExceeded):
		return rung.String() + ":deadline"
	default:
		return rung.String() + ":error"
	}
}
