// Package resilience implements the degradation ladder of DESIGN.md §10: a
// solve request descends through progressively simpler, more robust modes
// until one produces a cap-respecting schedule.
//
//	LP (sparse revised simplex) → slack-aware heuristic → static
//
// The top rung runs whichever LP the request names: decomposed at iteration
// boundaries, one LP over the whole graph, or the windowed (optionally
// coarsened) decomposition. Numerical rescue of the LP itself happens
// inside lp.Solve (a cold unscaled re-solve); a *lp.NumericalError
// reaching the ladder has already had it, and the LP is deterministic, so
// a rung runs at most once per request: any failure descends. Each rung
// gets a bounded slice of the request's remaining deadline and a circuit
// breaker so a persistently broken rung is skipped without burning its
// slice. Any result produced below the top rung is tagged Degraded with a
// machine-readable reason chain, and is validated on the simulator through
// internal/schedule's realization/repair loop before being returned — the
// ladder never serves a cap-violating schedule.
package resilience

import (
	"context"
	"errors"
	"fmt"
	"strings"
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
	// RungSparse is the normal path: the fixed-vertex-order LP the call
	// names (see LP) on the sparse revised simplex kernel.
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

// Config tunes the ladder. The zero value selects the default.
type Config struct {
	// BreakerCooldown is how long a tripped rung's circuit breaker stays
	// open before a half-open probe (default 5s).
	BreakerCooldown time.Duration
}

// rungFracs is each rung's deadline slice as a fraction of the request's
// *remaining* deadline when the rung starts; a fraction ≥ 1 passes the
// parent deadline through unchanged. Early rungs may not starve later
// ones, and the last rung gets whatever is left.
var rungFracs = [numRungs]float64{0.5, 0.75, 1.0}

// LP names the solve the top rung runs. The zero value is the
// fixed-vertex-order LP decomposed at iteration boundaries.
type LP struct {
	// Whole solves one LP over the entire graph instead of decomposing at
	// iteration boundaries.
	Whole bool
	// Windowed, when set, solves by the windowed (optionally coarsened)
	// decomposition instead of a monolithic LP; Whole is then ignored.
	Windowed *core.WindowedOptions
}

// Outcome is a ladder result: which rung produced the schedule and whether
// the caller should treat it as degraded.
type Outcome struct {
	// Schedule is the accepted schedule. For sub-top rungs its MakespanS is
	// the simulator-validated realized makespan.
	Schedule *core.Schedule
	// Windowed carries the decomposition's diagnostics when the top rung
	// ran a windowed LP and served the result (nil otherwise).
	Windowed *core.WindowedSchedule
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
	// RungAttempts counts the rungs run in ladder order (sparse, heuristic,
	// static), each 0 or 1 — the descent trail the flight recorder stores
	// with each request.
	RungAttempts [NumRungs]int
}

// NumRungs is the ladder depth, exported for callers sizing per-rung
// counters.
const NumRungs = int(numRungs)

// Ladder executes the degradation ladder. Safe for concurrent use; breaker
// state is shared across requests, which is the point.
type Ladder struct {
	breakers [numRungs]*Breaker
}

// New returns a Ladder over cfg (a zero cooldown gets the default).
func New(cfg Config) *Ladder {
	l := &Ladder{}
	for r := range l.breakers {
		l.breakers[r] = NewBreaker(cfg.BreakerCooldown)
	}
	return l
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

// Solve runs the ladder for one request: top names the LP the top rung
// solves. It returns an error only when the problem itself is bad
// (infeasible cap, malformed graph), the parent context dies, or every
// rung tried — including the static last resort — fails.
func (l *Ladder) Solve(ctx context.Context, sv *core.Solver, g *dag.Graph, capW float64, top LP) (*Outcome, error) {
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
		rungCtx, cancel := rungContext(ctx, rungFracs[rung])
		err := attempt(rungCtx, sv, g, capW, top, rung, br, out)
		cancel()
		if err == nil {
			out.Rung = rung
			if rung > RungSparse {
				out.Degraded = true
				out.Reason = strings.Join(append(chain, rung.String()), "→")
			}
			span.SetAttr("rung", rung.String())
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

// attempt runs one rung once, recording its result in out and reporting
// it to the rung's breaker. The LP is deterministic, so a failure is not
// retried: the ladder descends.
func attempt(ctx context.Context, sv *core.Solver, g *dag.Graph, capW float64, top LP, rung Rung, br *Breaker, out *Outcome) error {
	out.RungAttempts[rung]++
	actx, sp := obs.Start(ctx, "resilience."+rung.String())
	sp.SetAttr("breaker", br.State())
	err := runRung(actx, sv, g, capW, top, rung, out)
	sp.SetAttr("ok", err == nil)
	sp.End()
	switch {
	case err == nil:
		br.Success()
	case errors.Is(err, core.ErrInfeasible) || ctx.Err() != nil:
		// Not the rung's fault (or its deadline slice ran out): don't
		// poison the breaker.
	default:
		br.Failure()
	}
	return err
}

// runRung executes one ladder level, recording its schedule in out. The
// top rung solves the LP top names; sub-top rungs validate their schedule
// on the simulator via the Down realization (repairing any cap excess)
// before returning it.
func runRung(ctx context.Context, sv *core.Solver, g *dag.Graph, capW float64, top LP, rung Rung, out *Outcome) error {
	switch rung {
	case RungSparse:
		if top.Windowed != nil {
			ws, err := sv.SolveWindowedCtx(ctx, g, capW, *top.Windowed)
			if err != nil {
				return err
			}
			out.Schedule, out.Windowed = ws.Schedule, ws
			return nil
		}
		solve := sv.SolveIterationsCtx
		if top.Whole {
			solve = sv.SolveCtx
		}
		sched, err := solve(ctx, g, capW)
		out.Schedule = sched
		return err
	case RungHeuristic, RungStatic:
		sched, realized, err := heuristicRung(ctx, sv, g, capW, rung == RungHeuristic)
		out.Schedule, out.Realized = sched, realized
		return err
	default:
		return fmt.Errorf("resilience: unknown rung %v", rung)
	}
}

// rungContext carves a rung's deadline slice, frac of the parent's
// remaining time, out of ctx. Without a parent deadline the rung inherits
// ctx as-is.
func rungContext(ctx context.Context, frac float64) (context.Context, context.CancelFunc) {
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
