package powercap

import (
	"context"

	"powercap/internal/resilience"
)

// Resilient solve facade (DESIGN.md §10): UpperBound through the fallback
// ladder. When the LP breaks down numerically even after the kernel's own
// rescue (a cold re-solve without presolve), the ladder retries with
// backoff, then descends to a slack-aware heuristic, then to the static
// fair-share policy — every sub-top-rung result simulator-validated and
// cap-clean, and tagged Degraded with a machine-readable reason.

// Re-exported resilience types.
type (
	// ResilienceConfig tunes the fallback ladder (retry budgets, backoff,
	// circuit breakers, per-rung deadline slices).
	ResilienceConfig = resilience.Config
	// ResilientOutcome is a ladder result: the schedule plus which rung
	// produced it and whether it is degraded.
	ResilientOutcome = resilience.Outcome
	// ResilientRung identifies one ladder level.
	ResilientRung = resilience.Rung
)

// Ladder rungs, top (preferred) to bottom (last resort).
const (
	RungSparse    = resilience.RungSparse
	RungHeuristic = resilience.RungHeuristic
	RungStatic    = resilience.RungStatic
)

// Ladder returns the System's shared fallback ladder, created on first use
// from s.Resilience. Breaker state is shared across requests — a rung that
// keeps failing is skipped for everyone until its cooldown probe.
func (s *System) Ladder() *resilience.Ladder {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ladder == nil {
		s.ladder = resilience.New(s.Resilience)
	}
	return s.ladder
}

// UpperBoundResilient is UpperBound through the fallback ladder: it returns
// a schedule whenever any rung — including the static last resort — can
// produce a cap-respecting one, and reports through the Outcome whether and
// why the result is degraded below the LP bound.
func (s *System) UpperBoundResilient(g *Graph, jobCapW float64, whole bool) (*ResilientOutcome, error) {
	return s.UpperBoundResilientCtx(context.Background(), g, jobCapW, whole)
}

// UpperBoundResilientCtx is UpperBoundResilient with per-request
// cancellation. Each rung gets a bounded slice of the remaining deadline, so
// a slow top rung cannot starve the fallbacks; an error is returned only for
// bad problems (ErrInfeasible, malformed graphs), a dead context, or when
// every rung fails.
func (s *System) UpperBoundResilientCtx(ctx context.Context, g *Graph, jobCapW float64, whole bool) (*ResilientOutcome, error) {
	return s.Ladder().Solve(ctx, s.solver(), g, jobCapW, !whole)
}

// HeuristicOutcomeCtx solves with the ladder's slack-aware heuristic rung
// only — no LP at all. The result is simulator-validated and cap-clean but
// always tagged Degraded ("brownout:heuristic"). This is the deepest rung
// of the service's adaptive brownout ladder, not a replacement for the
// fallback path: breaker state is neither consulted nor charged.
func (s *System) HeuristicOutcomeCtx(ctx context.Context, g *Graph, jobCapW float64) (*ResilientOutcome, error) {
	return s.Ladder().SolveHeuristic(ctx, s.solver(), g, jobCapW)
}
