package powercap

import (
	"context"

	"powercap/internal/resilience"
)

// Resilient solve facade (DESIGN.md §10): UpperBound through the
// degradation ladder. When the LP breaks down numerically even after the
// kernel's own rescue (a cold unscaled re-solve), the ladder descends at
// once to a slack-aware heuristic, then to the static fair-share policy —
// each rung runs at most once, every sub-top-rung result is
// simulator-validated and cap-clean, and tagged Degraded with a
// machine-readable reason.

// Re-exported resilience types.
type (
	// ResilienceConfig tunes the ladder (its circuit breakers' cooldown).
	ResilienceConfig = resilience.Config
	// ResilientOutcome is a ladder result: the schedule plus which rung
	// produced it and whether it is degraded.
	ResilientOutcome = resilience.Outcome
	// ResilientRung identifies one ladder level.
	ResilientRung = resilience.Rung
	// ResilientLP names the LP the top rung solves: decomposed at
	// iteration boundaries (the zero value), whole, or windowed.
	ResilientLP = resilience.LP
)

// Ladder rungs, top (preferred) to bottom (last resort).
const (
	RungSparse    = resilience.RungSparse
	RungHeuristic = resilience.RungHeuristic
	RungStatic    = resilience.RungStatic
)

// Ladder returns the System's shared degradation ladder, created on first
// use from s.Resilience. Breaker state is shared across requests — a rung
// that keeps failing is skipped for everyone until its cooldown probe.
func (s *System) Ladder() *resilience.Ladder {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ladder == nil {
		s.ladder = resilience.New(s.Resilience)
	}
	return s.ladder
}

// UpperBoundResilientCtx solves g under jobCapW through the degradation
// ladder: top names the LP its top rung solves. It returns a schedule
// whenever any rung tried — including the static last resort — can
// produce a cap-respecting one, and reports through the Outcome whether
// and why the result is degraded below the LP bound. Each
// rung gets a bounded slice of the remaining deadline, so a slow top rung
// cannot starve the fallbacks; an error is returned only for bad problems
// (ErrInfeasible, malformed graphs), a dead context, or when every rung
// fails.
func (s *System) UpperBoundResilientCtx(ctx context.Context, g *Graph, jobCapW float64, top ResilientLP) (*ResilientOutcome, error) {
	return s.Ladder().Solve(ctx, s.solver(), g, jobCapW, top)
}
