package core

import (
	"context"
	"errors"
	"fmt"

	"powercap/internal/dag"
	"powercap/internal/lp"
)

// CapSession is the one path that aims the whole-graph LP at a cap and
// solves it: one graph's LP, built once, re-aimed at arbitrary caps. The cap
// enters the fixed-vertex-order program only through the right-hand sides of
// the event power rows, so every SolveAt after the first mutates those RHS
// values in place and warm starts from the previous successful solve's
// basis — the old basis stays dual feasible under an RHS-only change, so a
// few dual simplex pivots repair it instead of a full two-phase solve. A
// one-shot solve is a one-probe session, and SolveSweep is a loop over one
// session's SolveAt; the cluster power market (internal/market) probes each
// job's power–time curve adaptively, asking for whatever cap its last
// transfer produced.
//
// A CapSession is NOT safe for concurrent use; it belongs to one caller
// (the market holds one session per job). The underlying Solver's shared
// IR and frontier caches are still used, so opening a session on a graph
// the Solver has already seen costs no rebuild.
type CapSession struct {
	s     *Solver
	b     *builtLP
	basis []int
	stats Stats
	last  Stats // effort of the latest SolveAt, feasible or not
}

// NewCapSession builds the whole-graph LP for g once and returns a session
// whose SolveAt re-solves it at arbitrary caps with warm starts. ctx carries
// obs span parentage for the (possibly cached) IR build.
func (s *Solver) NewCapSession(ctx context.Context, g *dag.Graph) (*CapSession, error) {
	b, err := s.buildLP(ctx, g)
	if err != nil {
		return nil, err
	}
	return &CapSession{s: s, b: b}, nil
}

// FixedFloorW is a hard lower bound on any feasible cap: the largest fixed
// (untunable) power draw at a single event. Caps at or below it are
// infeasible without a solve; the true feasibility floor — which also
// charges every tunable task's lowest-power configuration — lies above it
// and is what the market discovers by bisection.
func (cs *CapSession) FixedFloorW() float64 { return cs.b.fixedFloorW }

// Stats reports the solver effort accumulated across every SolveAt of this
// session (including failed and infeasible probes).
func (cs *CapSession) Stats() Stats { return cs.stats }

// SolveAt re-aims the session's LP at capW and solves it, warm starting
// from the last successful solve's basis. Infeasible caps return
// ErrInfeasible (cheap: the dual simplex proves infeasibility from the warm
// basis). A numerical breakdown has already had lp.Solve's cold rescue when
// it surfaces here; the session drops its basis, so the next probe starts
// cold instead of from the basis that preceded the failure.
func (cs *CapSession) SolveAt(ctx context.Context, capW float64) (*Schedule, error) {
	b := cs.b
	cs.last = Stats{}
	if b.fixedFloorW > capW {
		return nil, fmt.Errorf("%w: fixed idle power exceeds cap %.1f W at event %d", ErrInfeasible, capW, b.fixedFloorVertex)
	}
	for _, pr := range b.powerRows {
		if err := b.prob.SetRHS(pr.row, capW-pr.deduct); err != nil {
			return nil, err
		}
	}
	sol, err := solveLP(ctx, b.prob, cs.basis, &cs.last, fmt.Sprintf("cap %.1f W", capW))
	cs.stats.Add(cs.last)
	if err != nil {
		var nerr *lp.NumericalError
		if errors.As(err, &nerr) {
			cs.basis = cs.basis[:0]
		}
		return nil, err
	}
	if len(sol.Basis) > 0 {
		cs.basis = append(cs.basis[:0], sol.Basis...)
	}
	sched := cs.s.scheduleFrom(b.ir, b.vVar, b.tv, sol, capW)
	// Raising PC relaxes every event-power row at once, so the makespan
	// sensitivity is the sum of their duals.
	for _, pr := range b.powerRows {
		sched.MarginalSecPerW += sol.DualOf(pr.row)
	}
	sched.Stats = cs.last
	return sched, nil
}
