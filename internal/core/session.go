package core

import (
	"context"
	"errors"

	"powercap/internal/dag"
	"powercap/internal/lp"
)

// CapSession is the warm re-solve entry for cap-only changes: one graph's
// whole-graph LP, built once, re-aimed at arbitrary caps. The cap enters the
// fixed-vertex-order program only through the right-hand sides of the event
// power rows, so every SolveAt after the first mutates those RHS values in
// place and warm starts from the previous successful solve's basis — the old
// basis stays dual feasible under an RHS-only change, so a few dual simplex
// pivots repair it instead of a full two-phase solve. Unlike SolveSweep,
// the caps need not be known up front: the cluster power market
// (internal/market) probes each job's power–time curve adaptively, asking
// for whatever cap its last transfer produced.
//
// A CapSession is NOT safe for concurrent use; it belongs to one caller
// (the market holds one session per job). The underlying Solver's shared
// IR and frontier caches are still used, so opening a session on a graph
// the Solver has already seen costs no rebuild.
type CapSession struct {
	s     *Solver
	g     *dag.Graph
	b     *builtLP
	basis []int
	stats Stats
}

// NewCapSession builds the whole-graph LP for g once and returns a session
// whose SolveAt re-solves it at arbitrary caps with warm starts. ctx carries
// obs span parentage for the (possibly cached) IR build.
func (s *Solver) NewCapSession(ctx context.Context, g *dag.Graph) (*CapSession, error) {
	b, err := s.buildLP(ctx, g)
	if err != nil {
		return nil, err
	}
	return &CapSession{s: s, g: g, b: b}, nil
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
	sched := &Schedule{
		CapW:        capW,
		Choices:     make([]TaskChoice, len(cs.g.Tasks)),
		VertexTimeS: make([]float64, len(cs.g.Vertices)),
	}
	sol, err := cs.s.solveBuilt(ctx, cs.b, capW, cs.basis, &sched.Stats)
	cs.stats.Add(sched.Stats)
	if err != nil {
		var nerr *lp.NumericalError
		if errors.As(err, &nerr) {
			cs.basis = cs.basis[:0]
		}
		return nil, err
	}
	cs.s.extractInto(cs.b, sol, sched, identityTaskMap(len(cs.g.Tasks)), sched.VertexTimeS)
	sched.MakespanS = finalizeTime(cs.g, sched.VertexTimeS)
	if len(sol.Basis) > 0 {
		cs.basis = append(cs.basis[:0], sol.Basis...)
	}
	return sched, nil
}
