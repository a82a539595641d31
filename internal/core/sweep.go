package core

import (
	"context"

	"powercap/internal/dag"
)

// Power-cap sweeps. The paper's experiments (Figs. 8–10) evaluate the
// performance bound across a family of power constraints; re-solving from
// scratch at every cap repeats nearly all of the simplex work. Because the
// cap enters the LP only through the right-hand sides of the event-power
// rows, a sweep can build the LP once and, at each cap, mutate those RHS
// values and warm start from the previous cap's optimal basis: the old
// basis stays dual feasible after an RHS-only change, so a few dual
// simplex pivots repair it instead of a full two-phase solve.

// SweepPoint is the result of one cap in a sweep: either a Schedule or the
// error that cap produced (typically ErrInfeasible once the cap drops
// below the feasibility floor).
type SweepPoint struct {
	CapW     float64
	Schedule *Schedule
	Err      error
}

// SolveSweep solves the whole-graph LP at each cap in caps, in order,
// building the LP once and warm starting every solve after the first from
// its predecessor's basis. Per-cap infeasibility is reported in the
// corresponding SweepPoint.Err (matching ErrInfeasible via errors.Is), not
// as a sweep-level failure; the returned error is reserved for problems
// with the graph itself. Sweeping caps in monotonic order maximizes basis
// reuse, but any order is correct.
func (s *Solver) SolveSweep(g *dag.Graph, caps []float64) ([]SweepPoint, error) {
	return s.SolveSweepCtx(context.Background(), g, caps)
}

// SolveSweepCtx is SolveSweep with cancellation: once ctx is done the
// current cap's pivot loop stops and the remaining caps are marked with the
// cancellation error without being attempted.
func (s *Solver) SolveSweepCtx(ctx context.Context, g *dag.Graph, caps []float64) ([]SweepPoint, error) {
	b, err := s.buildLP(ctx, g)
	if err != nil {
		return nil, err
	}
	pts := make([]SweepPoint, len(caps))
	var basis []int
	for i, capW := range caps {
		pts[i].CapW = capW
		sched := &Schedule{
			CapW:        capW,
			Choices:     make([]TaskChoice, len(g.Tasks)),
			VertexTimeS: make([]float64, len(g.Vertices)),
		}
		sol, err := s.solveBuilt(ctx, b, capW, basis, &sched.Stats)
		if err != nil {
			pts[i].Err = err
			continue
		}
		s.extractInto(b, sol, sched, identityTaskMap(len(g.Tasks)), sched.VertexTimeS)
		sched.MakespanS = finalizeTime(g, sched.VertexTimeS)
		if len(sol.Basis) > 0 {
			basis = sol.Basis
		}
		pts[i].Schedule = sched
	}
	return pts, nil
}
