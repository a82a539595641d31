package core

import (
	"context"

	"powercap/internal/dag"
)

// Power-cap sweeps. The paper's experiments (Figs. 8–10) evaluate the
// performance bound across a family of power constraints; re-solving from
// scratch at every cap repeats nearly all of the simplex work. A sweep is
// therefore one CapSession walked over the caps: the LP is built once and
// each cap warm starts from the last feasible cap's basis.

// SweepPoint is the result of one cap in a sweep: either a Schedule or the
// error that cap produced (typically ErrInfeasible once the cap drops
// below the feasibility floor), with the solver effort the cap cost either
// way.
type SweepPoint struct {
	CapW     float64
	Schedule *Schedule
	Err      error
	Stats    Stats
}

// SolveSweep solves the whole-graph LP at each cap in caps, in order,
// building the LP once and warm starting every solve after the first from
// its predecessor's basis. Per-cap infeasibility is reported in the
// corresponding SweepPoint.Err (matching ErrInfeasible via errors.Is), not
// as a sweep-level failure; the returned error is reserved for problems
// with the graph itself. Sweeping caps in monotonic order maximizes basis
// reuse, but any order is correct. After a numerical breakdown the next cap
// starts cold, as every CapSession probe does.
func (s *Solver) SolveSweep(g *dag.Graph, caps []float64) ([]SweepPoint, error) {
	return s.SolveSweepCtx(context.Background(), g, caps)
}

// SolveSweepCtx is SolveSweep with cancellation: once ctx is done the
// current cap's pivot loop stops and the remaining caps carry the
// cancellation error.
func (s *Solver) SolveSweepCtx(ctx context.Context, g *dag.Graph, caps []float64) ([]SweepPoint, error) {
	cs, err := s.NewCapSession(ctx, g)
	if err != nil {
		return nil, err
	}
	pts := make([]SweepPoint, len(caps))
	for i, capW := range caps {
		pts[i].CapW = capW
		pts[i].Schedule, pts[i].Err = cs.SolveAt(ctx, capW)
		pts[i].Stats = cs.last
	}
	return pts, nil
}
