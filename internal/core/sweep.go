package core

import (
	"context"

	"powercap/internal/dag"
)

// Power-cap sweeps. The paper's experiments (Figs. 8–10) evaluate the
// performance bound across a family of power constraints; re-solving from
// scratch at every cap repeats nearly all of the simplex work. A sweep is
// therefore one JobSession re-solved at each cap: each iteration slice's
// LP is built once and warm starts from its own basis at the cap before.

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

// SolveSweep solves g at each cap in caps, in order, as one JobSession's
// SolveAt: each iteration slice's LP is built once and, at every cap,
// re-solved from its own basis at the previous cap, the slices side by
// side and merged in slice order. Per-cap infeasibility is reported in the
// corresponding SweepPoint.Err (matching ErrInfeasible via errors.Is), not
// as a sweep-level failure; the returned error is reserved for problems
// with the graph itself. Sweeping caps in monotonic order maximizes basis
// reuse, but any order is correct.
func (s *Solver) SolveSweep(g *dag.Graph, caps []float64) ([]SweepPoint, error) {
	return s.SolveSweepCtx(context.Background(), g, caps)
}

// SolveSweepCtx is SolveSweep with cancellation: once ctx is done the
// current cap's pivot loops stop and the remaining caps carry the
// cancellation error.
func (s *Solver) SolveSweepCtx(ctx context.Context, g *dag.Graph, caps []float64) ([]SweepPoint, error) {
	js, err := s.NewJobSession(ctx, g)
	if err != nil {
		return nil, err
	}
	pts := make([]SweepPoint, len(caps))
	for i, capW := range caps {
		pts[i].CapW = capW
		pts[i].Schedule, pts[i].Err = js.SolveAt(ctx, capW)
		for _, cs := range js.cs {
			pts[i].Stats.Add(cs.last) // zero for a slice that did not run
		}
	}
	return pts, nil
}
