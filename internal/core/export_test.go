package core

import (
	"context"
	"fmt"

	"powercap/internal/dag"
	"powercap/internal/lp"
)

// WholeJob is a job session of one slice, the whole graph g, over cs, a
// session of g's whole-graph LP: its walk is the whole-graph walk a sliced
// job walk is checked against.
func WholeJob(g *dag.Graph, cs *CapSession) *JobSession {
	whole := &dag.IterationSlice{Graph: g, TaskMap: make([]dag.TaskID, len(g.Tasks))}
	for i := range whole.TaskMap {
		whole.TaskMap[i] = dag.TaskID(i)
	}
	return &JobSession{g: g, slices: []*dag.IterationSlice{whole}, cs: []*CapSession{cs}}
}

// CertifySlices captures every slice of w at its current cap and checks
// each capture's certificate on the slice's LP as stated there.
func CertifySlices(ctx context.Context, w *JobWalk) error {
	for si, sw := range w.walks {
		sol, err := sw.lw.Capture(ctx)
		if err != nil {
			return err
		}
		if err := sw.cs.aim(sw.CapW()); err != nil {
			return err
		}
		if err := lp.Certify(sw.cs.b.prob, sol).Err(); err != nil {
			return fmt.Errorf("slice %d at %.6f W: %w", si, sw.CapW(), err)
		}
	}
	return nil
}

// TwoFloorGraph is twoFloorGraph: a job whose first slices have the lower
// floor.
var TwoFloorGraph = twoFloorGraph
