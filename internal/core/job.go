package core

import (
	"context"
	"fmt"
	"math"
	"runtime"

	"powercap/internal/dag"
	"powercap/internal/fanout"
	"powercap/internal/obs"
)

// JobSession is one job's cap axis for the cluster power market: its graph
// cut at its MPI_Pcontrol boundaries (dag.SliceAll), one CapSession per
// iteration slice. A Pcontrol boundary is a global synchronization point,
// so the job LP decomposes exactly into the slices' LPs, whose objectives
// add up at every cap (Sec. 5.2): the job's power–time curve is the sum of
// the slices' curves, its floor the largest slice floor, and its schedule
// at a cap the slices' schedules merged as a decomposed solve merges them.
// A graph without Pcontrol boundaries is a job of one slice.
//
// FloorW, Walk, SolveAt and Stats make it the market's Session; a sweep is
// its SolveAt at each cap. A JobSession is NOT safe for concurrent use.
type JobSession struct {
	g      *dag.Graph
	slices []*dag.IterationSlice
	cs     []*CapSession
}

// NewJobSession cuts g at its iteration boundaries and builds each slice's
// LP once, the slices side by side on GOMAXPROCS workers. ctx carries obs
// span parentage for the (possibly cached) IR builds and cancels them.
func (s *Solver) NewJobSession(ctx context.Context, g *dag.Graph) (*JobSession, error) {
	_, sp := obs.Start(ctx, "dag.slice")
	slices, err := dag.SliceAll(g)
	sp.SetAttr("slices", len(slices))
	sp.End()
	if err != nil {
		return nil, err
	}
	if len(slices) == 0 {
		// A graph without tasks has no slice; its one program is the
		// whole graph, as in a decomposed solve.
		slices = []*dag.IterationSlice{{Graph: g}}
	}
	js := &JobSession{g: g, slices: slices, cs: make([]*CapSession, len(slices))}
	err = fanout.Run(ctx, len(slices), runtime.GOMAXPROCS(0), func(ctx context.Context, si int) error {
		cs, err := s.NewCapSession(ctx, slices[si].Graph)
		if err != nil {
			return fmt.Errorf("iteration slice: %w", err)
		}
		js.cs[si] = cs
		return nil
	})
	if err != nil {
		return nil, err
	}
	return js, nil
}

// FloorW is the job's smallest feasible cap, in closed form: the largest
// slice floor (CapSession.FloorW), which is the whole graph's.
func (js *JobSession) FloorW() float64 {
	floor := 0.0
	for _, cs := range js.cs {
		floor = math.Max(floor, cs.FloorW())
	}
	return floor
}

// Stats reports the solver effort accumulated across the slices' sessions:
// every SolveAt and every walk, each slice's walk counted as one solve.
func (js *JobSession) Stats() Stats {
	var st Stats
	for _, cs := range js.cs {
		st.Add(cs.Stats())
	}
	return st
}

// SolveAt solves the job at capW as a decomposed solve does: each slice's
// session re-aimed at capW and warm started from its own previous cap, the
// slices side by side, merged in slice order. Below FloorW no slice runs:
// the first slice whose floor binds answers ErrInfeasible, with no effort.
func (js *JobSession) SolveAt(ctx context.Context, capW float64) (*Schedule, error) {
	for _, cs := range js.cs {
		cs.last = Stats{}
	}
	for _, cs := range js.cs {
		if cs.FloorW() > capW {
			return nil, fmt.Errorf("iteration slice: %w", cs.b.floor.infeasible(capW))
		}
	}
	return solveSlices(ctx, js.g, js.slices, capW, func(ctx context.Context, si int) (*Schedule, error) {
		return js.cs[si].SolveAt(ctx, capW)
	})
}

// solveSlices solves a graph's iteration slices at capW with solve, side by
// side on GOMAXPROCS workers, each under its core.iteration span, and
// merges them in slice order, so the schedule, its Stats and any error (the
// first failing slice's) are those of a serial loop over the slices.
func solveSlices(ctx context.Context, g *dag.Graph, slices []*dag.IterationSlice, capW float64, solve func(ctx context.Context, si int) (*Schedule, error)) (*Schedule, error) {
	subs := make([]*Schedule, len(slices))
	err := fanout.Run(ctx, len(slices), runtime.GOMAXPROCS(0), func(ctx context.Context, si int) error {
		ictx, isp := obs.Start(ctx, "core.iteration")
		isp.SetAttr("slice", si)
		sub, err := solve(ictx, si)
		isp.End()
		if err != nil {
			return fmt.Errorf("iteration slice: %w", err)
		}
		subs[si] = sub
		return nil
	})
	if err != nil {
		return nil, err
	}
	return mergeSlices(g, slices, subs, capW), nil
}

// mergeSlices merges the slices' schedules at capW into the graph's, in
// slice order: each task's choice mapped back to its ID in g, the
// makespans, objectives and shadow prices summed, the effort added.
// Per-iteration vertex times are local to each slice, so the merged
// schedule carries none.
func mergeSlices(g *dag.Graph, slices []*dag.IterationSlice, subs []*Schedule, capW float64) *Schedule {
	sched := &Schedule{
		CapW:               capW,
		Choices:            make([]TaskChoice, len(g.Tasks)),
		IterationMakespans: make([]float64, len(slices)),
	}
	for si, sub := range subs {
		for tid, c := range sub.Choices {
			sched.Choices[slices[si].TaskMap[tid]] = c
		}
		sched.IterationMakespans[si] = sub.MakespanS
		sched.MakespanS += sub.MakespanS
		sched.Objective += sub.Objective
		sched.MarginalSecPerW += sub.MarginalSecPerW
		sched.Stats.Add(sub.Stats)
	}
	return sched
}

// JobWalk is one job's walk down its power–time curve, a piece at a time,
// from a saturating cap down to FloorW: one walk per iteration slice, each
// opened at the job's common saturating cap and moved in lock step on the
// job's cap axis. The job's piece below the current cap ends at the nearest
// slice breakpoint below it and its slope is the slices' slopes summed;
// lowering the job advances every slice, and only a slice whose piece
// ended crosses its breakpoint. Piece reports the job's piece, Lower walks
// down to a cap, Demand through the flat top, At reads the values as they
// stand, and Schedule merges the slices' captures. The walk leaves the
// sessions' warm-start bases alone; Close counts each slice's walk as one
// solve in the job's Stats. A JobWalk is not safe for concurrent use.
type JobWalk struct {
	js    *JobSession
	walks []*capWalk
}

// Walk opens the job's walk: one cold solve per slice at the job's
// saturating cap, the slices side by side on GOMAXPROCS workers. ctx
// parents the opens' spans and cancels their pivots; each later step is
// canceled by the ctx it is given.
func (js *JobSession) Walk(ctx context.Context) (*JobWalk, error) {
	topW := 0.0
	for _, cs := range js.cs {
		topW = math.Max(topW, cs.saturatingW())
	}
	w := &JobWalk{js: js, walks: make([]*capWalk, len(js.cs))}
	err := fanout.Run(ctx, len(js.cs), runtime.GOMAXPROCS(0), func(ctx context.Context, si int) error {
		sw, err := js.cs[si].walk(ctx, topW)
		if err != nil {
			return fmt.Errorf("iteration slice: %w", err)
		}
		w.walks[si] = sw
		return nil
	})
	if err != nil {
		w.Close()
		return nil, err
	}
	return w, nil
}

// CapW reports the walk's current cap.
func (w *JobWalk) CapW() float64 {
	capW := math.Inf(-1)
	for _, sw := range w.walks {
		capW = math.Max(capW, sw.CapW())
	}
	return capW
}

// Piece reports the job's piece of the curve below the current cap: its
// lower cap, the highest of the slices' pieces' lower caps, and its slope
// d objective / d cap in s/W (≤ 0), their slopes summed. A slice at a
// breakpoint first pivots across it. Where a slice's walk has ended — at
// the job's FloorW, or where its LP turns infeasible — so has the job's,
// and lowerCapW is the current cap.
func (w *JobWalk) Piece(ctx context.Context) (lowerCapW, slopeSecPerW float64, err error) {
	lowerCapW = math.Inf(-1)
	for _, sw := range w.walks {
		lo, slope, err := sw.Piece(ctx)
		if err != nil {
			return 0, 0, err
		}
		if lo >= sw.CapW() {
			return w.CapW(), 0, nil
		}
		lowerCapW = math.Max(lowerCapW, lo)
		slopeSecPerW += slope
	}
	return lowerCapW, slopeSecPerW, nil
}

// Lower walks every slice down to capW and stops there without crossing a
// breakpoint at capW. It stops early where the walk ends.
func (w *JobWalk) Lower(ctx context.Context, capW float64) error {
	for _, sw := range w.walks {
		if err := sw.Lower(ctx, capW); err != nil {
			return err
		}
	}
	return nil
}

// Demand lowers the walk through its flat top, the pieces whose slope is
// within satEps of zero, and returns the cap it stops at: the job's
// saturation demand, the highest cap below which watts buy time.
func (w *JobWalk) Demand(ctx context.Context) (float64, error) {
	for {
		lo, slope, err := w.Piece(ctx)
		if err != nil {
			return 0, err
		}
		if lo >= w.CapW() || math.Abs(slope) > satEps {
			return w.CapW(), nil
		}
		if err := w.Lower(ctx, lo); err != nil {
			return 0, err
		}
	}
}

// At reports the job's objective and makespan at the current cap as the
// slices' basic values stand, and the slope of the piece the walk is on,
// each the slices' sum (a slice that has just crossed out of a flat piece
// adds no slope), with no capture.
func (w *JobWalk) At() (objective, makespanS, slopeSecPerW float64) {
	for _, sw := range w.walks {
		o, m, s := sw.At()
		objective += o
		makespanS += m
		slopeSecPerW += s
	}
	return objective, makespanS, slopeSecPerW
}

// Schedule reads the job's schedule at the current cap off the walk: each
// slice's capture, certified on its LP as stated at that cap, merged as a
// decomposed solve merges its slices. Where a slice crossed out of a flat
// piece at this cap its capture is taken on that piece. Its Stats are the
// slices' walks'. The walk can go on afterwards.
func (w *JobWalk) Schedule(ctx context.Context) (*Schedule, error) {
	subs := make([]*Schedule, len(w.walks))
	for si, sw := range w.walks {
		sub, err := sw.schedule(ctx)
		if err != nil {
			return nil, fmt.Errorf("iteration slice %d: %w", si, err)
		}
		subs[si] = sub
	}
	return mergeSlices(w.js.g, w.js.slices, subs, w.CapW()), nil
}

// Close ends the walk and counts each slice's walk as one solve in the
// job's Stats.
func (w *JobWalk) Close() {
	for _, sw := range w.walks {
		if sw != nil {
			sw.Close()
		}
	}
}
