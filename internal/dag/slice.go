package dag

import (
	"fmt"
	"slices"
)

// IterationSlice extracts the subgraph of one application iteration as a
// standalone Graph: the opening Pcontrol (or Init) vertex becomes the
// slice's Init, the closing Pcontrol (or Finalize) becomes its Finalize,
// and only tasks belonging to the iteration are retained.
//
// The paper's benchmarks were instrumented with MPI_Pcontrol at iteration
// boundaries precisely "to simplify LP data processing" (Sec. 5.2): because
// a Pcontrol boundary is a global synchronization point in these workloads,
// the job-level LP decomposes exactly into per-iteration LPs whose
// makespans add up, keeping each solve at a tractable size.
//
// TaskMap maps the slice's task IDs back to the original graph's.
type IterationSlice struct {
	Graph   *Graph
	TaskMap []TaskID // slice task ID → original task ID
}

// SliceIteration extracts iteration iter (use -1 for the prologue before
// the first Pcontrol).
func SliceIteration(g *Graph, iter int) (*IterationSlice, error) {
	vmap := make(map[VertexID]VertexID)
	sub := &Graph{NumRanks: g.NumRanks}

	addVertex := func(orig Vertex, kind VertexKind) VertexID {
		id := VertexID(len(sub.Vertices))
		nv := orig
		nv.ID = id
		nv.Kind = kind
		sub.Vertices = append(sub.Vertices, nv)
		vmap[orig.ID] = id
		return id
	}

	// Locate the opening and closing boundary vertices.
	var open, close_ *Vertex
	for i := range g.Vertices {
		v := &g.Vertices[i]
		switch {
		case iter == -1 && v.Kind == VInit:
			open = v
		case v.IterBoundary && v.Iteration == iter:
			open = v
		}
		if close_ == nil {
			if v.IterBoundary && v.Iteration == iter+1 {
				close_ = v
			}
		}
	}
	if close_ == nil {
		for i := range g.Vertices {
			if g.Vertices[i].Kind == VFinalize {
				close_ = &g.Vertices[i]
			}
		}
	}
	if open == nil || close_ == nil {
		return nil, fmt.Errorf("dag: iteration %d not found", iter)
	}
	addVertex(*open, VInit)

	// Interior vertices of this iteration, in original order (preserves
	// topological compatibility since builder IDs increase along program
	// order).
	for i := range g.Vertices {
		v := &g.Vertices[i]
		if v.ID == open.ID || v.ID == close_.ID {
			continue
		}
		if v.Iteration == iter && !v.IterBoundary && v.Kind != VInit && v.Kind != VFinalize {
			addVertex(*v, v.Kind)
		}
	}
	addVertex(*close_, VFinalize)

	var taskMap []TaskID
	for _, t := range g.Tasks {
		if t.Iteration != iter {
			continue
		}
		src, okS := vmap[t.Src]
		dst, okD := vmap[t.Dst]
		if !okS || !okD {
			return nil, fmt.Errorf("dag: task %d of iteration %d crosses the slice boundary", t.ID, iter)
		}
		nt := t
		nt.ID = TaskID(len(sub.Tasks))
		nt.Src, nt.Dst = src, dst
		sub.Tasks = append(sub.Tasks, nt)
		taskMap = append(taskMap, t.ID)
	}
	if err := sub.Validate(); err != nil {
		return nil, fmt.Errorf("dag: slicing iteration %d: %w", iter, err)
	}
	return &IterationSlice{Graph: sub, TaskMap: taskMap}, nil
}

// SliceAll returns the slice of every iteration that holds tasks, in
// iteration order, the prologue (-1) first. Only those are sliced, so a
// graph whose iterations do not start at 0, such as a trace cut from the
// middle of a run, slices too, and a slice re-slices to itself. Every
// task lands in a slice or the call fails: an iteration no boundary opens
// (one below the prologue, say) is an error, not a dropped slice.
func SliceAll(g *Graph) ([]*IterationSlice, error) {
	held := map[int]bool{}
	var iters []int
	for _, t := range g.Tasks {
		if !held[t.Iteration] {
			held[t.Iteration] = true
			iters = append(iters, t.Iteration)
		}
	}
	slices.Sort(iters)
	var out []*IterationSlice
	for _, iter := range iters {
		s, err := SliceIteration(g, iter)
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}
