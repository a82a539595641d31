// Package dag models hybrid MPI + OpenMP applications as the directed
// acyclic graphs the paper's formulations consume (Sec. 3.1, Fig. 2):
// vertices correspond to MPI function calls and edges correspond either to
// computation tasks between two consecutive MPI calls on the same process
// (tunable via DVFS + thread count) or to message transmissions between
// processes (fixed duration, a linear function of message size).
//
// Graphs are constructed with a Builder whose methods mirror the MPI calls
// of a traced program (Compute, Collective, Send/Recv, Isend/Wait,
// Pcontrol), so workload generators read like the programs they stand in
// for.
package dag

import (
	"context"
	"fmt"
	"sync/atomic"

	"powercap/internal/machine"
	"powercap/internal/obs"
)

// VertexID indexes a vertex within its Graph.
type VertexID int

// TaskID indexes a task (edge) within its Graph.
type TaskID int

// VertexKind classifies the MPI call a vertex represents.
type VertexKind int

// Vertex kinds.
const (
	VInit VertexKind = iota
	VFinalize
	VCollective
	VSend
	VIsend
	VRecv
	VWait
	VPcontrol
)

// String names the vertex kind like the MPI call it stands for.
func (k VertexKind) String() string {
	switch k {
	case VInit:
		return "Init"
	case VFinalize:
		return "Finalize"
	case VCollective:
		return "Collective"
	case VSend:
		return "Send"
	case VIsend:
		return "Isend"
	case VRecv:
		return "Recv"
	case VWait:
		return "Wait"
	case VPcontrol:
		return "Pcontrol"
	default:
		return fmt.Sprintf("VertexKind(%d)", int(k))
	}
}

// Vertex is an MPI call event. Collective (and Init/Finalize) vertices are
// shared by every rank and carry Rank = AllRanks.
type Vertex struct {
	ID   VertexID
	Kind VertexKind
	// Rank owning the call, or AllRanks for global synchronization points.
	Rank int
	// Iteration is the application iteration (delimited by Pcontrol calls)
	// the vertex belongs to; -1 before the first Pcontrol.
	Iteration int
	// IterBoundary marks Pcontrol vertices, which delimit the
	// per-iteration subproblems the LP decomposes over.
	IterBoundary bool
	Label        string
}

// AllRanks is the Rank value of globally shared vertices.
const AllRanks = -1

// TaskKind distinguishes the two edge types of the application DAG.
type TaskKind int

// Task kinds.
const (
	// Compute is an OpenMP region between two MPI calls on one rank; its
	// duration and power depend on the chosen configuration.
	Compute TaskKind = iota
	// Message is a point-to-point transmission between two ranks; its
	// duration is fixed (α + β·bytes) and it draws no socket power (NIC
	// and switch power are outside the socket-level RAPL domain the
	// paper constrains).
	Message
)

// String names the task kind.
func (k TaskKind) String() string {
	if k == Compute {
		return "compute"
	}
	return "message"
}

// Task is a DAG edge.
type Task struct {
	ID   TaskID
	Kind TaskKind
	// Rank executing a compute task, or the sending rank of a message.
	Rank int
	Src  VertexID
	Dst  VertexID

	// Compute fields.
	Work  float64       // seconds at one thread, max frequency
	Shape machine.Shape // response surface of this task
	// Class groups recurring tasks of the same code region; Conductor's
	// configuration exploration profiles per class (Sec. 4.2), and the
	// LP shares Pareto frontiers within a class.
	Class string
	// Iteration the task belongs to (-1 before the first Pcontrol).
	Iteration int

	// Message fields.
	Bytes    int
	FixedDur float64
}

// Graph is the application DAG.
type Graph struct {
	NumRanks int
	Vertices []Vertex
	Tasks    []Task

	// adj caches the edge lists, built on first read and rebuilt once the
	// graph has grown. A published snapshot is never mutated, so readers
	// on any number of goroutines share it without locking.
	adj atomic.Pointer[adjacency]
}

// adjacency is an immutable snapshot of a graph's edge lists, stamped
// with the vertex and task counts it was built from.
type adjacency struct {
	vertices, tasks int
	out, in         [][]TaskID
}

// Vertex returns the vertex with the given id.
func (g *Graph) Vertex(id VertexID) *Vertex { return &g.Vertices[id] }

// Task returns the task with the given id.
func (g *Graph) Task(id TaskID) *Task { return &g.Tasks[id] }

// edges returns the edge lists of the graph as it stands, building a new
// snapshot when the vertex or task count differs from the cached one's.
// Two goroutines that miss together each build an identical snapshot;
// whichever is stored last serves later reads.
func (g *Graph) edges() *adjacency {
	if a := g.adj.Load(); a != nil && a.vertices == len(g.Vertices) && a.tasks == len(g.Tasks) {
		return a
	}
	a := &adjacency{
		vertices: len(g.Vertices),
		tasks:    len(g.Tasks),
		out:      make([][]TaskID, len(g.Vertices)),
		in:       make([][]TaskID, len(g.Vertices)),
	}
	for _, t := range g.Tasks {
		a.out[t.Src] = append(a.out[t.Src], t.ID)
		a.in[t.Dst] = append(a.in[t.Dst], t.ID)
	}
	g.adj.Store(a)
	return a
}

// TasksFrom lists tasks whose source is v.
func (g *Graph) TasksFrom(v VertexID) []TaskID {
	return g.edges().out[v]
}

// TasksInto lists tasks whose destination is v.
func (g *Graph) TasksInto(v VertexID) []TaskID {
	return g.edges().in[v]
}

// TopoVertices returns the vertices in a topological order, or an error if
// the graph contains a cycle (which would indicate a builder bug: message
// matching and per-rank chaining can only create forward edges).
func (g *Graph) TopoVertices() ([]VertexID, error) {
	out := g.edges().out
	indeg := make([]int, len(g.Vertices))
	for _, t := range g.Tasks {
		indeg[t.Dst]++
	}
	queue := make([]VertexID, 0, len(g.Vertices))
	for i := range g.Vertices {
		if indeg[i] == 0 {
			queue = append(queue, VertexID(i))
		}
	}
	order := make([]VertexID, 0, len(g.Vertices))
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		order = append(order, v)
		for _, tid := range out[v] {
			d := g.Tasks[tid].Dst
			indeg[d]--
			if indeg[d] == 0 {
				queue = append(queue, d)
			}
		}
	}
	if len(order) != len(g.Vertices) {
		return nil, fmt.Errorf("dag: cycle detected (%d of %d vertices ordered)", len(order), len(g.Vertices))
	}
	return order, nil
}

// Validate checks structural invariants: edge endpoints in range, no task
// labelled below the prologue's iteration (-1), compute tasks owned by a
// valid rank, message endpoints distinct, message edges connecting
// Send/Isend to Recv vertices of different ranks with exact one-to-one
// matching, acyclicity, and exactly one Init and one Finalize vertex.
func (g *Graph) Validate() error {
	return g.ValidateCtx(context.Background())
}

// ValidateCtx is Validate recorded as a dag.validate obs span under ctx.
func (g *Graph) ValidateCtx(ctx context.Context) error {
	_, span := obs.Start(ctx, "dag.validate")
	defer span.End()
	span.SetAttr("vertices", len(g.Vertices))
	span.SetAttr("tasks", len(g.Tasks))
	inits, finals := 0, 0
	for _, v := range g.Vertices {
		switch v.Kind {
		case VInit:
			inits++
		case VFinalize:
			finals++
		}
		if v.Rank != AllRanks && (v.Rank < 0 || v.Rank >= g.NumRanks) {
			return fmt.Errorf("dag: vertex %d has invalid rank %d", v.ID, v.Rank)
		}
	}
	if inits != 1 || finals != 1 {
		return fmt.Errorf("dag: want exactly one Init and one Finalize, got %d/%d", inits, finals)
	}
	for _, t := range g.Tasks {
		if int(t.Src) < 0 || int(t.Src) >= len(g.Vertices) || int(t.Dst) < 0 || int(t.Dst) >= len(g.Vertices) {
			return fmt.Errorf("dag: task %d has out-of-range endpoints", t.ID)
		}
		if t.Src == t.Dst {
			return fmt.Errorf("dag: task %d is a self-loop on vertex %d", t.ID, t.Src)
		}
		if t.Iteration < -1 {
			return fmt.Errorf("dag: task %d has iteration %d, below the prologue (-1)", t.ID, t.Iteration)
		}
		switch t.Kind {
		case Compute:
			if t.Rank < 0 || t.Rank >= g.NumRanks {
				return fmt.Errorf("dag: compute task %d has invalid rank %d", t.ID, t.Rank)
			}
			if t.Work < 0 {
				return fmt.Errorf("dag: compute task %d has negative work", t.ID)
			}
		case Message:
			if t.FixedDur < 0 {
				return fmt.Errorf("dag: message task %d has negative duration", t.ID)
			}
			if t.Rank < 0 || t.Rank >= g.NumRanks {
				return fmt.Errorf("dag: message task %d has invalid sender rank %d", t.ID, t.Rank)
			}
			src, dst := g.Vertices[t.Src], g.Vertices[t.Dst]
			if src.Kind != VSend && src.Kind != VIsend {
				return fmt.Errorf("dag: message task %d leaves a %s vertex, want Send/Isend", t.ID, src.Kind)
			}
			if dst.Kind != VRecv {
				return fmt.Errorf("dag: message task %d enters a %s vertex, want Recv", t.ID, dst.Kind)
			}
			if src.Rank == dst.Rank {
				return fmt.Errorf("dag: message task %d is a self-send on rank %d", t.ID, src.Rank)
			}
		}
	}
	// Message matching: every send vertex carries exactly one outgoing
	// message edge and every recv vertex exactly one incoming edge. An
	// unmatched send (or an edge attached to the wrong call kind) marks a
	// truncated or hand-mangled trace that would otherwise surface deep in
	// the problem build.
	msgOut := make(map[VertexID]int)
	msgIn := make(map[VertexID]int)
	for _, t := range g.Tasks {
		if t.Kind == Message {
			msgOut[t.Src]++
			msgIn[t.Dst]++
		}
	}
	for _, v := range g.Vertices {
		switch v.Kind {
		case VSend, VIsend:
			if msgOut[v.ID] != 1 {
				return fmt.Errorf("dag: %s vertex %d has %d outgoing message edges, want 1 (unmatched send)", v.Kind, v.ID, msgOut[v.ID])
			}
		case VRecv:
			if msgIn[v.ID] != 1 {
				return fmt.Errorf("dag: Recv vertex %d has %d incoming message edges, want 1 (unmatched recv)", v.ID, msgIn[v.ID])
			}
		}
	}
	if _, err := g.TopoVertices(); err != nil {
		return err
	}
	return nil
}

// ComputeTasks returns the IDs of all compute tasks, the objects the LP
// assigns configurations to.
func (g *Graph) ComputeTasks() []TaskID {
	var out []TaskID
	for _, t := range g.Tasks {
		if t.Kind == Compute {
			out = append(out, t.ID)
		}
	}
	return out
}

// Iterations returns the largest iteration index present, or -1 when the
// graph has no Pcontrol boundaries.
func (g *Graph) Iterations() int {
	max := -1
	for _, t := range g.Tasks {
		if t.Iteration > max {
			max = t.Iteration
		}
	}
	return max
}
