// Package trace serializes application task graphs to a stable JSON
// format, the artifact an MPI tracing library would emit on the paper's
// pipeline (Sec. 3.1: "a directed acyclic graph representation of the
// application's computation and communication dependencies, which we
// obtain from an MPI tracing library").
//
// A trace file carries the DAG (vertices = MPI calls, edges = tasks and
// messages), each compute task's response shape, and the per-socket
// efficiency scales of the machine the trace was taken on — everything the
// LP needs to bound the application's power-constrained performance
// offline.
package trace

import (
	"context"
	"encoding/json"
	"fmt"
	"io"

	"powercap/internal/dag"
	"powercap/internal/machine"
	"powercap/internal/obs"
)

// FormatVersion identifies the trace schema; bump on incompatible change.
const FormatVersion = 1

// File is the on-disk representation of a traced application.
type File struct {
	Version  int    `json:"version"`
	Name     string `json:"name,omitempty"`
	NumRanks int    `json:"num_ranks"`
	// EffScale records per-socket power-efficiency multipliers measured
	// on the traced machine (empty = nominal sockets).
	EffScale []float64   `json:"eff_scale,omitempty"`
	Vertices []VertexRec `json:"vertices"`
	Tasks    []TaskRec   `json:"tasks"`
}

// VertexRec is one MPI call event.
type VertexRec struct {
	ID           int    `json:"id"`
	Kind         string `json:"kind"`
	Rank         int    `json:"rank"` // -1 = all ranks
	Iteration    int    `json:"iteration"`
	IterBoundary bool   `json:"iter_boundary,omitempty"`
	Label        string `json:"label,omitempty"`
}

// TaskRec is one DAG edge.
type TaskRec struct {
	ID        int    `json:"id"`
	Kind      string `json:"kind"` // "compute" or "message"
	Rank      int    `json:"rank"`
	Src       int    `json:"src"`
	Dst       int    `json:"dst"`
	Iteration int    `json:"iteration"`

	// Compute fields.
	Work  float64   `json:"work,omitempty"`
	Shape *ShapeRec `json:"shape,omitempty"`
	Class string    `json:"class,omitempty"`

	// Message fields.
	Bytes    int     `json:"bytes,omitempty"`
	FixedDur float64 `json:"fixed_dur,omitempty"`
}

// ShapeRec mirrors machine.Shape.
type ShapeRec struct {
	SerialFrac     float64 `json:"serial_frac"`
	MemFrac        float64 `json:"mem_frac"`
	MemSatThreads  int     `json:"mem_sat_threads"`
	ContentionCoef float64 `json:"contention_coef"`
	Intensity      float64 `json:"intensity"`
}

var vertexKindNames = map[dag.VertexKind]string{
	dag.VInit: "init", dag.VFinalize: "finalize", dag.VCollective: "collective",
	dag.VSend: "send", dag.VIsend: "isend", dag.VRecv: "recv",
	dag.VWait: "wait", dag.VPcontrol: "pcontrol",
}

func vertexKindOf(name string) (dag.VertexKind, error) {
	for k, n := range vertexKindNames {
		if n == name {
			return k, nil
		}
	}
	return 0, fmt.Errorf("trace: unknown vertex kind %q", name)
}

// Encode converts a graph (plus optional machine metadata) to a File. Its
// vertex and task arrays are never nil, so a graph without tasks writes
// "tasks": [], which Read accepts, rather than null.
func Encode(name string, g *dag.Graph, effScale []float64) *File {
	f := &File{
		Version:  FormatVersion,
		Name:     name,
		NumRanks: g.NumRanks,
		EffScale: append([]float64(nil), effScale...),
		Vertices: make([]VertexRec, 0, len(g.Vertices)),
		Tasks:    make([]TaskRec, 0, len(g.Tasks)),
	}
	for _, v := range g.Vertices {
		f.Vertices = append(f.Vertices, VertexRec{
			ID: int(v.ID), Kind: vertexKindNames[v.Kind], Rank: v.Rank,
			Iteration: v.Iteration, IterBoundary: v.IterBoundary, Label: v.Label,
		})
	}
	for _, t := range g.Tasks {
		rec := TaskRec{
			ID: int(t.ID), Rank: t.Rank,
			Src: int(t.Src), Dst: int(t.Dst), Iteration: t.Iteration,
		}
		if t.Kind == dag.Compute {
			rec.Kind = "compute"
			rec.Work = t.Work
			rec.Class = t.Class
			rec.Shape = &ShapeRec{
				SerialFrac:     t.Shape.SerialFrac,
				MemFrac:        t.Shape.MemFrac,
				MemSatThreads:  t.Shape.MemSatThreads,
				ContentionCoef: t.Shape.ContentionCoef,
				Intensity:      t.Shape.Intensity,
			}
		} else {
			rec.Kind = "message"
			rec.Bytes = t.Bytes
			rec.FixedDur = t.FixedDur
		}
		f.Tasks = append(f.Tasks, rec)
	}
	return f
}

// Decode reconstructs the graph from a File, validating structure.
func Decode(f *File) (*dag.Graph, []float64, error) {
	return DecodeCtx(context.Background(), f)
}

// DecodeCtx is Decode recorded as a trace.decode obs span (with the graph
// validation nested under it as dag.validate).
func DecodeCtx(ctx context.Context, f *File) (*dag.Graph, []float64, error) {
	ctx, span := obs.Start(ctx, "trace.decode")
	defer span.End()
	span.SetAttr("vertices", len(f.Vertices))
	span.SetAttr("tasks", len(f.Tasks))
	if f.Version != FormatVersion {
		return nil, nil, fmt.Errorf("trace: unsupported version %d (want %d)", f.Version, FormatVersion)
	}
	if f.NumRanks < 1 {
		return nil, nil, fmt.Errorf("trace: invalid rank count %d", f.NumRanks)
	}
	if len(f.EffScale) != 0 && len(f.EffScale) != f.NumRanks {
		return nil, nil, fmt.Errorf("trace: eff_scale has %d entries for %d ranks", len(f.EffScale), f.NumRanks)
	}
	g := &dag.Graph{NumRanks: f.NumRanks}
	for i, vr := range f.Vertices {
		v, err := decodeVertexRec(vr, i)
		if err != nil {
			return nil, nil, err
		}
		g.Vertices = append(g.Vertices, v)
	}
	for i, tr := range f.Tasks {
		t, err := decodeTaskRec(tr, i)
		if err != nil {
			return nil, nil, err
		}
		g.Tasks = append(g.Tasks, t)
	}
	if err := g.ValidateCtx(ctx); err != nil {
		return nil, nil, fmt.Errorf("trace: decoded graph invalid: %w", err)
	}
	return g, f.EffScale, nil
}

// decodeVertexRec converts one vertex record, enforcing dense sequential
// IDs (record i must carry id i).
func decodeVertexRec(vr VertexRec, i int) (dag.Vertex, error) {
	if vr.ID != i {
		return dag.Vertex{}, fmt.Errorf("trace: vertex %d out of order (id %d)", i, vr.ID)
	}
	kind, err := vertexKindOf(vr.Kind)
	if err != nil {
		return dag.Vertex{}, err
	}
	return dag.Vertex{
		ID: dag.VertexID(vr.ID), Kind: kind, Rank: vr.Rank,
		Iteration: vr.Iteration, IterBoundary: vr.IterBoundary, Label: vr.Label,
	}, nil
}

// decodeTaskRec converts one task record, enforcing dense sequential IDs.
func decodeTaskRec(tr TaskRec, i int) (dag.Task, error) {
	if tr.ID != i {
		return dag.Task{}, fmt.Errorf("trace: task %d out of order (id %d)", i, tr.ID)
	}
	t := dag.Task{
		ID: dag.TaskID(tr.ID), Rank: tr.Rank,
		Src: dag.VertexID(tr.Src), Dst: dag.VertexID(tr.Dst),
		Iteration: tr.Iteration,
	}
	switch tr.Kind {
	case "compute":
		t.Kind = dag.Compute
		t.Work = tr.Work
		t.Class = tr.Class
		if tr.Shape == nil {
			return dag.Task{}, fmt.Errorf("trace: compute task %d missing shape", tr.ID)
		}
		t.Shape = machine.Shape{
			SerialFrac:     tr.Shape.SerialFrac,
			MemFrac:        tr.Shape.MemFrac,
			MemSatThreads:  tr.Shape.MemSatThreads,
			ContentionCoef: tr.Shape.ContentionCoef,
			Intensity:      tr.Shape.Intensity,
		}
	case "message":
		t.Kind = dag.Message
		t.Bytes = tr.Bytes
		t.FixedDur = tr.FixedDur
	default:
		return dag.Task{}, fmt.Errorf("trace: task %d has unknown kind %q", tr.ID, tr.Kind)
	}
	return t, nil
}

// Write serializes the graph as indented JSON.
func Write(w io.Writer, name string, g *dag.Graph, effScale []float64) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(Encode(name, g, effScale))
}

// Read parses a JSON trace and reconstructs the graph. It is a thin
// wrapper over the streaming decoder: the header is validated before
// either array is touched, and records are decoded one at a time instead
// of buffering the whole file.
func Read(r io.Reader) (*dag.Graph, []float64, error) {
	return ReadCtx(context.Background(), r)
}

// ReadCtx is Read recorded as a trace.parse obs span, with the graph
// validation (dag.validate) nested under it.
func ReadCtx(ctx context.Context, r io.Reader) (*dag.Graph, []float64, error) {
	ctx, span := obs.Start(ctx, "trace.parse")
	defer span.End()
	st, err := NewStream(r)
	if err != nil {
		return nil, nil, err
	}
	g := &dag.Graph{NumRanks: st.Header().NumRanks}
	for {
		vr, ok, err := st.NextVertex()
		if err != nil {
			return nil, nil, err
		}
		if !ok {
			break
		}
		v, err := decodeVertexRec(vr, len(g.Vertices))
		if err != nil {
			return nil, nil, err
		}
		g.Vertices = append(g.Vertices, v)
	}
	for {
		tr, ok, err := st.NextTask()
		if err != nil {
			return nil, nil, err
		}
		if !ok {
			break
		}
		t, err := decodeTaskRec(tr, len(g.Tasks))
		if err != nil {
			return nil, nil, err
		}
		g.Tasks = append(g.Tasks, t)
	}
	span.SetAttr("vertices", len(g.Vertices))
	span.SetAttr("tasks", len(g.Tasks))
	if err := g.ValidateCtx(ctx); err != nil {
		return nil, nil, fmt.Errorf("trace: decoded graph invalid: %w", err)
	}
	return g, st.Header().EffScale, nil
}
