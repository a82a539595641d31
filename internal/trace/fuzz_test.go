package trace

import (
	"bytes"
	"encoding/json"
	"testing"

	"powercap/internal/dag"
	"powercap/internal/machine"
)

// seedTrace is a small valid trace (two ranks, one message, one collective)
// used as the fuzz corpus anchor.
func seedTrace() []byte {
	b := dag.NewBuilder(2)
	sh := machine.DefaultShape()
	b.Compute(0, 0.5, sh, "w")
	b.Compute(1, 0.7, sh, "w")
	b.Send(0, 1, 4096)
	b.Recv(1, 0)
	b.Collective("sync")
	g := b.Finalize()
	var buf bytes.Buffer
	if err := Write(&buf, "seed", g, []float64{1.0, 0.98}); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

// FuzzRead feeds arbitrary bytes to the trace parser. The contract: Read
// either rejects the input with an error, or returns a graph that passes
// Validate and survives a Write/Read round trip with an identical canonical
// digest. It must never panic and never accept a structurally broken graph.
func FuzzRead(f *testing.F) {
	f.Add(seedTrace())
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"version":1,"num_ranks":1,"vertices":[],"tasks":[]}`))
	f.Add([]byte(`{"version":1,"num_ranks":2,"vertices":[{"id":0,"kind":"init","rank":-1},{"id":1,"kind":"send","rank":0},{"id":2,"kind":"finalize","rank":-1}],"tasks":[]}`))
	f.Add([]byte(`{"version":1,"num_ranks":1,"vertices":[{"id":0,"kind":"init","rank":-1},{"id":1,"kind":"finalize","rank":-1}],"tasks":[{"id":0,"kind":"compute","rank":0,"src":1,"dst":0}]}`))
	f.Add([]byte(`not json`))
	// No tasks array: Write once emitted "tasks": null for it, which Read
	// rejects.
	f.Add([]byte(`{"version":1,"num_ranks":1,"vertices":[{"id":0,"kind":"init","rAnk":-0},{"id":1,"kind":"finalize"}]}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		g, eff, err := Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		if verr := g.Validate(); verr != nil {
			t.Fatalf("Read accepted an invalid graph: %v", verr)
		}
		var out bytes.Buffer
		if werr := Write(&out, "roundtrip", g, eff); werr != nil {
			t.Fatalf("Write failed on accepted graph: %v", werr)
		}
		g2, _, rerr := Read(&out)
		if rerr != nil {
			t.Fatalf("round trip rejected: %v", rerr)
		}
		if dag.Digest(g) != dag.Digest(g2) {
			t.Fatal("round trip changed the canonical digest")
		}
	})
}

// FuzzStream drives the streaming decoder directly: NewStream either
// rejects the header, or the record iteration runs to completion without
// panicking; and whenever the streaming path accepts an input, the
// monolithic File decode must accept it too and produce the identical
// graph (the stream is strictly pickier — it additionally requires the
// canonical field order — never looser).
func FuzzStream(f *testing.F) {
	f.Add(seedTrace())
	f.Add([]byte(`{"version":1,"num_ranks":1,"vertices":[],"tasks":[]}`))
	f.Add([]byte(`{"version":99,"num_ranks":1,"vertices":[],"tasks":[]}`))
	f.Add([]byte(`{"num_ranks":1,"vertices":[]}`))
	f.Add([]byte(`{"version":1,"num_ranks":2,"eff_scale":[1.0,0.95],"vertices":[],"tasks":[]}`))
	f.Add([]byte(`{"version":1,"num_ranks":1,"tasks":[],"vertices":[]}`))
	f.Add([]byte(`{"version":1,"num_ranks":1,"vertices":[{"id":0,"kind":"init","rank":-1}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		g, eff, err := Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		if verr := g.Validate(); verr != nil {
			t.Fatalf("stream accepted an invalid graph: %v", verr)
		}
		var file File
		dec := json.NewDecoder(bytes.NewReader(data))
		dec.DisallowUnknownFields()
		if derr := dec.Decode(&file); derr != nil {
			t.Fatalf("stream accepted input the File decode rejects: %v", derr)
		}
		g2, eff2, derr := Decode(&file)
		if derr != nil {
			t.Fatalf("stream accepted input Decode rejects: %v", derr)
		}
		if dag.Digest(g) != dag.Digest(g2) {
			t.Fatal("stream and monolithic decode disagree on the graph")
		}
		if len(eff) != len(eff2) {
			t.Fatalf("eff scale mismatch: %d vs %d entries", len(eff), len(eff2))
		}
	})
}
