package dag_test

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"testing"

	"powercap/internal/dag"
	"powercap/internal/machine"
	"powercap/internal/trace"
	"powercap/internal/workloads"
)

// generated returns one graph from every generator: each benchmark proxy
// at the daemon benchmark's size (4 ranks × 6 iterations, work scale 0.3)
// and a synthetic trace.
func generated(t testing.TB) map[string]*dag.Graph {
	t.Helper()
	out := make(map[string]*dag.Graph)
	for _, name := range workloads.Names() {
		w, err := workloads.ByName(name, workloads.Params{Ranks: 4, Iterations: 6, Seed: 1, WorkScale: 0.3})
		if err != nil {
			t.Fatal(err)
		}
		out[name] = w.Graph
	}
	out["Synthetic"] = workloads.Synthetic(workloads.SynthParams{Ranks: 4, Events: 600, Seed: 2}).Graph
	return out
}

// TestDigestMatchesStream: the one-pass Digest hashes the byte stream the
// streaming reference writes field by field, on every generator's graph
// and on each iteration slice of it.
func TestDigestMatchesStream(t *testing.T) {
	for name, g := range generated(t) {
		if got, want := dag.Digest(g), dag.StreamDigest(g); got != want {
			t.Errorf("%s: Digest %x, streaming reference %x", name, got, want)
		}
		slices, err := dag.SliceAll(g)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for i, s := range slices {
			if got, want := dag.Digest(s.Graph), dag.StreamDigest(s.Graph); got != want {
				t.Errorf("%s slice %d: Digest %x, streaming reference %x", name, i, got, want)
			}
		}
	}
}

// TestDigestGolden pins absolute digests, recorded with the streaming
// encoder. The reference comparison alone would pass a change made to both
// encoders at once; these values would not, and every schedule key and
// cached graph_digest derives from them.
func TestDigestGolden(t *testing.T) {
	golden := map[string]string{
		"CoMD":      "acc4450088f8d96387c6b80ef8f30d46eb2189d73efe073c3fcf812028766a88",
		"SP":        "479eedf46b53486171b13562a1f2105ec373dcc229be5152e69050263e46e880",
		"Synthetic": "ef0cd29b6ac502de3012d1344e8d2c667ea405625bb68f11caa8c047fa850cb9",
	}
	graphs := generated(t)
	for name, want := range golden {
		d := dag.Digest(graphs[name])
		if got := hex.EncodeToString(d[:]); got != want {
			t.Errorf("%s: digest %s, golden %s", name, got, want)
		}
	}
}

// buildFromBytes interprets prog as a small MPI program and replays it on a
// Builder: computes with task classes, labeled collectives on AllRanks
// vertices, Pcontrol iteration boundaries after the iteration −1 prologue,
// and point-to-point messages. Send/Recv matching is tracked in a slice
// (deterministic order), and every pending send is drained before
// Finalize, so each byte string maps to exactly one well-formed graph.
func buildFromBytes(prog []byte) *dag.Graph {
	if len(prog) < 2 {
		return nil
	}
	nr := 2 + int(prog[0])%3 // 2..4 ranks
	b := dag.NewBuilder(nr)
	sh := machine.DefaultShape()
	type ps struct{ src, dst int }
	var pend []ps

	limit := len(prog)
	if limit > 200 {
		limit = 200
	}
	for i := 1; i < limit; i++ {
		op := prog[i]
		r := int(op>>4) % nr
		switch op % 4 {
		case 0:
			b.Compute(r, float64(op%16)*0.01, sh, fmt.Sprintf("c%d", op%3))
		case 1:
			switch op >> 6 {
			case 0:
				b.Collective("")
			case 1:
				b.Pcontrol()
			default:
				b.Collective(fmt.Sprintf("l%d", op>>5))
			}
		case 2:
			dst := (r + 1 + int(op>>2)%(nr-1)) % nr
			b.Isend(r, dst, int(op)*64)
			pend = append(pend, ps{r, dst})
		case 3:
			if len(pend) > 0 {
				p := pend[0]
				pend = pend[1:]
				b.Recv(p.dst, p.src)
			}
		}
	}
	for _, p := range pend {
		b.Recv(p.dst, p.src)
	}
	return b.Finalize()
}

// FuzzDigest checks the digest on trace-decoded graphs: a fuzzed program
// is built, written as a trace and read back. The decoded graph must
// validate and digest as the built graph did and as the streaming
// reference does, deterministically, and its digest must move when a
// task's work or a vertex's label changes — the properties the schedule
// cache's content addressing rests on.
func FuzzDigest(f *testing.F) {
	f.Add([]byte{0})
	f.Add([]byte{1, 0x10, 0x21, 0x05})
	f.Add([]byte{2, 0x12, 0x06, 0x07, 0x33, 0x0b, 0x42})
	f.Add([]byte{7, 0xfe, 0x22, 0x23, 0x01, 0x80, 0x91, 0xa2, 0xb3})
	f.Add([]byte{2, 0x40, 0x30, 0xc1, 0x14, 0x41, 0x22, 0x53, 0x81, 0x64, 0xe1})

	f.Fuzz(func(t *testing.T, prog []byte) {
		built := buildFromBytes(prog)
		if built == nil {
			return
		}
		var buf bytes.Buffer
		if err := trace.Write(&buf, "fuzz", built, nil); err != nil {
			t.Fatalf("write trace: %v", err)
		}
		g, _, err := trace.Read(&buf)
		if err != nil {
			t.Fatalf("read back a built graph: %v", err)
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("decoded graph invalid: %v", err)
		}
		d1 := dag.Digest(g)
		if d2 := dag.Digest(g); d2 != d1 {
			t.Fatal("digest is not deterministic")
		}
		if ref := dag.StreamDigest(g); d1 != ref {
			t.Fatalf("Digest %x, streaming reference %x", d1, ref)
		}
		if db := dag.Digest(built); d1 != db {
			t.Fatalf("trace round trip moved the digest: %x, built %x", d1, db)
		}
		if len(g.Tasks) > 0 {
			g.Tasks[0].Work += 1
			if dag.Digest(g) == d1 {
				t.Fatal("digest insensitive to task work")
			}
			g.Tasks[0].Work -= 1
		}
		g.Vertices[0].Label += "x"
		if dag.Digest(g) == d1 {
			t.Fatal("digest insensitive to vertex label")
		}
	})
}

// BenchmarkDigest digests the daemon benchmark's SP graph (4 ranks × 6
// iterations).
func BenchmarkDigest(b *testing.B) {
	w := workloads.SP(workloads.Params{Ranks: 4, Iterations: 6, Seed: 1, WorkScale: 0.3})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		digestSink = dag.Digest(w.Graph)
	}
}

var digestSink [32]byte
