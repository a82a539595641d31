package trace

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"powercap/internal/core"
	"powercap/internal/dag"
	"powercap/internal/machine"
	"powercap/internal/workloads"
)

func TestRoundTripWorkload(t *testing.T) {
	for _, name := range workloads.Names() {
		w, err := workloads.ByName(name, workloads.Params{Ranks: 4, Iterations: 3, Seed: 2, WorkScale: 0.3})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := Write(&buf, w.Name, w.Graph, w.EffScale); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		g2, eff2, err := Read(&buf)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if g2.NumRanks != w.Graph.NumRanks || len(g2.Tasks) != len(w.Graph.Tasks) || len(g2.Vertices) != len(w.Graph.Vertices) {
			t.Fatalf("%s: shape mismatch after round trip", name)
		}
		for i := range w.Graph.Tasks {
			a, b := w.Graph.Tasks[i], g2.Tasks[i]
			if a.Kind != b.Kind || a.Work != b.Work || a.Shape != b.Shape ||
				a.Src != b.Src || a.Dst != b.Dst || a.Bytes != b.Bytes ||
				a.FixedDur != b.FixedDur || a.Class != b.Class || a.Iteration != b.Iteration {
				t.Fatalf("%s: task %d mismatch:\n%+v\n%+v", name, i, a, b)
			}
		}
		for i := range w.EffScale {
			if w.EffScale[i] != eff2[i] {
				t.Fatalf("%s: eff scale mismatch at %d", name, i)
			}
		}
	}
}

// TestRoundTripPreservesLPResult: the real invariant — the decoded trace
// must produce the exact same LP bound as the original graph.
func TestRoundTripPreservesLPResult(t *testing.T) {
	w := workloads.BT(workloads.Params{Ranks: 4, Iterations: 3, Seed: 5, WorkScale: 0.3})
	var buf bytes.Buffer
	if err := Write(&buf, "bt", w.Graph, w.EffScale); err != nil {
		t.Fatal(err)
	}
	g2, eff2, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	m := machine.Default()
	a, err := core.NewSolver(m, w.EffScale).SolveIterations(w.Graph, 160)
	if err != nil {
		t.Fatal(err)
	}
	b, err := core.NewSolver(m, eff2).SolveIterations(g2, 160)
	if err != nil {
		t.Fatal(err)
	}
	if a.MakespanS != b.MakespanS {
		t.Fatalf("LP bound changed across round trip: %v vs %v", a.MakespanS, b.MakespanS)
	}
}

func TestDecodeRejectsBadInput(t *testing.T) {
	cases := map[string]string{
		"bad version":    `{"version":99,"num_ranks":1,"vertices":[],"tasks":[]}`,
		"bad ranks":      `{"version":1,"num_ranks":0,"vertices":[],"tasks":[]}`,
		"bad kind":       `{"version":1,"num_ranks":1,"vertices":[{"id":0,"kind":"nope","rank":-1,"iteration":-1}],"tasks":[]}`,
		"unknown fields": `{"version":1,"num_ranks":1,"bogus":true,"vertices":[],"tasks":[]}`,
		"eff mismatch":   `{"version":1,"num_ranks":2,"eff_scale":[1.0],"vertices":[],"tasks":[]}`,
		"not json":       `hello`,
	}
	for name, in := range cases {
		if _, _, err := Read(strings.NewReader(in)); err == nil {
			t.Fatalf("%s: expected error", name)
		}
	}
}

// TestRoundTripWithoutTasks: graphs with no tasks survive Write → Read with
// the same canonical digest; Write emits empty arrays, never null.
func TestRoundTripWithoutTasks(t *testing.T) {
	cases := []struct{ name, in string }{
		{"no tasks array", `{"version":1,"num_ranks":1,"vertices":[{"id":0,"kind":"init","rAnk":-0},{"id":1,"kind":"finalize"}]}`},
		{"empty tasks array", `{"version":1,"num_ranks":2,"vertices":[{"id":0,"kind":"init","rank":-1},{"id":1,"kind":"finalize","rank":-1}],"tasks":[]}`},
	}
	for _, c := range cases {
		g, eff, err := Read(strings.NewReader(c.in))
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		var buf bytes.Buffer
		if err := Write(&buf, c.name, g, eff); err != nil {
			t.Fatalf("%s: write: %v", c.name, err)
		}
		if strings.Contains(buf.String(), "null") {
			t.Fatalf("%s: Write emitted null:\n%s", c.name, buf.String())
		}
		g2, _, err := Read(&buf)
		if err != nil {
			t.Fatalf("%s: round trip rejected: %v", c.name, err)
		}
		if dag.Digest(g) != dag.Digest(g2) {
			t.Fatalf("%s: round trip changed the canonical digest", c.name)
		}
	}
}

func TestDecodeRejectsMissingShape(t *testing.T) {
	in := `{"version":1,"num_ranks":1,
		"vertices":[
			{"id":0,"kind":"init","rank":-1,"iteration":-1},
			{"id":1,"kind":"finalize","rank":-1,"iteration":-1}],
		"tasks":[{"id":0,"kind":"compute","rank":0,"src":0,"dst":1,"work":1}]}`
	if _, _, err := Read(strings.NewReader(in)); err == nil || !strings.Contains(err.Error(), "shape") {
		t.Fatalf("expected missing-shape error, got %v", err)
	}
}

func TestDecodeRejectsStructurallyInvalidGraph(t *testing.T) {
	// Task referencing an out-of-range vertex must be caught by Validate.
	in := `{"version":1,"num_ranks":1,
		"vertices":[
			{"id":0,"kind":"init","rank":-1,"iteration":-1},
			{"id":1,"kind":"finalize","rank":-1,"iteration":-1}],
		"tasks":[{"id":0,"kind":"message","rank":0,"src":0,"dst":9,"fixed_dur":0.1}]}`
	if _, _, err := Read(strings.NewReader(in)); err == nil {
		t.Fatal("expected validation error")
	}
}

func TestPropertyRandomGraphRoundTrip(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nr := 2 + rng.Intn(3)
		b := dag.NewBuilder(nr)
		sh := machine.Shape{
			SerialFrac:     rng.Float64() * 0.1,
			MemFrac:        rng.Float64() * 0.4,
			MemSatThreads:  1 + rng.Intn(8),
			ContentionCoef: rng.Float64() * 0.05,
			Intensity:      0.5 + rng.Float64()*0.5,
		}
		for it := 0; it < 1+rng.Intn(3); it++ {
			b.Pcontrol()
			for r := 0; r < nr; r++ {
				b.Compute(r, rng.Float64(), sh, "w")
			}
			if rng.Intn(2) == 0 && nr > 1 {
				for r := 0; r < nr; r++ {
					b.Isend(r, (r+1)%nr, 1+rng.Intn(1<<20))
				}
				for r := 0; r < nr; r++ {
					b.Recv(r, (r-1+nr)%nr)
				}
			}
			b.Collective("s")
		}
		g := b.Finalize()
		var buf bytes.Buffer
		if err := Write(&buf, "rnd", g, nil); err != nil {
			return false
		}
		g2, _, err := Read(&buf)
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		if len(g2.Tasks) != len(g.Tasks) {
			return false
		}
		for i := range g.Tasks {
			if g.Tasks[i] != g2.Tasks[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
