package dag

import (
	"strings"
	"testing"

	"powercap/internal/machine"
)

// digestGraph builds a small two-rank graph for digest sensitivity tests.
func digestGraph() *Graph {
	b := NewBuilder(2)
	b.Compute(0, 1.0, machine.DefaultShape(), "a")
	b.Compute(1, 2.0, machine.DefaultShape(), "b")
	b.Collective("allreduce")
	b.Compute(0, 0.5, machine.DefaultShape(), "a")
	b.Compute(1, 0.5, machine.DefaultShape(), "b")
	return b.Finalize()
}

func TestDigestDeterministic(t *testing.T) {
	a, b := digestGraph(), digestGraph()
	da, db := Digest(a), Digest(b)
	if da != db {
		t.Fatalf("identical graphs hash differently: %x vs %x", da, db)
	}
	if Digest(a) != da {
		t.Fatal("digest of the same graph value is not stable")
	}
}

// TestDigestSensitivity mutates each field family the LP depends on and
// asserts the digest moves: a cache keyed by this digest must never serve a
// schedule for a graph whose LP would differ.
func TestDigestSensitivity(t *testing.T) {
	base := Digest(digestGraph())
	mutations := map[string]func(*Graph){
		"work":           func(g *Graph) { g.Tasks[0].Work *= 1.0000001 },
		"shape-serial":   func(g *Graph) { g.Tasks[0].Shape.SerialFrac += 1e-9 },
		"shape-mem":      func(g *Graph) { g.Tasks[0].Shape.MemFrac += 1e-9 },
		"shape-sat":      func(g *Graph) { g.Tasks[0].Shape.MemSatThreads++ },
		"shape-cont":     func(g *Graph) { g.Tasks[0].Shape.ContentionCoef += 1e-9 },
		"shape-intens":   func(g *Graph) { g.Tasks[0].Shape.Intensity -= 1e-9 },
		"class":          func(g *Graph) { g.Tasks[0].Class = "c" },
		"rank":           func(g *Graph) { g.Tasks[0].Rank = 1 },
		"iteration":      func(g *Graph) { g.Tasks[0].Iteration++ },
		"msg-fixeddur":   func(g *Graph) { g.Tasks[len(g.Tasks)-1].FixedDur += 1e-9 },
		"vertex-kind":    func(g *Graph) { g.Vertices[2].Kind = VRecv },
		"vertex-bound":   func(g *Graph) { g.Vertices[2].IterBoundary = !g.Vertices[2].IterBoundary },
		"vertex-iter":    func(g *Graph) { g.Vertices[2].Iteration++ },
		"numranks":       func(g *Graph) { g.NumRanks++ },
		"label":          func(g *Graph) { g.Vertices[0].Label += "x" },
		"negative-zero":  func(g *Graph) { g.Tasks[0].Work = 0.0; g.Tasks[1].Work = negZero() },
		"edge-endpoints": func(g *Graph) { g.Tasks[0].Src, g.Tasks[0].Dst = g.Tasks[0].Dst, g.Tasks[0].Src },
	}
	seen := map[[32]byte]string{}
	for name, mutate := range mutations {
		g := digestGraph()
		mutate(g)
		d := Digest(g)
		if d == base {
			t.Errorf("mutation %q did not change the digest", name)
		}
		if prev, dup := seen[d]; dup {
			t.Errorf("mutations %q and %q collide", name, prev)
		}
		seen[d] = name
	}
}

// negZero returns -0.0 without tripping vet's literal checks.
func negZero() float64 {
	z := 0.0
	return -z
}

// TestDigestLabelBoundaries guards the length-prefix framing: moving a byte
// across a field boundary must not alias.
func TestDigestLabelBoundaries(t *testing.T) {
	a, b := digestGraph(), digestGraph()
	a.Vertices[0].Label, a.Vertices[1].Label = "ab", ""
	b.Vertices[0].Label, b.Vertices[1].Label = "a", "b"
	if Digest(a) == Digest(b) {
		t.Fatal("label framing aliases across vertex boundary")
	}
}

// TestDigestChunking: the encoder's buffer boundaries are invisible. An
// empty graph (the smallest buffer), labels and classes longer than a
// chunk, and records straddling chunk boundaries hash as the streaming
// reference does.
func TestDigestChunking(t *testing.T) {
	empty := &Graph{NumRanks: 1}
	if got, want := Digest(empty), StreamDigest(empty); got != want {
		t.Errorf("empty graph: Digest %x, streaming reference %x", got, want)
	}
	for _, n := range []int{encoderChunk - 1, encoderChunk, 3*encoderChunk + 5} {
		g := digestGraph()
		g.Vertices[1].Label = strings.Repeat("v", n)
		g.Tasks[0].Class = strings.Repeat("c", n+1)
		if got, want := Digest(g), StreamDigest(g); got != want {
			t.Errorf("strings of %d bytes: Digest %x, streaming reference %x", n, got, want)
		}
	}
}
