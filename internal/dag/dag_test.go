package dag

import (
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"powercap/internal/machine"
)

func simpleShape() machine.Shape { return machine.DefaultShape() }

func TestBuilderSimpleCollectiveProgram(t *testing.T) {
	b := NewBuilder(2)
	b.Compute(0, 1.0, simpleShape(), "work")
	b.Compute(1, 1.5, simpleShape(), "work")
	b.Collective("allreduce")
	b.Compute(0, 0.5, simpleShape(), "work")
	b.Compute(1, 0.5, simpleShape(), "work")
	g := b.Finalize()

	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	// Vertices: Init, collective, Finalize = 3.
	if len(g.Vertices) != 3 {
		t.Fatalf("got %d vertices, want 3", len(g.Vertices))
	}
	// Tasks: 2 into collective, 2 into finalize.
	if len(g.Tasks) != 4 {
		t.Fatalf("got %d tasks, want 4", len(g.Tasks))
	}
	for _, task := range g.Tasks {
		if task.Kind != Compute {
			t.Fatalf("unexpected non-compute task %v", task)
		}
	}
}

func TestBuilderMergesConsecutiveCompute(t *testing.T) {
	b := NewBuilder(1)
	b.Compute(0, 1.0, simpleShape(), "a")
	b.Compute(0, 2.0, simpleShape(), "b")
	g := b.Finalize()
	if len(g.Tasks) != 1 {
		t.Fatalf("got %d tasks, want 1 (merged)", len(g.Tasks))
	}
	if g.Tasks[0].Work != 3.0 {
		t.Fatalf("merged work = %v, want 3", g.Tasks[0].Work)
	}
	if g.Tasks[0].Class != "a" {
		t.Fatalf("merged class = %q, want first class", g.Tasks[0].Class)
	}
}

func TestBuilderPointToPoint(t *testing.T) {
	// Figure 2's program: r0 computes, Isends to r1, computes, Waits,
	// computes; r1 computes, Recvs, computes.
	b := NewBuilder(2)
	b.Compute(0, 1.0, simpleShape(), "A1")
	b.Isend(0, 1, 1<<20)
	b.Compute(0, 1.0, simpleShape(), "A2")
	b.Wait(0)
	b.Compute(0, 1.0, simpleShape(), "A3")
	b.Compute(1, 2.0, simpleShape(), "A4")
	b.Recv(1, 0)
	b.Compute(1, 1.0, simpleShape(), "A5")
	g := b.Finalize()

	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	// Vertices: Init, Isend, Wait, Recv, Finalize = 5.
	if len(g.Vertices) != 5 {
		t.Fatalf("got %d vertices, want 5", len(g.Vertices))
	}
	msgs := 0
	for _, task := range g.Tasks {
		if task.Kind == Message {
			msgs++
			if task.FixedDur != MessageDuration(1<<20) {
				t.Fatalf("message duration %v, want %v", task.FixedDur, MessageDuration(1<<20))
			}
			if task.Bytes != 1<<20 {
				t.Fatalf("message bytes = %d", task.Bytes)
			}
		}
	}
	if msgs != 1 {
		t.Fatalf("got %d messages, want 1", msgs)
	}
	// Compute tasks: A1, A2, A3 on r0; A4, A5 on r1 = 5.
	if len(g.ComputeTasks()) != 5 {
		t.Fatalf("got %d compute tasks, want 5", len(g.ComputeTasks()))
	}
}

func TestBuilderRecvWithoutSendPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for unmatched Recv")
		}
	}()
	b := NewBuilder(2)
	b.Recv(1, 0)
}

func TestBuilderUnmatchedSendPanicsAtFinalize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for unmatched send at Finalize")
		}
	}()
	b := NewBuilder(2)
	b.Isend(0, 1, 100)
	b.Finalize()
}

func TestBuilderSendToSelfPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for self-send")
		}
	}()
	b := NewBuilder(2)
	b.Send(0, 0, 10)
}

func TestBuilderMessageMatchingIsFIFO(t *testing.T) {
	// Two sends 0→1; receives must match in order (non-overtaking).
	b := NewBuilder(2)
	s1 := b.Isend(0, 1, 100)
	s2 := b.Isend(0, 1, 200)
	r1 := b.Recv(1, 0)
	r2 := b.Recv(1, 0)
	g := b.Finalize()
	var m1, m2 *Task
	for i := range g.Tasks {
		task := &g.Tasks[i]
		if task.Kind != Message {
			continue
		}
		if task.Dst == r1 {
			m1 = task
		}
		if task.Dst == r2 {
			m2 = task
		}
	}
	if m1 == nil || m2 == nil {
		t.Fatal("missing message edges")
	}
	if m1.Src != s1 || m1.Bytes != 100 {
		t.Fatalf("first recv matched %v (%d bytes), want first send", m1.Src, m1.Bytes)
	}
	if m2.Src != s2 || m2.Bytes != 200 {
		t.Fatalf("second recv matched %v (%d bytes), want second send", m2.Src, m2.Bytes)
	}
}

func TestPcontrolIterations(t *testing.T) {
	b := NewBuilder(2)
	for iter := 0; iter < 3; iter++ {
		b.Pcontrol()
		b.Compute(0, 1, simpleShape(), "step")
		b.Compute(1, 1, simpleShape(), "step")
		b.Collective("reduce")
	}
	g := b.Finalize()
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.Iterations() != 2 {
		t.Fatalf("Iterations() = %d, want 2", g.Iterations())
	}
	// Tasks after the first Pcontrol belong to iteration 0, etc.
	counts := map[int]int{}
	for _, task := range g.Tasks {
		counts[task.Iteration]++
	}
	for iter := 0; iter <= 2; iter++ {
		if counts[iter] == 0 {
			t.Fatalf("no tasks in iteration %d: %v", iter, counts)
		}
	}
}

func TestSliceIteration(t *testing.T) {
	b := NewBuilder(2)
	b.Compute(0, 0.1, simpleShape(), "setup")
	b.Compute(1, 0.1, simpleShape(), "setup")
	for iter := 0; iter < 3; iter++ {
		b.Pcontrol()
		b.Compute(0, float64(iter+1), simpleShape(), "step")
		b.Compute(1, float64(iter+1), simpleShape(), "step")
		b.Collective("reduce")
		b.Compute(0, 0.5, simpleShape(), "post")
		b.Compute(1, 0.5, simpleShape(), "post")
	}
	g := b.Finalize()

	s, err := SliceIteration(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Graph.Validate(); err != nil {
		t.Fatal(err)
	}
	// Iteration 1: 2 "step" + 2 "post" compute tasks.
	if len(s.Graph.Tasks) != 4 {
		t.Fatalf("slice has %d tasks, want 4", len(s.Graph.Tasks))
	}
	for i, task := range s.Graph.Tasks {
		orig := g.Task(s.TaskMap[i])
		if task.Work != orig.Work || task.Class != orig.Class {
			t.Fatalf("task map mismatch at %d: %+v vs %+v", i, task, orig)
		}
		if task.Class == "step" && task.Work != 2 {
			t.Fatalf("iteration 1 step work = %v, want 2", task.Work)
		}
	}

	// Prologue slice: the two setup tasks.
	pro, err := SliceIteration(g, -1)
	if err != nil {
		t.Fatal(err)
	}
	if len(pro.Graph.Tasks) != 2 {
		t.Fatalf("prologue has %d tasks, want 2", len(pro.Graph.Tasks))
	}

	all, err := SliceAll(g)
	if err != nil {
		t.Fatal(err)
	}
	// Prologue + 3 iterations.
	if len(all) != 4 {
		t.Fatalf("SliceAll returned %d slices, want 4", len(all))
	}
	total := 0
	for _, sl := range all {
		total += len(sl.Graph.Tasks)
	}
	if total != len(g.Tasks) {
		t.Fatalf("slices cover %d tasks, graph has %d", total, len(g.Tasks))
	}
}

func TestSliceLastIterationEndsAtFinalize(t *testing.T) {
	b := NewBuilder(1)
	b.Pcontrol()
	b.Compute(0, 1, simpleShape(), "only")
	g := b.Finalize()
	s, err := SliceIteration(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Graph.Tasks) != 1 {
		t.Fatalf("got %d tasks, want 1", len(s.Graph.Tasks))
	}
}

func TestTopoOrderRespectsEdges(t *testing.T) {
	b := NewBuilder(3)
	b.Compute(0, 1, simpleShape(), "w")
	b.Send(0, 1, 10)
	b.Recv(1, 0)
	b.Compute(1, 1, simpleShape(), "w")
	b.Send(1, 2, 10)
	b.Recv(2, 1)
	g := b.Finalize()
	order, err := g.TopoVertices()
	if err != nil {
		t.Fatal(err)
	}
	pos := make(map[VertexID]int)
	for i, v := range order {
		pos[v] = i
	}
	for _, task := range g.Tasks {
		if pos[task.Src] >= pos[task.Dst] {
			t.Fatalf("topo order violates edge %v→%v", task.Src, task.Dst)
		}
	}
}

// TestAdjacencyConcurrentReaders: the first reads of a graph's edge lists
// may come from several goroutines at once (parallel sweep workers share
// one graph). They must not race, and every reader must see the same
// lists; a graph that grows afterwards gets its lists rebuilt.
func TestAdjacencyConcurrentReaders(t *testing.T) {
	build := func() *Graph {
		b := NewBuilder(3)
		for i := 0; i < 20; i++ {
			b.Compute(i%3, 1, simpleShape(), "w")
			b.Send(i%3, (i+1)%3, 10)
			b.Recv((i+1)%3, i%3)
			b.Collective("allreduce")
		}
		return b.Finalize()
	}
	ref := build()
	want, err := ref.TopoVertices()
	if err != nil {
		t.Fatal(err)
	}

	g := build()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			order, err := g.TopoVertices()
			if err != nil || !slices.Equal(order, want) {
				t.Errorf("concurrent TopoVertices = %v, %v", order, err)
				return
			}
			for v := range g.Vertices {
				id := VertexID(v)
				if !slices.Equal(g.TasksFrom(id), ref.TasksFrom(id)) || !slices.Equal(g.TasksInto(id), ref.TasksInto(id)) {
					t.Errorf("vertex %d: concurrent edge lists differ from a serial build", v)
					return
				}
			}
		}()
	}
	wg.Wait()

	src, dst := g.Tasks[0].Src, g.Tasks[0].Dst
	id := TaskID(len(g.Tasks))
	g.Tasks = append(g.Tasks, Task{ID: id, Kind: Message, Src: src, Dst: dst})
	if out := g.TasksFrom(src); out[len(out)-1] != id {
		t.Fatalf("TasksFrom(%d) = %v after adding task %d", src, out, id)
	}
}

func TestValidateCatchesCycle(t *testing.T) {
	g := &Graph{NumRanks: 1}
	g.Vertices = []Vertex{
		{ID: 0, Kind: VInit, Rank: AllRanks},
		{ID: 1, Kind: VCollective, Rank: AllRanks},
		{ID: 2, Kind: VFinalize, Rank: AllRanks},
	}
	g.Tasks = []Task{
		{ID: 0, Kind: Compute, Rank: 0, Src: 0, Dst: 1},
		{ID: 1, Kind: Compute, Rank: 0, Src: 1, Dst: 0}, // back edge
		{ID: 2, Kind: Compute, Rank: 0, Src: 1, Dst: 2},
	}
	if err := g.Validate(); err == nil || !strings.Contains(err.Error(), "cycle") {
		t.Fatalf("expected cycle error, got %v", err)
	}
}

func TestValidateCatchesSelfLoopAndBadRank(t *testing.T) {
	g := &Graph{NumRanks: 1}
	g.Vertices = []Vertex{
		{ID: 0, Kind: VInit, Rank: AllRanks},
		{ID: 1, Kind: VFinalize, Rank: AllRanks},
	}
	g.Tasks = []Task{{ID: 0, Kind: Compute, Rank: 0, Src: 0, Dst: 0}}
	if err := g.Validate(); err == nil {
		t.Fatal("expected self-loop error")
	}
	g.Tasks = []Task{{ID: 0, Kind: Compute, Rank: 5, Src: 0, Dst: 1}}
	if err := g.Validate(); err == nil {
		t.Fatal("expected bad-rank error")
	}
}

// TestIterationBelowPrologue: a task labelled below the prologue (-1) is
// in no iteration a boundary opens. Validate rejects it, and SliceAll
// fails on it instead of leaving it out of every slice.
func TestIterationBelowPrologue(t *testing.T) {
	b := NewBuilder(2)
	b.Compute(0, 0.1, simpleShape(), "setup")
	b.Compute(1, 0.1, simpleShape(), "setup")
	for iter := 0; iter < 2; iter++ {
		b.Pcontrol()
		b.Compute(0, 1, simpleShape(), "step")
		b.Compute(1, 1, simpleShape(), "step")
		b.Collective("reduce")
	}
	g := b.Finalize()
	relabelled := 0
	for i := range g.Tasks {
		if g.Tasks[i].Iteration == -1 {
			g.Tasks[i].Iteration = -3
			relabelled++
		}
	}
	if relabelled == 0 {
		t.Fatal("no prologue task to relabel")
	}
	if err := g.Validate(); err == nil || !strings.Contains(err.Error(), "below the prologue") {
		t.Fatalf("Validate = %v, want a below-the-prologue error", err)
	}
	if s, err := SliceAll(g); err == nil || !strings.Contains(err.Error(), "iteration -3 not found") {
		t.Fatalf("SliceAll = %d slices, %v; want iteration -3 not found", len(s), err)
	}
}

// TestPropertyRandomProgramsValid builds random well-formed programs and
// checks the resulting graphs always validate and slice cleanly.
func TestPropertyRandomProgramsValid(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nr := 2 + rng.Intn(4)
		b := NewBuilder(nr)
		iters := 1 + rng.Intn(4)
		for it := 0; it < iters; it++ {
			b.Pcontrol()
			for r := 0; r < nr; r++ {
				b.Compute(r, rng.Float64(), simpleShape(), "step")
			}
			// Random ring of sends then receives (deadlock-free since the
			// builder is declarative, not an actual execution).
			if rng.Intn(2) == 0 {
				for r := 0; r < nr; r++ {
					b.Isend(r, (r+1)%nr, 1024)
				}
				for r := 0; r < nr; r++ {
					b.Recv(r, (r-1+nr)%nr)
				}
			} else {
				b.Collective("sync")
			}
		}
		g := b.Finalize()
		if err := g.Validate(); err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		slices, err := SliceAll(g)
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		total := 0
		for _, s := range slices {
			total += len(s.Graph.Tasks)
		}
		return total == len(g.Tasks)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}
