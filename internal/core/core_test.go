package core

import (
	"errors"
	"math"
	"testing"

	"powercap/internal/dag"
	"powercap/internal/machine"
	"powercap/internal/sim"
	"powercap/internal/workloads"
)

// imbalancedGraph: two ranks, r1 with double the work, one collective.
func imbalancedGraph() *dag.Graph {
	b := dag.NewBuilder(2)
	sh := machine.DefaultShape()
	b.Compute(0, 0.5, sh, "phase1")
	b.Compute(1, 1.0, sh, "phase1")
	b.Collective("sync")
	b.Compute(0, 0.4, sh, "phase2")
	b.Compute(1, 0.4, sh, "phase2")
	return b.Finalize()
}

func solver() *Solver { return NewSolver(machine.Default(), nil) }

func TestUnconstrainedMatchesMaxConfigSchedule(t *testing.T) {
	g := imbalancedGraph()
	s := solver()
	sched, err := s.Solve(g, 1e9)
	if err != nil {
		t.Fatal(err)
	}
	ir, err := s.IR(g)
	if err != nil {
		t.Fatal(err)
	}
	init := ir.Init
	if math.Abs(sched.MakespanS-init.Makespan) > 1e-6*init.Makespan {
		t.Fatalf("unconstrained LP makespan %v != max-config makespan %v", sched.MakespanS, init.Makespan)
	}
}

func TestCapMonotonicity(t *testing.T) {
	g := imbalancedGraph()
	s := solver()
	prev := 0.0
	for _, cap := range []float64{160, 120, 100, 80, 60, 45} {
		sched, err := s.Solve(g, cap)
		if err != nil {
			t.Fatalf("cap %v: %v", cap, err)
		}
		if sched.MakespanS < prev-1e-9 {
			t.Fatalf("makespan decreased when tightening cap to %v: %v < %v", cap, sched.MakespanS, prev)
		}
		prev = sched.MakespanS
	}
}

func TestInfeasibleAtTinyCap(t *testing.T) {
	g := imbalancedGraph()
	s := solver()
	_, err := s.Solve(g, 15) // two sockets cannot both fit under 15 W total
	if !errors.Is(err, ErrInfeasible) {
		t.Fatalf("expected ErrInfeasible, got %v", err)
	}
}

func TestMixesLieOnFrontierAndSumToOne(t *testing.T) {
	g := imbalancedGraph()
	s := solver()
	sched, err := s.Solve(g, 70)
	if err != nil {
		t.Fatal(err)
	}
	for tid, t0 := range g.Tasks {
		if t0.Kind != dag.Compute || t0.Work <= 0 {
			continue
		}
		ch := sched.Choices[tid]
		if len(ch.Mix) == 0 {
			t.Fatalf("task %d has no mix", tid)
		}
		f := s.Frontier(t0.Shape, t0.Rank)
		valid := map[machine.Config]bool{}
		for _, c := range f.Cfgs {
			valid[c] = true
		}
		sum := 0.0
		for _, m := range ch.Mix {
			if !valid[m.Config] {
				t.Fatalf("task %d mixes non-frontier config %v", tid, m.Config)
			}
			sum += m.Frac
		}
		if math.Abs(sum-1) > 1e-6 {
			t.Fatalf("task %d mix fractions sum to %v", tid, sum)
		}
		if ch.DurationS <= 0 || ch.PowerW <= 0 {
			t.Fatalf("task %d has degenerate duration/power %v/%v", tid, ch.DurationS, ch.PowerW)
		}
		if !valid[ch.Discrete] {
			t.Fatalf("task %d rounded to non-frontier config %v", tid, ch.Discrete)
		}
	}
}

// TestReplayedLPRespectsCap evaluates the LP schedule's (duration, power)
// choices on the simulator and checks the instantaneous job power never
// exceeds the constraint — the paper's Sec. 6.1 validation.
func TestReplayedLPRespectsCap(t *testing.T) {
	g := imbalancedGraph()
	s := solver()
	for _, cap := range []float64{50, 60, 70, 90, 120} {
		sched, err := s.Solve(g, cap)
		if err != nil {
			t.Fatalf("cap %v: %v", cap, err)
		}
		pts := sim.Points(g)
		for i := range g.Tasks {
			if g.Tasks[i].Kind == dag.Compute {
				pts[i] = sim.TaskPoint{Duration: sched.Choices[i].DurationS, PowerW: sched.Choices[i].PowerW}
			}
		}
		res, err := sim.Evaluate(g, pts, sim.SlackHoldsTaskPower, 0)
		if err != nil {
			t.Fatal(err)
		}
		if v := res.MaxCapViolation(cap); v > 1e-6*cap {
			t.Fatalf("cap %v violated by %v W in replay", cap, v)
		}
		// The replayed (ASAP) makespan can never exceed the LP's, which
		// holds the same durations but may delay vertices.
		if res.Makespan > sched.MakespanS+1e-6 {
			t.Fatalf("replayed makespan %v exceeds LP makespan %v", res.Makespan, sched.MakespanS)
		}
	}
}

// TestLPBeatsUniformStatic asserts the headline upper-bound property on an
// imbalanced workload: the LP schedule is at least as fast as uniform
// static capping (Sec. 4.1) at the same job power.
func TestLPBeatsUniformStatic(t *testing.T) {
	g := imbalancedGraph()
	m := machine.Default()
	s := solver()
	for _, perSocket := range []float64{30, 35, 40, 50} {
		capTotal := perSocket * 2
		sched, err := s.Solve(g, capTotal)
		if err != nil {
			t.Fatalf("cap %v: %v", capTotal, err)
		}
		// Static: every socket capped at perSocket, 8 threads, RAPL.
		pts := sim.Points(g)
		for i, task := range g.Tasks {
			if task.Kind != dag.Compute {
				continue
			}
			r := m.CapConfig(task.Shape, m.Cores, perSocket, 1)
			pts[i] = sim.TaskPoint{
				Duration: m.DurationDuty(task.Work, task.Shape, r.Config, r.Duty),
				PowerW:   r.PowerW,
			}
		}
		static, err := sim.Evaluate(g, pts, sim.SlackHoldsTaskPower, 0)
		if err != nil {
			t.Fatal(err)
		}
		if sched.MakespanS > static.Makespan*(1+1e-9) {
			t.Fatalf("per-socket %v W: LP %v slower than Static %v", perSocket, sched.MakespanS, static.Makespan)
		}
	}
}

func TestSolveIterationsMatchesWholeGraph(t *testing.T) {
	b := dag.NewBuilder(2)
	sh := machine.DefaultShape()
	for iter := 0; iter < 3; iter++ {
		b.Pcontrol()
		b.Compute(0, 0.3+0.1*float64(iter), sh, "step")
		b.Compute(1, 0.5, sh, "step")
		b.Collective("reduce")
	}
	g := b.Finalize()
	s := solver()
	whole, err := s.Solve(g, 70)
	if err != nil {
		t.Fatal(err)
	}
	sliced, err := s.SolveIterations(g, 70)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(whole.MakespanS-sliced.MakespanS) > 1e-5*whole.MakespanS {
		t.Fatalf("whole %v vs per-iteration %v", whole.MakespanS, sliced.MakespanS)
	}
	if len(sliced.IterationMakespans) != 4 { // prologue + 3 iterations
		t.Fatalf("got %d iteration makespans, want 4", len(sliced.IterationMakespans))
	}
	// Choices must be populated for the original task IDs.
	for tid, task := range g.Tasks {
		if task.Kind == dag.Compute && task.Work > 0 && len(sliced.Choices[tid].Mix) == 0 {
			t.Fatalf("task %d missing choice after per-iteration solve", tid)
		}
	}
}

// TestSliceAllOfSlices: a graph whose iterations do not start at 0, such
// as an iteration slice itself, slices too. On every proxy SliceAll of the
// full graph returns one slice per iteration that holds tasks, in
// iteration order, covering every task; SliceAll of each slice returns
// that slice, with its digest; and each slice's decomposed solve equals
// its whole-graph solve within 1e-9 relative, infeasible at the same caps.
func TestSliceAllOfSlices(t *testing.T) {
	rel := func(a, b float64) float64 { return math.Abs(a-b) / math.Abs(b) }
	for _, name := range workloads.Names() {
		w, err := workloads.ByName(name, workloads.Params{Ranks: 4, Iterations: 4, Seed: 1, WorkScale: 0.3})
		if err != nil {
			t.Fatal(err)
		}
		g := w.Graph
		slices, err := dag.SliceAll(g)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		held := map[int]bool{}
		for _, task := range g.Tasks {
			held[task.Iteration] = true
		}
		if len(slices) != len(held) {
			t.Fatalf("%s: %d slices, %d iterations hold tasks", name, len(slices), len(held))
		}
		s := NewSolver(machine.Default(), w.EffScale)
		prev, covered, solved := math.MinInt, 0, 0
		for si, sl := range slices {
			iter := g.Tasks[sl.TaskMap[0]].Iteration
			for _, tid := range sl.TaskMap {
				if g.Tasks[tid].Iteration != iter {
					t.Fatalf("%s slice %d: task %d of iteration %d in iteration %d's slice", name, si, tid, g.Tasks[tid].Iteration, iter)
				}
			}
			if iter <= prev {
				t.Fatalf("%s slice %d: iteration %d after %d", name, si, iter, prev)
			}
			prev, covered = iter, covered+len(sl.TaskMap)

			again, err := dag.SliceAll(sl.Graph)
			if err != nil {
				t.Fatalf("%s slice %d (iteration %d): %v", name, si, iter, err)
			}
			if len(again) != 1 || dag.Digest(again[0].Graph) != dag.Digest(sl.Graph) {
				t.Fatalf("%s slice %d: re-sliced into %d slices, want itself", name, si, len(again))
			}
			for _, perSocket := range []float64{60, 35} {
				capW := perSocket * float64(g.NumRanks)
				split, serr := s.SolveIterations(sl.Graph, capW)
				whole, werr := s.Solve(sl.Graph, capW)
				if serr != nil || werr != nil {
					if !errors.Is(serr, ErrInfeasible) || !errors.Is(werr, ErrInfeasible) {
						t.Fatalf("%s slice %d at %g W/socket: decomposed %v, whole %v", name, si, perSocket, serr, werr)
					}
					continue
				}
				solved++
				if rel(split.MakespanS, whole.MakespanS) > 1e-9 || rel(split.Objective, whole.Objective) > 1e-9 {
					t.Errorf("%s slice %d at %g W/socket: decomposed makespan %.15g objective %.15g, whole %.15g %.15g",
						name, si, perSocket, split.MakespanS, split.Objective, whole.MakespanS, whole.Objective)
				}
			}
		}
		if covered != len(g.Tasks) || solved < len(slices) {
			t.Errorf("%s: slices cover %d of %d tasks, %d feasible solves", name, covered, len(g.Tasks), solved)
		}
	}
}

func TestNonUniformAllocationUnderImbalance(t *testing.T) {
	// Under a tight cap, the LP must give the heavy rank more power than
	// the light one during phase 1 (the paper's central mechanism).
	g := imbalancedGraph()
	s := solver()
	sched, err := s.Solve(g, 70)
	if err != nil {
		t.Fatal(err)
	}
	var lightP, heavyP float64
	for tid, task := range g.Tasks {
		if task.Kind != dag.Compute || task.Class != "phase1" {
			continue
		}
		if task.Rank == 0 {
			lightP = sched.Choices[tid].PowerW
		} else {
			heavyP = sched.Choices[tid].PowerW
		}
	}
	if heavyP <= lightP {
		t.Fatalf("heavy rank got %v W, light rank %v W — expected nonuniform allocation", heavyP, lightP)
	}
}

func TestFrontierCacheReuse(t *testing.T) {
	s := solver()
	sh := machine.DefaultShape()
	f1 := s.Frontier(sh, 0)
	f2 := s.Frontier(sh, 0)
	if f1 != f2 {
		t.Fatal("frontier cache miss for identical key")
	}
	f3 := s.Frontier(sh, 1)
	if f1 == f3 && s.EffScale != nil {
		t.Fatal("distinct ranks with different efficiency must not share frontiers")
	}
}

func TestEffScaleChangesFrontierPower(t *testing.T) {
	s := NewSolver(machine.Default(), []float64{1.0, 1.1})
	sh := machine.DefaultShape()
	f0 := s.Frontier(sh, 0)
	f1 := s.Frontier(sh, 1)
	if len(f0.Pts) == 0 || len(f1.Pts) == 0 {
		t.Fatal("empty frontier")
	}
	if !(f1.Pts[0].PowerW > f0.Pts[0].PowerW) {
		t.Fatalf("inefficient socket should draw more: %v vs %v", f1.Pts[0].PowerW, f0.Pts[0].PowerW)
	}
}

func TestZeroWorkTasksHandled(t *testing.T) {
	b := dag.NewBuilder(2)
	sh := machine.DefaultShape()
	b.Compute(0, 0.5, sh, "w")
	// Rank 1 does nothing: zero-work edges Init→coll→Fin.
	b.Collective("sync")
	b.Compute(0, 0.5, sh, "w")
	g := b.Finalize()
	s := solver()
	sched, err := s.Solve(g, 100)
	if err != nil {
		t.Fatal(err)
	}
	if sched.MakespanS <= 0 {
		t.Fatal("empty makespan")
	}
	for tid, task := range g.Tasks {
		if task.Kind == dag.Compute && task.Work == 0 {
			ch := sched.Choices[tid]
			if ch.DurationS != 0 {
				t.Fatalf("zero-work task %d has duration %v", tid, ch.DurationS)
			}
			if ch.PowerW <= 0 {
				t.Fatalf("zero-work task %d should draw idle power", tid)
			}
		}
	}
}

// TestMarginalSecPerW validates the power shadow price against a finite
// difference: adding ΔW of job budget should change the makespan by about
// Marginal·Δ (exactly, within the same dual basis, for small Δ).
func TestMarginalSecPerW(t *testing.T) {
	g := imbalancedGraph()
	s := solver()
	const cap = 60.0
	const delta = 0.05
	a, err := s.Solve(g, cap)
	if err != nil {
		t.Fatal(err)
	}
	if a.MarginalSecPerW > 1e-12 {
		t.Fatalf("marginal = %v, want ≤ 0 (more power cannot hurt)", a.MarginalSecPerW)
	}
	if a.MarginalSecPerW > -1e-6 {
		t.Fatalf("marginal = %v at a binding cap, expected strictly negative", a.MarginalSecPerW)
	}
	b, err := s.Solve(g, cap+delta)
	if err != nil {
		t.Fatal(err)
	}
	fd := (b.MakespanS - a.MakespanS) / delta
	if math.Abs(fd-a.MarginalSecPerW) > 0.05*math.Abs(a.MarginalSecPerW)+1e-6 {
		t.Fatalf("marginal %v vs finite difference %v", a.MarginalSecPerW, fd)
	}
}

// TestMarginalZeroWhenUnconstrained: with abundant power the cap rows are
// slack and the shadow price vanishes.
func TestMarginalZeroWhenUnconstrained(t *testing.T) {
	g := imbalancedGraph()
	s := solver()
	sched, err := s.Solve(g, 1e6)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sched.MarginalSecPerW) > 1e-9 {
		t.Fatalf("marginal = %v at an unconstrained cap, want 0", sched.MarginalSecPerW)
	}
}
