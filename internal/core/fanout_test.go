package core

import (
	"context"
	"errors"
	"math"
	"reflect"
	"runtime"
	"testing"
	"time"

	"powercap/internal/dag"
	"powercap/internal/machine"
	"powercap/internal/workloads"
)

// A decomposed solve fans its iteration slices out over GOMAXPROCS workers
// (internal/fanout). These tests run at `go test -cpu 1,2` in make
// kernel-smoke: at -cpu 1 the slices run inline, at 2 side by side, and
// each run compares against a solve at GOMAXPROCS 1.

// serially runs f at GOMAXPROCS 1, where a decomposed solve runs its slices
// inline, one after another.
func serially(f func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
}

// settleGoroutines waits for the goroutine count to fall back to base.
func settleGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines left running, %d before the solve", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

func sameFloat(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// TestFanoutDecomposedMatchesSerial: a decomposed solve merges its slices
// in slice order, so every answer and every effort count is the serial
// loop's to the bit.
func TestFanoutDecomposedMatchesSerial(t *testing.T) {
	cases := []struct {
		w         *workloads.Workload
		perSocket []float64 // W per socket
	}{
		{workloads.SP(workloads.Params{Ranks: 16, Iterations: 4, Seed: 1}), []float64{50, 35}},
		{workloads.CoMD(workloads.Params{Ranks: 4, Iterations: 6, Seed: 1, WorkScale: 0.3}), []float64{45, 25}},
	}
	for _, tc := range cases {
		for _, ps := range tc.perSocket {
			capW := ps * float64(tc.w.Graph.NumRanks)
			var want *Schedule
			var werr error
			serially(func() {
				want, werr = NewSolver(machine.Default(), tc.w.EffScale).SolveIterations(tc.w.Graph, capW)
			})
			got, err := NewSolver(machine.Default(), tc.w.EffScale).SolveIterations(tc.w.Graph, capW)
			if werr != nil || err != nil {
				t.Fatalf("%s at %g W/socket: serial %v, fanned out %v", tc.w.Name, ps, werr, err)
			}
			if len(got.IterationMakespans) < 2 {
				t.Fatalf("%s: %d slices, want a decomposed solve", tc.w.Name, len(got.IterationMakespans))
			}
			if !sameFloat(got.MakespanS, want.MakespanS) || !sameFloat(got.Objective, want.Objective) ||
				!sameFloat(got.MarginalSecPerW, want.MarginalSecPerW) {
				t.Errorf("%s at %g W/socket: makespan %v objective %v marginal %v; serial %v %v %v", tc.w.Name, ps,
					got.MakespanS, got.Objective, got.MarginalSecPerW, want.MakespanS, want.Objective, want.MarginalSecPerW)
			}
			for i := range want.IterationMakespans {
				if i >= len(got.IterationMakespans) || !sameFloat(got.IterationMakespans[i], want.IterationMakespans[i]) {
					t.Errorf("%s at %g W/socket: iteration makespans %v, serial %v", tc.w.Name, ps, got.IterationMakespans, want.IterationMakespans)
					break
				}
			}
			if !reflect.DeepEqual(got.Choices, want.Choices) {
				t.Errorf("%s at %g W/socket: choices differ from the serial solve's", tc.w.Name, ps)
			}
			if got.Stats != want.Stats {
				t.Errorf("%s at %g W/socket: stats %+v, serial %+v", tc.w.Name, ps, got.Stats, want.Stats)
			}
		}
	}
}

// twoFloorGraph: five slices on two ranks, where only slices 2 and 3 keep
// both ranks busy and so have the higher floor. Slice 3's busy event comes
// after a collective, so its infeasibility error names another event than
// slice 2's.
func twoFloorGraph() *dag.Graph {
	b := dag.NewBuilder(2)
	sh := machine.DefaultShape()
	b.Compute(0, 0.2, sh, "prologue")
	b.Pcontrol()
	b.Compute(0, 0.3, sh, "light")
	b.Pcontrol()
	b.Compute(0, 0.4, sh, "busy")
	b.Compute(1, 0.4, sh, "busy")
	b.Pcontrol()
	b.Compute(0, 0.1, sh, "light")
	b.Collective("mid")
	b.Compute(0, 0.4, sh, "busy")
	b.Compute(1, 0.5, sh, "busy")
	b.Pcontrol()
	b.Compute(0, 0.3, sh, "light")
	return b.Finalize()
}

// TestFanoutInfeasibleSliceError: at a cap between the slices' floors the
// decomposed solve fails with the serial loop's error, the lowest
// infeasible slice's, at every CPU count.
func TestFanoutInfeasibleSliceError(t *testing.T) {
	g := twoFloorGraph()
	slices, err := dag.SliceAll(g)
	if err != nil {
		t.Fatal(err)
	}
	s := NewSolver(machine.Default(), nil)
	lo, hi := math.Inf(1), 0.0
	for _, sl := range slices {
		cs, err := s.NewCapSession(context.Background(), sl.Graph)
		if err != nil {
			t.Fatal(err)
		}
		lo, hi = math.Min(lo, cs.FloorW()), math.Max(hi, cs.FloorW())
	}
	capW := (lo + hi) / 2
	var texts []string // each infeasible slice's error, in slice order
	for _, sl := range slices {
		if _, err := s.solveOnce(context.Background(), sl.Graph, capW); err != nil {
			texts = append(texts, err.Error())
		}
	}
	if len(texts) < 2 || texts[0] == texts[1] || len(texts) == len(slices) {
		t.Fatalf("want some slices infeasible at %.3f W with distinct errors, got %q", capW, texts)
	}

	var werr error
	serially(func() { _, werr = NewSolver(machine.Default(), nil).SolveIterations(g, capW) })
	_, err = NewSolver(machine.Default(), nil).SolveIterations(g, capW)
	if !errors.Is(err, ErrInfeasible) || werr == nil || err.Error() != werr.Error() {
		t.Fatalf("fanned out: %v; serial: %v", err, werr)
	}
	if want := "iteration slice: " + texts[0]; err.Error() != want {
		t.Errorf("error %q, want the first infeasible slice's %q", err, want)
	}
}

// TestFanoutCancelMidSolve: a context canceled while the slices solve
// stops them, the error wraps context.Canceled, and no goroutine is left.
func TestFanoutCancelMidSolve(t *testing.T) {
	w := workloads.SP(workloads.Params{Ranks: 16, Iterations: 4, Seed: 1})
	base := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	time.AfterFunc(10*time.Millisecond, cancel)
	_, err := NewSolver(machine.Default(), w.EffScale).SolveIterationsCtx(ctx, w.Graph, 50*16)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want an error wrapping context.Canceled", err)
	}
	settleGoroutines(t, base)
}
