package core

import (
	"bufio"
	"context"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"powercap/internal/coarsen"
	"powercap/internal/lp"
	"powercap/internal/machine"
	"powercap/internal/workloads"
)

// solveBits is a digest of everything a solve returns, bit for bit: the
// status, objective, primal, dual and basis, and every SolveStats count
// (wall time aside). The two zeros stand where the digests recorded the
// retired presolve's elimination counts, so unchanged solves keep their
// digests.
func solveBits(sol *lp.Solution) string {
	h := fnv.New64a()
	put := func(vs ...float64) {
		for _, v := range vs {
			fmt.Fprintf(h, "%x,", math.Float64bits(v))
		}
	}
	st := sol.Stats
	fmt.Fprintf(h, "%d|%d|", sol.Status, sol.Iters)
	put(sol.Objective)
	put(sol.X...)
	put(sol.Dual...)
	fmt.Fprint(h, sol.Basis, sol.Dual == nil, sol.Basis == nil)
	fmt.Fprint(h, st.Phase1Iters, st.Phase2Iters, st.DualIters, st.Refactorizations,
		0, 0, st.WarmStarted, st.BlandActivated, st.BlandActivations,
		st.MaxEtaLen, st.PivotRejections, st.FactorTauRetries, st.NaNRecoveries, st.Rescues)
	put(st.RowNormMax, st.RowNormMin)
	return fmt.Sprintf("%016x", h.Sum64())
}

// solveBitsRecorder collects one digest line per solve and compares the
// lines against a golden file.
type solveBitsRecorder struct {
	lines []string
}

func (r *solveBitsRecorder) solve(t *testing.T, what string, prob *lp.Problem, opts ...lp.Option) *lp.Solution {
	t.Helper()
	sol, err := lp.Solve(prob, opts...)
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	r.lines = append(r.lines, what+" "+solveBits(sol))
	return sol
}

func (r *solveBitsRecorder) check(t *testing.T, file string) {
	t.Helper()
	path := filepath.Join("testdata", file)
	got := strings.Join(r.lines, "\n") + "\n"
	if *updateGoldens {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	k := 0
	for ; sc.Scan(); k++ {
		if k >= len(r.lines) {
			t.Fatalf("%s: %d solves, golden has more", file, len(r.lines))
		}
		if r.lines[k] != sc.Text() {
			t.Errorf("%s: solve %q, golden %q", file, r.lines[k], sc.Text())
		}
	}
	if k != len(r.lines) {
		t.Fatalf("%s: %d solves, golden has %d", file, len(r.lines), k)
	}
}

// checkFree requires a basis-free solve of prob to be optimal, certified,
// and within tol relative of the objective of prob's crash-started solve.
func checkFree(t *testing.T, what string, prob *lp.Problem, free, crash *lp.Solution, tol float64) {
	t.Helper()
	if free.Status != lp.Optimal || crash.Status != lp.Optimal {
		t.Fatalf("%s: basis-free %v, crash %v", what, free.Status, crash.Status)
	}
	if err := lp.Certify(prob, free).Err(); err != nil {
		t.Fatalf("%s: basis-free: %v", what, err)
	}
	if d := math.Abs(free.Objective - crash.Objective); d > tol*math.Abs(crash.Objective) {
		t.Fatalf("%s: basis-free objective %.17g, crash %.17g", what, free.Objective, crash.Objective)
	}
}

// TestSolveBits pins every answer the kernel gives on the programs the
// benchmark paths solve, bit for bit, against digests recorded before the
// kernel's form was built in one pass: the whole-graph programs of the six
// proxies at 4 ranks × 2 iterations, seeds 1–4, each solved at four caps
// from its crash basis, from the previous cap's basis (a dual start) and
// basis-free, and once unscaled (the rescue's solve); and every
// speculative window program of two 600-event synthetic traces,
// basis-free, from its crash basis, and re-aimed from that answer's basis.
// The basis-free digests, and the dual starts from their bases, were
// re-recorded when presolve was retired. Every basis-free answer must be
// certified and agree with the crash start's objective within 1e-9
// relative on the whole-graph programs, and within 1e-8 on the window
// programs: synthetic/2/window1's crash start stops inside the kernel's
// pricing tolerance but 2e-9 relative above the objective its basis-free
// and unscaled solves reach.
func TestSolveBits(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("the digests were recorded on amd64; other architectures may fuse multiply-adds")
	}
	var rec solveBitsRecorder
	for _, name := range workloads.Names() {
		for seed := int64(1); seed <= 4; seed++ {
			w, err := workloads.ByName(name, workloads.Params{Ranks: 4, Iterations: 2, Seed: seed, WorkScale: 0.3})
			if err != nil {
				t.Fatal(err)
			}
			s := NewSolver(machine.Default(), w.EffScale)
			b, err := s.buildLP(context.Background(), w.Graph)
			if err != nil {
				t.Fatal(err)
			}
			floorW := b.floor.minW
			var prev []int
			for k, capW := range []float64{floorW, 1.2 * floorW, 2 * floorW, saturatingW(b)} {
				for _, pr := range b.powerRows {
					mustSetRHS(b.prob, pr.row, capW-pr.deduct)
				}
				what := fmt.Sprintf("%s/%d/cap%d", name, seed, k)
				if k == 0 {
					rec.solve(t, what+"/stated", b.prob, lp.WithoutScaling())
				}
				crash := rec.solve(t, what+"/crash", b.prob, lp.WithWarmBasis(b.crash()))
				if prev != nil {
					rec.solve(t, what+"/warm", b.prob, lp.WithWarmBasis(prev))
				}
				free := rec.solve(t, what+"/free", b.prob)
				checkFree(t, what, b.prob, free, crash, 1e-9)
				prev = free.Basis
			}
		}
	}

	for _, seed := range []int64{1, 2} {
		w := workloads.Synthetic(workloads.SynthParams{Ranks: 4, Events: 600, Seed: seed})
		s := NewSolver(machine.Default(), w.EffScale)
		cg, _, err := coarsen.Coarsen(w.Graph, 2e-3)
		if err != nil {
			t.Fatal(err)
		}
		ir, err := s.IR(cg)
		if err != nil {
			t.Fatal(err)
		}
		plan := s.planCtx(context.Background(), cg, ir, 4, -1)
		capW := 50.0 * 4
		for _, win := range plan.Windows {
			b := s.buildWindowLP(plan, win)
			b.aim(ir, capW, s.windowEstimates(ir, capW))
			what := fmt.Sprintf("synthetic/%d/window%d", seed, win.Index)
			free := rec.solve(t, what+"/free", b.prob)
			sol := rec.solve(t, what+"/crash", b.prob, lp.WithWarmBasis(b.crash()))
			checkFree(t, what, b.prob, free, sol, 1e-8)
			b.aim(ir, 0.95*capW, s.windowEstimates(ir, 0.95*capW))
			rec.solve(t, what+"/reaim", b.prob, lp.WithWarmBasis(sol.Basis))
		}
	}
	rec.check(t, "solve_bits.golden")
}
