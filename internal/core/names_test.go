package core

import (
	"context"
	"flag"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"testing"

	"powercap/internal/coarsen"
	"powercap/internal/lp"
	"powercap/internal/machine"
	"powercap/internal/workloads"
)

var updateGoldens = flag.Bool("update", false, "rewrite the golden files in testdata")

// checkRendered compares a program's rendering against its golden file.
func checkRendered(t *testing.T, file string, prob *lp.Problem) {
	t.Helper()
	path := filepath.Join("testdata", file)
	got := prob.String()
	if *updateGoldens {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("%s: rendered program differs from the golden (run with -update only for an intended change)\ngot:\n%s", file, got)
	}
}

// TestProgramNames pins the names the emitters give variables and rows:
// the rendering of one small whole-graph program and one boundary-coupled
// window program, and VarName for each variable kind.
func TestProgramNames(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("the goldens render coefficients computed on amd64; other architectures may fuse multiply-adds")
	}
	w := workloads.SP(workloads.Params{Ranks: 2, Iterations: 1, Seed: 1, WorkScale: 0.3})
	s := NewSolver(machine.Default(), w.EffScale)
	b, err := s.buildLP(context.Background(), w.Graph)
	if err != nil {
		t.Fatal(err)
	}
	for _, pr := range b.powerRows {
		mustSetRHS(b.prob, pr.row, 1.5*b.floor.minW-pr.deduct)
	}
	checkRendered(t, "names_whole.golden", b.prob)
	var tunable *taskLPVars
	for _, tk := range w.Graph.Tasks {
		if v, ok := b.tv[tk.ID]; ok && len(v.cs) > 1 {
			tunable = v
			break
		}
	}
	if tunable == nil {
		t.Fatal("no tunable task with two frontier points")
	}
	if got := b.prob.VarName(b.vVar[3]); got != "v3" {
		t.Errorf("vertex variable named %q, want v3", got)
	}
	if got, want := b.prob.VarName(tunable.cs[1]), "c"+strconv.Itoa(taskOf(b, tunable))+"_1"; got != want {
		t.Errorf("configuration variable named %q, want %q", got, want)
	}

	sw := workloads.Synthetic(workloads.SynthParams{Ranks: 2, Events: 120, Seed: 1})
	ss := NewSolver(machine.Default(), sw.EffScale)
	cg, _, err := coarsen.Coarsen(sw.Graph, 2e-3)
	if err != nil {
		t.Fatal(err)
	}
	ir, err := ss.IR(cg)
	if err != nil {
		t.Fatal(err)
	}
	plan := ss.planCtx(context.Background(), cg, ir, 3, -1)
	if len(plan.Windows) < 2 {
		t.Fatalf("%d windows, want a boundary-coupled one", len(plan.Windows))
	}
	capW := 50.0 * 2
	wb := ss.buildWindowLP(plan, plan.Windows[1])
	if !wb.boundaryCoupled() {
		t.Fatal("window 1 is not boundary coupled")
	}
	wb.aim(ir, capW, ss.windowEstimates(ir, capW))
	checkRendered(t, "names_window.golden", wb.prob)
	if got := wb.prob.VarName(wb.z); got != "z" {
		t.Errorf("window completion variable named %q, want z", got)
	}
}

// taskOf returns the task whose configuration variables are v.
func taskOf(b *builtLP, v *taskLPVars) int {
	for id, tv := range b.tv {
		if tv == v {
			return int(id)
		}
	}
	return -1
}
