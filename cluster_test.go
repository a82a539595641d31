package powercap_test

import (
	"context"
	"errors"
	"math"
	"testing"

	"powercap"
	"powercap/internal/obs"
)

// AllocateCluster end-to-end through the facade: a heterogeneous two-job
// cluster allocates every watt usefully, preserves input order, and the
// market split is never worse than uniform.
func TestAllocateCluster(t *testing.T) {
	p := powercap.WorkloadParams{Ranks: 4, Iterations: 3, Seed: 2, WorkScale: 0.3}
	sp := powercap.NewWorkload("SP", p)
	bt := powercap.NewWorkload("BT", p)
	jobs := []powercap.ClusterJob{
		{Name: "sp-0", Graph: sp.Graph, EffScale: sp.EffScale},
		{Name: "bt-0", Graph: bt.Graph, EffScale: bt.EffScale},
	}
	const budget = 180

	uni, err := powercap.AllocateCluster(context.Background(), jobs, budget, nil, powercap.ClusterOptions{Policy: powercap.PolicyUniform})
	if err != nil {
		t.Fatal(err)
	}
	mkt, err := powercap.AllocateCluster(context.Background(), jobs, budget, nil, powercap.ClusterOptions{Policy: powercap.PolicyMarket})
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range []*powercap.ClusterAllocation{uni, mkt} {
		if len(a.Jobs) != 2 || a.Jobs[0].Name != "sp-0" || a.Jobs[1].Name != "bt-0" {
			t.Fatalf("%s: job order not preserved: %+v", a.Policy, a.Jobs)
		}
		var sum float64
		for _, j := range a.Jobs {
			if j.Schedule == nil || j.MakespanS <= 0 {
				t.Fatalf("%s: job %s missing schedule", a.Policy, j.Name)
			}
			sum += j.CapW
		}
		if sum > budget+1e-6 {
			t.Errorf("%s: allocated %.3f W over budget", a.Policy, sum)
		}
	}
	if mkt.TotalMakespanS > uni.TotalMakespanS*(1+1e-9) {
		t.Errorf("market total %.6f worse than uniform %.6f", mkt.TotalMakespanS, uni.TotalMakespanS)
	}
}

// A traced allocation fits the span bound a ?trace=1 /v1/cluster request
// uses (obs.DefaultMaxSpans): BT and SP at 8 ranks × 4 iterations lower
// through about 3,500 steps, and the crossings of each run of steps on
// one job record under one lp.dual span, so the trace drops nothing.
func TestAllocateClusterTraceBound(t *testing.T) {
	p := powercap.WorkloadParams{Ranks: 8, Iterations: 4, Seed: 2}
	bt := powercap.NewWorkload("BT", p)
	sp := powercap.NewWorkload("SP", p)
	jobs := []powercap.ClusterJob{
		{Name: "bt", Graph: bt.Graph, EffScale: bt.EffScale},
		{Name: "sp", Graph: sp.Graph, EffScale: sp.EffScale},
	}
	tr := obs.NewTrace(obs.DefaultMaxSpans)
	defer tr.Release()
	a, err := powercap.AllocateCluster(obs.WithTrace(context.Background(), tr), jobs, 32.5*16, nil, powercap.ClusterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if a.Iterations < 3000 {
		t.Errorf("%d lowering steps, want the long lowering this test is sized for", a.Iterations)
	}
	if d := tr.Dropped(); d != 0 {
		t.Errorf("trace dropped %d spans past its bound of %d (%d kept)", d, obs.DefaultMaxSpans, len(tr.Snapshot()))
	}
}

// A traced MarginalCurve fits the same span bound: SP at 16 ranks × 4
// iterations, read at every half watt from 20 to 100 W/socket, crosses
// thousands of breakpoints, all recorded under one lp.dual span, so the
// trace drops nothing.
func TestMarginalCurveTraceBound(t *testing.T) {
	w := powercap.NewWorkload("SP", powercap.WorkloadParams{Ranks: 16, Iterations: 4, Seed: 2})
	var caps []float64
	for per := 20.0; per <= 100; per += 0.5 {
		caps = append(caps, per*float64(w.Graph.NumRanks))
	}
	tr := obs.NewTrace(obs.DefaultMaxSpans)
	defer tr.Release()
	if _, err := powercap.SystemFor(w, nil).MarginalCurve(obs.WithTrace(context.Background(), tr), w.Graph, caps); err != nil {
		t.Fatal(err)
	}
	if d := tr.Dropped(); d != 0 {
		t.Errorf("trace dropped %d spans past its bound of %d (%d kept)", d, obs.DefaultMaxSpans, len(tr.Snapshot()))
	}
}

// A starved budget surfaces the typed *BudgetError through the facade.
func TestAllocateClusterBudgetError(t *testing.T) {
	w := powercap.NewWorkload("CG", powercap.WorkloadParams{Ranks: 4, Iterations: 2, Seed: 1, WorkScale: 0.3})
	jobs := []powercap.ClusterJob{{Name: "cg", Graph: w.Graph, EffScale: w.EffScale}}
	_, err := powercap.AllocateCluster(context.Background(), jobs, 5, nil, powercap.ClusterOptions{})
	var be *powercap.BudgetError
	if !errors.As(err, &be) {
		t.Fatalf("got %v, want *BudgetError", err)
	}
	if len(be.Floors) != 1 || be.Floors[0].Name != "cg" {
		t.Errorf("BudgetError floors %+v should name cg", be.Floors)
	}
	if be.FloorSumW <= be.BudgetW || math.IsNaN(be.FloorSumW) {
		t.Errorf("FloorSumW %g should exceed budget %g", be.FloorSumW, be.BudgetW)
	}
}
