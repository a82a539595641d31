package main

import "testing"

// tinyConfig keeps exhibit smoke tests fast.
func tinyConfig() config {
	return config{ranks: 4, iters: 6, seed: 1, scale: 0.25}
}

// TestExhibitsRun smoke-tests every exhibit at a tiny instance size: each
// must complete without error (regression guard for the harness itself —
// the numeric fidelity is covered by package tests and EXPERIMENTS.md).
func TestExhibitsRun(t *testing.T) {
	cases := map[string]func(config) error{
		"fig1":      runFig1,
		"table1":    runTable1,
		"fig2":      runFig2,
		"fig3":      runFig3,
		"fig12":     runFig12,
		"table3":    runTable3,
		"overheads": runOverheads,
		"configsel": runConfigSel,
	}
	for name, fn := range cases {
		name, fn := name, fn
		t.Run(name, func(t *testing.T) {
			if err := fn(tinyConfig()); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		})
	}
}

// TestSweepExhibitsRun covers the cross-benchmark sweeps at a single tiny
// point by pre-seeding the memo so they don't run the whole grid.
func TestSweepExhibitsRun(t *testing.T) {
	cfg := tinyConfig()
	if err := runBenchFigure(cfg, "CoMD", "Figure 11 (smoke)"); err != nil {
		t.Fatal(err)
	}
	// The memoized CoMD points make summary/fig9/fig10 partially cached;
	// they still solve the remaining benchmarks, so keep this to the
	// per-benchmark figure only at tiny scale.
}

func TestCapsForCoversAllWorkloads(t *testing.T) {
	for _, name := range []string{"CoMD", "BT", "SP", "LULESH", "unknown"} {
		caps := capsFor(name)
		if len(caps) < 3 {
			t.Fatalf("%s: %d caps", name, len(caps))
		}
		for i := 1; i < len(caps); i++ {
			if caps[i] <= caps[i-1] {
				t.Fatalf("%s: caps not increasing", name)
			}
		}
	}
	if len(allCaps()) < 6 {
		t.Fatalf("allCaps too small: %v", allCaps())
	}
}

func TestFig2GraphValidates(t *testing.T) {
	g := fig2Graph(1.0)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(g.Tasks) != 6 { // 5 computes + 1 message
		t.Fatalf("fig2 graph has %d tasks, want 6", len(g.Tasks))
	}
}

// TestScaleExhibitSmoke runs the windowed-scaling exhibit at a tiny size:
// one ladder point plus a small headline point, the monolithic LP given
// its budget, and a two-worker thread sweep.
func TestScaleExhibitSmoke(t *testing.T) {
	cfg := tinyConfig()
	sz := scaleSizes{
		ranks:        2,
		ladder:       []int{300},
		large:        800,
		threadEvents: 800,
		threads:      []int{1, 2},
		perSocketW:   50,
		coarsenEps:   2e-3,
		monoBudgetX:  10,
		minBudgetS:   60,
	}
	if err := runScaleSized(cfg, sz); err != nil {
		t.Fatal(err)
	}
}

// TestKernelExhibitSmoke runs the LP-kernel exhibit at a tiny size: 4- and
// 8-rank warm sweeps, a two-point frontier ladder, and a small windowed
// zero-rescue run.
func TestKernelExhibitSmoke(t *testing.T) {
	cfg := tinyConfig()
	sz := kernelSizes{
		sweepRanks:   []int{4, 8},
		sweepIters:   4,
		ladderRanks:  2,
		ladder:       []int{200, 300},
		ladderPerW:   50,
		pointBudgetS: 60,
		windowEvents: 800,
		coarsenEps:   2e-3,
	}
	if err := runKernelSized(cfg, sz); err != nil {
		t.Fatal(err)
	}
}

// TestMarketExhibitSmoke runs the cluster-market exhibit on one small
// heterogeneous mix. The verdict (CONFIRMED/FALSIFIED) is informational at
// this size — the smoke test only guards the harness; the allocation
// properties themselves are covered by internal/market's tests.
func TestMarketExhibitSmoke(t *testing.T) {
	cfg := tinyConfig()
	sz := marketSizes{
		ranks:      2,
		iters:      2,
		scale:      0.2,
		mixes:      []string{"het-bt-sp"},
		budgetFrac: 0.4,
	}
	if err := runMarketSized(cfg, sz); err != nil {
		t.Fatal(err)
	}
}
