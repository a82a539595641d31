package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"time"

	"powercap/internal/core"
	"powercap/internal/dag"
	"powercap/internal/lp"
	"powercap/internal/machine"
	"powercap/internal/workloads"
)

// The "kernel" exhibit benchmarks the LP kernel itself (DESIGN.md §14):
// warm-started cap sweeps from 64 to 256 ranks, the numerical-breakdown
// frontier ladder of monolithic solves on synthetic long-chain traces, and
// a past-the-frontier windowed run that must need zero numerical rescues.
// With -benchjson the measurements are also written as machine-readable
// JSON.
//
// Every run is single-threaded and the runs execute strictly one after
// another, so concurrent measurement cannot corrupt the walls on a
// one-CPU host.

// kernelSizes parameterizes the exhibit so the smoke test can shrink it.
type kernelSizes struct {
	sweepRanks   []int   // rank counts for the warm sweep rows
	sweepIters   int     // SP iterations (the sweep solves one slice)
	ladderRanks  int     // ranks for the synthetic frontier traces
	ladder       []int   // frontier ladder event counts, ascending
	ladderPerW   float64 // per-socket cap on the frontier traces
	pointBudgetS float64 // wall budget per monolithic frontier attempt
	windowEvents int     // past-the-frontier windowed run size
	coarsenEps   float64
}

func defaultKernelSizes() kernelSizes {
	return kernelSizes{
		sweepRanks:   []int{64, 128, 256},
		sweepIters:   4,
		ladderRanks:  4,
		ladder:       []int{250, 400, 500, 750, 1000, 1250, 1500},
		ladderPerW:   50,
		pointBudgetS: 120,
		windowEvents: 2500,
		coarsenEps:   2e-3,
	}
}

// kernelSweepRow is one rank count's aggregate over a warm cap sweep.
type kernelSweepRow struct {
	Ranks      int     `json:"ranks"`
	WallS      float64 `json:"wall_s"`
	Solves     int     `json:"solves"`
	Pivots     int     `json:"pivots"`
	DualPivots int     `json:"dual_pivots"`
	WarmStarts int     `json:"warm_starts"`
}

// kernelFrontierPoint is one monolithic solve attempt on the ladder.
type kernelFrontierPoint struct {
	Events    int     `json:"events"`
	Outcome   string  `json:"outcome"`
	WallS     float64 `json:"wall_s"`
	Pivots    int     `json:"pivots,omitempty"`
	Rescues   int     `json:"rescues,omitempty"`
	MakespanS float64 `json:"makespan_s,omitempty"`
}

// kernelReport is the exhibit's JSON document.
type kernelReport struct {
	SingleThreaded bool                  `json:"single_threaded"`
	CapsPerW       []float64             `json:"caps_per_socket_w"`
	Sweeps         []kernelSweepRow      `json:"sweeps"`
	LadderRanks    int                   `json:"ladder_ranks"`
	LadderPerW     float64               `json:"ladder_cap_per_socket_w"`
	Frontier       []kernelFrontierPoint `json:"frontier"`
	FrontierEvents int                   `json:"frontier_events"`
	FailOutcome    string                `json:"fail_outcome,omitempty"`
	FailEvents     int                   `json:"fail_events,omitempty"`
	WindowEvents   int                   `json:"window_events"`
	WindowWallS    float64               `json:"window_wall_s"`
	WindowRescues  int                   `json:"window_numerical_rescues"`
	Generated      string                `json:"generated"`
}

// Monolithic frontier outcomes beyond scale.go's: the ladder's traces are
// feasible at its cap, so an infeasible verdict there is numerical failure
// masquerading as a status.
const monoFalseInfeasible = "false-infeasible"

func runKernel(cfg config) error {
	return runKernelSized(cfg, defaultKernelSizes())
}

func runKernelSized(cfg config, sz kernelSizes) error {
	header("LP kernel", "warm sweeps, breakdown frontier, and zero-rescue check (DESIGN.md §14; single-threaded, runs serialized)")
	report := kernelReport{
		SingleThreaded: true,
		LadderRanks:    sz.ladderRanks,
		LadderPerW:     sz.ladderPerW,
	}

	// --- Warm cap sweeps at each rank count. ---
	for per := 70.0; per >= 30; per -= 10 {
		report.CapsPerW = append(report.CapsPerW, per)
	}
	fmt.Printf("%7s%10s%8s%10s%8s%8s\n", "ranks", "wall(s)", "solves", "pivots", "dual", "warm")
	for _, ranks := range sz.sweepRanks {
		fmt.Fprintf(os.Stderr, "  warm sweep: %d ranks...\n", ranks)
		w := workloads.SP(workloads.Params{Ranks: ranks, Iterations: sz.sweepIters, Seed: cfg.seed, WorkScale: cfg.scale})
		slices, err := dag.SliceAll(w.Graph)
		if err != nil {
			return err
		}
		si := 2
		if si >= len(slices) {
			si = len(slices) - 1
		}
		g := slices[si].Graph
		var caps []float64
		for _, per := range report.CapsPerW {
			caps = append(caps, per*float64(ranks))
		}
		s := core.NewSolver(machine.Default(), w.EffScale)
		var st core.Stats
		start := time.Now()
		pts, err := s.SolveSweep(g, caps)
		if err != nil {
			return fmt.Errorf("sweep %d ranks: %w", ranks, err)
		}
		for _, pt := range pts {
			if pt.Err != nil {
				return fmt.Errorf("sweep %d ranks: %w", ranks, pt.Err)
			}
			st.Add(pt.Schedule.Stats)
		}
		r := kernelSweepRow{
			Ranks:      ranks,
			WallS:      time.Since(start).Seconds(),
			Solves:     st.Solves,
			Pivots:     st.SimplexIter,
			DualPivots: st.DualIter,
			WarmStarts: st.WarmStarts,
		}
		report.Sweeps = append(report.Sweeps, r)
		fmt.Printf("%7d%10.2f%8d%10d%8d%8d\n", r.Ranks, r.WallS, r.Solves, r.Pivots, r.DualPivots, r.WarmStarts)
	}

	// --- Breakdown frontier: monolithic solves on long-chain traces. ---
	for _, events := range sz.ladder {
		w := workloads.Synthetic(workloads.SynthParams{
			Ranks: sz.ladderRanks, Events: events, Seed: cfg.seed, WorkScale: cfg.scale,
		})
		s := core.NewSolver(machine.Default(), w.EffScale)
		fmt.Fprintf(os.Stderr, "  frontier: %d events...\n", events)
		ctx, cancel := context.WithTimeout(context.Background(),
			time.Duration(sz.pointBudgetS*float64(time.Second)))
		t0 := time.Now()
		sched, err := s.SolveCtx(ctx, w.Graph, sz.ladderPerW*float64(sz.ladderRanks))
		cancel()
		pt := kernelFrontierPoint{Events: events, WallS: time.Since(t0).Seconds()}
		var numErr *lp.NumericalError
		switch {
		case err == nil:
			pt.Outcome = monoOK
			pt.Pivots = sched.Stats.SimplexIter
			pt.Rescues = sched.Stats.Rescues
			pt.MakespanS = sched.MakespanS
		case errors.As(err, &numErr):
			pt.Outcome = monoBreakdown
		case errors.Is(err, context.DeadlineExceeded):
			pt.Outcome = monoBudget
		case errors.Is(err, core.ErrInfeasible):
			pt.Outcome = monoFalseInfeasible
		default:
			return fmt.Errorf("frontier at %d events: %w", events, err)
		}
		report.Frontier = append(report.Frontier, pt)
		if pt.Outcome != monoOK {
			report.FailOutcome = pt.Outcome
			report.FailEvents = events
			break
		}
		report.FrontierEvents = events
	}

	var outs string
	for _, pt := range report.Frontier {
		outs += fmt.Sprintf(" %d:%s", pt.Events, pt.Outcome)
		if pt.Rescues > 0 {
			outs += "(rescued)"
		}
	}
	fail := "-"
	if report.FailOutcome != "" {
		fail = fmt.Sprintf("%s @%d", report.FailOutcome, report.FailEvents)
	}
	fmt.Printf("\nbreakdown frontier: %d events (first failure %s); per-size outcomes:%s\n",
		report.FrontierEvents, fail, outs)

	// --- Zero-rescue check: windowed solve past the mono frontier. ---
	w := workloads.Synthetic(workloads.SynthParams{
		Ranks: sz.ladderRanks, Events: sz.windowEvents, Seed: cfg.seed, WorkScale: cfg.scale,
	})
	s := core.NewSolver(machine.Default(), w.EffScale)
	fmt.Fprintf(os.Stderr, "  windowed zero-rescue run: %d events...\n", sz.windowEvents)
	t0 := time.Now()
	ws, err := s.SolveWindowed(w.Graph, sz.ladderPerW*float64(sz.ladderRanks), core.WindowedOptions{
		Windows: scaleWindows(len(w.Graph.Vertices)), OverlapEvents: -1, CoarsenEps: sz.coarsenEps,
	})
	if err != nil {
		return fmt.Errorf("windowed zero-rescue run: %w", err)
	}
	report.WindowEvents = sz.windowEvents
	report.WindowWallS = time.Since(t0).Seconds()
	report.WindowRescues = ws.NumericalFallbacks()
	fmt.Printf("windowed run at %d events (past the monolithic frontier): %.1fs, %d numerical rescues (acceptance: 0)\n",
		report.WindowEvents, report.WindowWallS, report.WindowRescues)

	if cfg.benchJSON != "" {
		report.Generated = time.Now().UTC().Format(time.RFC3339)
		data, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(cfg.benchJSON, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", cfg.benchJSON)
	}
	return nil
}
