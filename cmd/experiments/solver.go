package main

import (
	"encoding/json"
	"fmt"
	"os"
	"time"

	"powercap/internal/core"
	"powercap/internal/dag"
	"powercap/internal/machine"
	"powercap/internal/workloads"
)

// The "solver" exhibit measures the LP kernel on a power-cap sweep
// (DESIGN.md §14): a cold solve at every cap against the warm-started sweep
// that builds the LP once and repairs the previous basis with dual simplex
// pivots. With -benchjson the measurements are also written as
// machine-readable JSON.

// solverRun is one strategy's aggregate over the sweep.
type solverRun struct {
	Name       string  `json:"name"`
	WallS      float64 `json:"wall_s"`
	Solves     int     `json:"solves"`
	Pivots     int     `json:"pivots"`
	DualPivots int     `json:"dual_pivots"`
	WarmStarts int     `json:"warm_starts"`
}

// solverReport is the exhibit's JSON document.
type solverReport struct {
	Workload  string      `json:"workload"`
	Ranks     int         `json:"ranks"`
	CapsPerW  []float64   `json:"caps_per_socket_w"`
	Runs      []solverRun `json:"runs"`
	SpeedupX  float64     `json:"speedup_warm_vs_cold"`
	Generated string      `json:"generated"`
}

func runSolver(cfg config) error {
	header("Solver engine", "power-cap sweep cost: cold solves vs the warm-started sweep (one SP iteration slice)")
	w := workloads.SP(workloads.Params{Ranks: cfg.ranks, Iterations: 4, Seed: cfg.seed, WorkScale: cfg.scale})
	slices, err := dag.SliceAll(w.Graph)
	if err != nil {
		return err
	}
	si := 2
	if si >= len(slices) {
		si = len(slices) - 1
	}
	g := slices[si].Graph

	var perCaps []float64
	var caps []float64
	for per := 70.0; per >= 30; per -= 10 {
		perCaps = append(perCaps, per)
		caps = append(caps, per*float64(cfg.ranks))
	}

	measure := func(name string, warm bool) (solverRun, error) {
		s := core.NewSolver(machine.Default(), w.EffScale)
		var st core.Stats
		start := time.Now()
		if warm {
			pts, err := s.SolveSweep(g, caps)
			if err != nil {
				return solverRun{}, err
			}
			for _, pt := range pts {
				if pt.Err != nil {
					return solverRun{}, pt.Err
				}
				st.Add(pt.Schedule.Stats)
			}
		} else {
			for _, c := range caps {
				sched, err := s.Solve(g, c)
				if err != nil {
					return solverRun{}, err
				}
				st.Add(sched.Stats)
			}
		}
		return solverRun{
			Name:       name,
			WallS:      time.Since(start).Seconds(),
			Solves:     st.Solves,
			Pivots:     st.SimplexIter,
			DualPivots: st.DualIter,
			WarmStarts: st.WarmStarts,
		}, nil
	}

	var runs []solverRun
	for _, spec := range []struct {
		name string
		warm bool
	}{{"cold", false}, {"warm", true}} {
		fmt.Fprintf(os.Stderr, "  sweeping %s...\n", spec.name)
		r, err := measure(spec.name, spec.warm)
		if err != nil {
			return err
		}
		runs = append(runs, r)
	}

	fmt.Printf("%-10s%10s%8s%10s%8s%8s\n", "strategy", "wall(s)", "solves", "pivots", "dual", "warm")
	for _, r := range runs {
		fmt.Printf("%-10s%10.2f%8d%10d%8d%8d\n", r.Name, r.WallS, r.Solves, r.Pivots, r.DualPivots, r.WarmStarts)
	}
	speedup := 0.0
	if runs[1].WallS > 0 {
		speedup = runs[0].WallS / runs[1].WallS
	}
	fmt.Printf("\nwarm sweep is %.1fx faster than cold solves\n", speedup)

	if cfg.benchJSON != "" {
		report := solverReport{
			Workload:  w.Name,
			Ranks:     cfg.ranks,
			CapsPerW:  perCaps,
			Runs:      runs,
			SpeedupX:  speedup,
			Generated: time.Now().UTC().Format(time.RFC3339),
		}
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
