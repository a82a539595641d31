// Jobpartition: the paper's motivating setting — "total machine power will
// be divided across multiple simultaneous jobs, with each job being
// allocated a power bound". Given two jobs sharing one budget, use the LP
// bound of each job as a function of its allocation to find the split that
// minimizes the later finisher: solve both jobs at every split on a 15 W
// grid and keep the best. Because each job's time/power curve is convex (a
// consequence of the convex Pareto frontiers) and non-increasing, the later
// finisher's time is unimodal in the split, so the optimum lies within one
// grid step of the best split found.
//
// Run with:
//
//	go run ./examples/jobpartition
package main

import (
	"errors"
	"fmt"
	"log"
	"math"

	"powercap"
)

func main() {
	jobA := powercap.NewWorkload("BT", powercap.WorkloadParams{Ranks: 4, Iterations: 4, Seed: 4, WorkScale: 0.4})
	jobB := powercap.NewWorkload("CoMD", powercap.WorkloadParams{Ranks: 4, Iterations: 4, Seed: 4, WorkScale: 0.4})
	sysA := powercap.SystemFor(jobA, nil)
	sysB := powercap.SystemFor(jobB, nil)

	const totalW = 300.0 // shared machine budget for both 4-socket jobs

	boundAt := func(sys *powercap.System, w *powercap.Workload, capW float64) (float64, bool) {
		sched, err := sys.UpperBound(w.Graph, capW)
		if err != nil {
			if errors.Is(err, powercap.ErrInfeasible) {
				return math.Inf(1), false
			}
			log.Fatal(err)
		}
		return sched.MakespanS, true
	}

	fmt.Printf("splitting %.0f W between BT and CoMD (4 sockets each)\n\n", totalW)
	fmt.Printf("%-14s%14s%14s%14s\n", "BT share(W)", "BT time(s)", "CoMD time(s)", "max(s)")
	best, bestAt := math.Inf(1), 0.0
	for capA := 90.0; capA <= totalW-90; capA += 15 {
		tA, okA := boundAt(sysA, jobA, capA)
		tB, okB := boundAt(sysB, jobB, totalW-capA)
		row := fmt.Sprintf("%-14.0f", capA)
		if okA {
			row += fmt.Sprintf("%14.3f", tA)
		} else {
			row += fmt.Sprintf("%14s", "infeasible")
		}
		if okB {
			row += fmt.Sprintf("%14.3f", tB)
		} else {
			row += fmt.Sprintf("%14s", "infeasible")
		}
		worst := math.Max(tA, tB)
		if okA && okB {
			row += fmt.Sprintf("%14.3f", worst)
			if worst < best {
				best, bestAt = worst, capA
			}
		}
		fmt.Println(row)
	}
	fmt.Printf("\nbest split: %.0f W to BT, %.0f W to CoMD → both jobs finish within %.3f s\n",
		bestAt, totalW-bestAt, best)
	fmt.Println("(the LP bound per job turns cluster-level power scheduling into a")
	fmt.Println("one-dimensional convex search — the \"quantitative optimization target\"")
	fmt.Println("the paper's conclusion promises future runtimes)")
}
