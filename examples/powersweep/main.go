// Powersweep: trace the LP performance bound of one workload across a fine
// grid of job-level power constraints — the time/power tradeoff curve a
// job scheduler would consult when deciding how much power to grant a job.
//
// Run with:
//
//	go run ./examples/powersweep
package main

import (
	"errors"
	"fmt"
	"log"
	"strings"

	"powercap"
)

func main() {
	w := powercap.NewWorkload("LULESH", powercap.WorkloadParams{
		Ranks: 8, Iterations: 5, Seed: 3, WorkScale: 0.5,
	})
	sys := powercap.SystemFor(w, nil)

	// One warm-started sweep: each iteration slice re-solved from cap to cap.
	var jobCaps []float64
	for perSocket := 24.0; perSocket <= 80; perSocket += 4 {
		jobCaps = append(jobCaps, perSocket*float64(w.Graph.NumRanks))
	}
	pts, err := sys.SolveSweep(w.Graph, jobCaps)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("LULESH proxy: LP makespan bound vs job power")
	fmt.Printf("%-14s%14s%14s  %s\n", "W/socket", "bound(s)", "marginal", "")
	prev := 0.0
	for _, pt := range pts {
		perSocket, sched, err := pt.CapW/float64(w.Graph.NumRanks), pt.Schedule, pt.Err
		if err != nil {
			if errors.Is(err, powercap.ErrInfeasible) {
				fmt.Printf("%-14.0f%14s\n", perSocket, "infeasible")
				continue
			}
			log.Fatal(err)
		}
		marginal := ""
		if prev > 0 {
			marginal = fmt.Sprintf("%+.1f%%", (sched.MakespanS/prev-1)*100)
		}
		bars := int(sched.MakespanS / 0.1)
		if bars > 60 {
			bars = 60
		}
		fmt.Printf("%-14.0f%14.3f%14s  %s\n", perSocket, sched.MakespanS, marginal, strings.Repeat("#", bars))
		prev = sched.MakespanS
	}
	fmt.Println("\nThe curve is convex: each additional watt buys less time — the LP's")
	fmt.Println("convex Pareto frontiers compose into a convex job-level tradeoff.")
}
