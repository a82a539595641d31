// Shadowprice: the LP's dual values price power in seconds per watt — the
// marginal information a power-aware job scheduler needs when deciding
// which job should receive the next watt (the paper's motivating setting:
// "total machine power will be divided across multiple simultaneous jobs").
// The curve itself is powercap.MarginalCurve, read off the walk the
// cluster market takes: each job's iteration slices walked down the cap
// axis in lock step. The cluster-level allocator that acts on these prices
// is powercap.AllocateCluster.
//
// Run with:
//
//	go run ./examples/shadowprice
package main

import (
	"context"
	"fmt"
	"log"

	"powercap"
)

func main() {
	// Two jobs compete for one power budget: a power-hungry BT and a
	// contention-limited LULESH.
	bt := powercap.NewWorkload("BT", powercap.WorkloadParams{Ranks: 4, Iterations: 5, Seed: 2, WorkScale: 0.4})
	lu := powercap.NewWorkload("LULESH", powercap.WorkloadParams{Ranks: 4, Iterations: 5, Seed: 2, WorkScale: 0.4})

	perSocket := []float64{30, 35, 40, 50, 60, 70}
	caps := make([]float64, len(perSocket))
	for i, w := range perSocket {
		caps[i] = w * 4 // 4 ranks → job-level caps
	}

	curves := make(map[string][]powercap.MarginalPoint)
	for _, w := range []*powercap.Workload{bt, lu} {
		curve, err := powercap.SystemFor(w, nil).MarginalCurve(context.Background(), w.Graph, caps)
		if err != nil {
			log.Fatal(err)
		}
		curves[w.Name] = curve
	}

	fmt.Println("Marginal value of power (seconds of makespan per extra watt):")
	fmt.Printf("%-12s%16s%16s\n", "W/socket", "BT (s/W)", "LULESH (s/W)")
	for i, w := range perSocket {
		row := fmt.Sprintf("%-12.0f", w)
		for _, name := range []string{bt.Name, lu.Name} {
			pt := curves[name][i]
			if pt.Infeasible {
				row += fmt.Sprintf("%16s", "infeasible")
			} else {
				row += fmt.Sprintf("%16.4f", pt.MarginalSecPerW)
			}
		}
		fmt.Println(row)
	}

	fmt.Println("\nA job scheduler holding a shared budget should grant the next watt to")
	fmt.Println("the job with the most negative shadow price; as caps loosen, the prices")
	fmt.Println("decay toward zero and extra power stops buying time.")
}
