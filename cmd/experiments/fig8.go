package main

import (
	"errors"
	"fmt"
	"math"

	"powercap/internal/core"
	"powercap/internal/flowilp"
	"powercap/internal/machine"
)

// runFig8 compares the flow ILP against the fixed-vertex-order LP on a
// two-process asynchronous message exchange across a fine sweep of total
// power limits (paper Fig. 8: 106 caps; agreement within 1.9% beyond the
// tightest limits).
func runFig8(cfg config) error {
	header("Figure 8 — Flow vs. Fixed-Vertex Order",
		"Two-process asynchronous message exchange; schedule time vs total power")
	g := fig2Graph(cfg.scale)
	m := machine.Default()
	fixed := core.NewSolver(m, nil)
	flow := flowilp.NewSolver(m, nil)

	// 106 total-power limits, like the paper. Our sockets draw 13.5–92 W
	// each, so the interesting band for two processes is ~30–120 W.
	const nCaps = 106
	lo, hi := 30.0, 120.0

	fmt.Printf("%-12s%14s%14s%10s\n", "power(W)", "fixed(s)", "flow(s)", "gap(%)")
	worstGap, worstAt := 0.0, 0.0
	agreeCount, total := 0, 0
	for i := 0; i < nCaps; i++ {
		capW := lo + (hi-lo)*float64(i)/float64(nCaps-1)
		fres, ferr := flow.Solve(g, capW)
		lres, lerr := fixed.Solve(g, capW)
		switch {
		case ferr != nil && lerr != nil:
			fmt.Printf("%-12.2f%14s%14s%10s\n", capW, "infeas", "infeas", "-")
			continue
		case ferr != nil:
			if errors.Is(ferr, flowilp.ErrInfeasible) {
				fmt.Printf("%-12.2f%14.4f%14s%10s\n", capW, lres.MakespanS, "infeas", "-")
				continue
			}
			return ferr
		case lerr != nil:
			fmt.Printf("%-12.2f%14s%14.4f%10s\n", capW, "infeas", fres.MakespanS, "-")
			continue
		}
		gap := (lres.MakespanS - fres.MakespanS) / fres.MakespanS * 100
		total++
		if gap <= 1.9 {
			agreeCount++
		}
		if gap > worstGap {
			worstGap, worstAt = gap, capW
		}
		fmt.Printf("%-12.2f%14.4f%14.4f%10s\n", capW, lres.MakespanS, fres.MakespanS, gapPct(gap))
	}
	fmt.Printf("\n%d/%d caps agree within 1.9%% (paper: all but 3 of 106); worst gap %.2f%% at %.1f W\n",
		agreeCount, total, worstGap, worstAt)

	// How much extra power closes the worst gap? (Paper: "less than a
	// watt of additional power".)
	if worstGap > 0 {
		fres, err1 := flow.Solve(g, worstAt)
		if err1 == nil {
			extra := math.NaN()
			for dw := 0.1; dw <= 5.0; dw += 0.1 {
				lres, err := fixed.Solve(g, worstAt+dw)
				if err == nil && lres.MakespanS <= fres.MakespanS*1.001 {
					extra = dw
					break
				}
			}
			fmt.Printf("additional power for fixed-order to match flow at %.1f W: %.1f W\n", worstAt, extra)
		}
	}
	_ = machine.Default()
	return nil
}

// gapPct renders a gap in percent to two places. A gap that rounds to zero
// prints 0.00 whatever its sign, so last-ulp noise in the two makespans
// cannot flip an entry between -0.00 and 0.00.
func gapPct(gap float64) string {
	s := fmt.Sprintf("%.2f", gap)
	if s == "-0.00" {
		return "0.00"
	}
	return s
}
