package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"time"

	"powercap"
	"powercap/internal/workloads"
)

// The "market" exhibit evaluates the cluster power market (DESIGN.md §13):
// one site-wide budget divided across a fleet of jobs by three policies —
// uniform (the site-wide analogue of Static capping), proportional to
// saturation demand, and the shadow-price market, which starts every job at
// its demand and lowers the job whose next curve piece down is flattest
// until the caps fit the budget.
//
// Hypothesis: market ≤ proportional ≤ uniform in total makespan on
// heterogeneous mixes (different curve shapes give the market trades to
// make), with all three tying on the homogeneous control (identical curves
// mean uniform is already the equal-marginal point). The exhibit states
// CONFIRMED or FALSIFIED against measured totals. With -benchjson the
// measurements are written as BENCH_market.json.

// marketSizes parameterizes the exhibit so the smoke test can shrink it.
type marketSizes struct {
	ranks int // per job
	iters int
	scale float64
	mixes []string
	// budgetFrac places the budget between the fleet's floor sum (0) and
	// demand sum (1): deep enough in the constrained regime that curves
	// are steep, far enough from the floors that trades have room.
	budgetFrac float64
}

func defaultMarketSizes() marketSizes {
	return marketSizes{
		ranks:      4,
		iters:      3,
		scale:      0.3,
		mixes:      workloads.MixNames(),
		budgetFrac: 0.4,
	}
}

// marketPolicyResult is one policy's allocation on one mix. Iterations
// counts the market's lowering steps; Rescues the cold restarts the walks
// (and any numerical rescue of a fallback solve) took.
type marketPolicyResult struct {
	TotalMakespanS float64 `json:"total_makespan_s"`
	MaxMakespanS   float64 `json:"max_makespan_s"`
	Iterations     int     `json:"iterations"`
	MovedW         float64 `json:"moved_w"`
	Solves         int     `json:"solves"`
	Pivots         int     `json:"pivots"`
	Rescues        int     `json:"rescues"`
	WallS          float64 `json:"wall_s"`
}

// marketMixResult is one mix's three-policy comparison.
type marketMixResult struct {
	Mix           string                        `json:"mix"`
	Heterogeneous bool                          `json:"heterogeneous"`
	Jobs          []string                      `json:"jobs"`
	BudgetW       float64                       `json:"budget_w"`
	FloorSumW     float64                       `json:"floor_sum_w"`
	DemandSumW    float64                       `json:"demand_sum_w"`
	Policies      map[string]marketPolicyResult `json:"policies"`
	// MarketGainVsUniformPct is the market's total-makespan improvement
	// over uniform (positive = market faster).
	MarketGainVsUniformPct      float64 `json:"market_gain_vs_uniform_pct"`
	MarketGainVsProportionalPct float64 `json:"market_gain_vs_proportional_pct"`
}

// marketReport is the BENCH_market.json document.
type marketReport struct {
	RanksPerJob   int               `json:"ranks_per_job"`
	Iters         int               `json:"iters"`
	Scale         float64           `json:"scale"`
	BudgetFrac    float64           `json:"budget_frac"`
	Mixes         []marketMixResult `json:"mixes"`
	Hypothesis    string            `json:"hypothesis"`
	Confirmed     bool              `json:"confirmed"`
	HetMarketWins int               `json:"het_market_wins"`
	Generated     string            `json:"generated"`
}

const marketHypothesis = "market <= proportional <= uniform total makespan on heterogeneous mixes; ties on homogeneous"

func runMarket(cfg config) error {
	sz := defaultMarketSizes()
	if cfg.ranks != 0 && cfg.ranks < sz.ranks {
		sz.ranks = cfg.ranks // smoke configs may shrink, never grow
	}
	return runMarketSized(cfg, sz)
}

func runMarketSized(cfg config, sz marketSizes) error {
	fmt.Println("=== Cluster power market: total makespan by allocation policy ===")
	fmt.Printf("hypothesis: %s\n", marketHypothesis)
	fmt.Printf("%d ranks/job, %d iters, scale %.2f, budget at %.0f%% of floor→demand span\n\n",
		sz.ranks, sz.iters, sz.scale, sz.budgetFrac*100)

	ctx := context.Background()
	report := marketReport{
		RanksPerJob: sz.ranks,
		Iters:       sz.iters,
		Scale:       sz.scale,
		BudgetFrac:  sz.budgetFrac,
		Hypothesis:  marketHypothesis,
	}

	fmt.Printf("%-11s%6s%11s%11s%13s%11s%9s%8s%7s\n",
		"mix", "jobs", "budget(W)", "uniform(s)", "proportnl(s)", "market(s)", "gain(%)", "steps", "solves")
	for _, mix := range sz.mixes {
		res, err := runMarketMix(ctx, mix, sz)
		if err != nil {
			return fmt.Errorf("mix %s: %w", mix, err)
		}
		report.Mixes = append(report.Mixes, *res)
		m := res.Policies["market"]
		fmt.Printf("%-11s%6d%11.1f%11.3f%13.3f%11.3f%9.2f%8d%7d\n",
			res.Mix, len(res.Jobs), res.BudgetW,
			res.Policies["uniform"].TotalMakespanS,
			res.Policies["proportional"].TotalMakespanS,
			m.TotalMakespanS, res.MarketGainVsUniformPct, m.Iterations, m.Solves)
	}

	// Verdict: on every heterogeneous mix the market must not lose to
	// either baseline beyond tolerance, and it must strictly win against
	// uniform on at least two of them; the homogeneous control must tie.
	const losTolPct = 0.01 // "never loses" slack, percent
	const winTolPct = 0.05 // "strictly beats" threshold, percent
	const tieTolPct = 0.5  // homogeneous tie slack, percent
	confirmed := true
	var verdicts []string
	for _, res := range report.Mixes {
		gU, gP := res.MarketGainVsUniformPct, res.MarketGainVsProportionalPct
		switch {
		case !res.Heterogeneous:
			if gU < -tieTolPct {
				confirmed = false
				verdicts = append(verdicts, fmt.Sprintf("%s: market LOST the homogeneous tie by %.2f%%", res.Mix, -gU))
			} else {
				verdicts = append(verdicts, fmt.Sprintf("%s: homogeneous control ties (gain %.2f%%)", res.Mix, gU))
			}
		default:
			if gU < -losTolPct || gP < -losTolPct {
				confirmed = false
				verdicts = append(verdicts, fmt.Sprintf("%s: market LOSES (vs uniform %.2f%%, vs proportional %.2f%%)", res.Mix, gU, gP))
				continue
			}
			if gU > winTolPct {
				report.HetMarketWins++
				verdicts = append(verdicts, fmt.Sprintf("%s: market beats uniform by %.2f%% (vs proportional %+.2f%%)", res.Mix, gU, gP))
			} else {
				verdicts = append(verdicts, fmt.Sprintf("%s: market ~ties uniform (%.2f%%)", res.Mix, gU))
			}
			// The middle of the hypothesized chain (proportional <= uniform)
			// can fail: demand-proportional splits overfeed jobs with large
			// saturation demand but shallow curves. Report it — the market
			// claim stands on its own.
			if u, p := res.Policies["uniform"].TotalMakespanS, res.Policies["proportional"].TotalMakespanS; p > u*(1+losTolPct/100) {
				verdicts = append(verdicts, fmt.Sprintf("%s: note: proportional loses to uniform by %.2f%% (chain middle falsified)", res.Mix, 100*(p-u)/u))
			}
		}
	}
	if report.HetMarketWins < 2 {
		confirmed = false
		verdicts = append(verdicts, fmt.Sprintf("market strictly beat uniform on only %d heterogeneous mixes (need >= 2)", report.HetMarketWins))
	}
	report.Confirmed = confirmed

	fmt.Println()
	for _, v := range verdicts {
		fmt.Println("  " + v)
	}
	if confirmed {
		fmt.Printf("\nhypothesis CONFIRMED: market strictly beats uniform on %d heterogeneous mixes and never loses\n", report.HetMarketWins)
	} else {
		fmt.Println("\nhypothesis FALSIFIED — see verdicts above")
	}

	if cfg.benchJSON != "" {
		report.Generated = time.Now().UTC().Format(time.RFC3339)
		data, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(cfg.benchJSON, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("\nwrote %s\n", cfg.benchJSON)
	}
	return nil
}

// runMarketMix compares the three policies on one named mix. The budget is
// placed a fixed fraction of the way from the fleet's floor sum to its
// demand sum; both sums come from a probe allocation (uniform policy, very
// generous budget) so the placement is measured, not guessed.
func runMarketMix(ctx context.Context, mix string, sz marketSizes) (*marketMixResult, error) {
	mjobs, err := workloads.Mix(mix, workloads.Params{
		Ranks: sz.ranks, Iterations: sz.iters, Seed: 2, WorkScale: sz.scale,
	})
	if err != nil {
		return nil, err
	}
	jobs := make([]powercap.ClusterJob, len(mjobs))
	names := make([]string, len(mjobs))
	for i, mj := range mjobs {
		jobs[i] = powercap.ClusterJob{Name: mj.Name, Graph: mj.Workload.Graph, EffScale: mj.Workload.EffScale}
		names[i] = mj.Name
	}
	var opts powercap.ClusterOptions

	// Probe: generous budget, uniform split — only the per-job floors and
	// saturation demands matter.
	opts.Policy = powercap.PolicyUniform
	probe, err := powercap.AllocateCluster(ctx, jobs, 500*float64(len(jobs)*sz.ranks), nil, opts)
	if err != nil {
		return nil, fmt.Errorf("probe: %w", err)
	}
	var floorSum, demandSum float64
	for _, ja := range probe.Jobs {
		floorSum += ja.FloorW
		demandSum += ja.DemandW
	}
	budget := floorSum + sz.budgetFrac*(demandSum-floorSum)

	res := &marketMixResult{
		Mix:           mix,
		Heterogeneous: mix != "hom-sp",
		Jobs:          names,
		BudgetW:       budget,
		FloorSumW:     floorSum,
		DemandSumW:    demandSum,
		Policies:      map[string]marketPolicyResult{},
	}
	for _, pol := range []powercap.ClusterPolicy{
		powercap.PolicyUniform, powercap.PolicyProportional, powercap.PolicyMarket,
	} {
		opts.Policy = pol
		start := time.Now()
		alloc, err := powercap.AllocateCluster(ctx, jobs, budget, nil, opts)
		if err != nil {
			return nil, fmt.Errorf("policy %s: %w", pol, err)
		}
		res.Policies[string(pol)] = marketPolicyResult{
			TotalMakespanS: alloc.TotalMakespanS,
			MaxMakespanS:   alloc.MaxMakespanS,
			Iterations:     alloc.Iterations,
			MovedW:         alloc.MovedW,
			Solves:         alloc.Solves,
			Pivots:         alloc.Stats.SimplexIter,
			Rescues:        alloc.Stats.Rescues,
			WallS:          time.Since(start).Seconds(),
		}
	}
	u := res.Policies["uniform"].TotalMakespanS
	p := res.Policies["proportional"].TotalMakespanS
	m := res.Policies["market"].TotalMakespanS
	res.MarketGainVsUniformPct = 100 * (u - m) / u
	res.MarketGainVsProportionalPct = 100 * (p - m) / p
	return res, nil
}
