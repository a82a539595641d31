package main

// The per-layer metrics, named after the modules. Traced runs report all of
// them; BENCHMARK.json lists perLayer(), and spec.check keeps the two in
// step.

// timeLayers are self times in milliseconds per op (per request for
// the daemon), from traced ops; spanLayer says which spans feed each.
var timeLayers = []string{
	"trace.decode_ms",
	"dag.slice_ms",
	"dag.validate_ms",
	"problem.build_ms",
	"problem.frontier_ms",
	"coarsen.ms",
	"core.lp_build_ms",
	"lp.setup_ms",
	"lp.phase1_ms",
	"lp.phase2_ms",
	"lp.dual_ms",
	"lp.factor_ms",
	"schedule.realize_ms",
	"sim.evaluate_ms",
	"window.plan_ms",
	"window.commit_ms",
	"window.stitch_ms",
	"market.floor_ms",
	"market.iteration_ms",
	"encode.json_ms",
	unattributed,
}

// everyWorkload marks the time layers every workload runs. Only these are
// in BENCHMARK.json: a layer a workload never runs reads 0 ms on every run
// of it, which is not a measurement. (serve-hit's misses run no simulator,
// so sim.evaluate_ms is not among them.)
var everyWorkload = map[string]bool{
	"problem.build_ms": true,
	"core.lp_build_ms": true,
	"lp.setup_ms":      true,
	"lp.phase1_ms":     true,
	"lp.phase2_ms":     true,
	"lp.factor_ms":     true,
	unattributed:       true,
}

type layerCount struct{ name, unit string }

// countLayers are counts and ratios per op (per request on the daemon). A
// layer a workload does not run reports 0. Traced runs also report
// trace.mb_per_s and service.solve_ms where a workload has them.
var countLayers = []layerCount{
	{"problem.builds", "count/op"},
	{"coarsen.merged_tasks", "count/op"},
	{"core.lp_solves", "count/op"},
	{"core.lp_rows", "count/op"},
	{"lp.pivots", "count/op"},
	{"lp.dual_pivots", "count/op"},
	{"lp.refactorizations", "count/op"},
	{"lp.warm_start_frac", "fraction"},
	{"lp.presolve_rows", "count/op"},
	{"schedule.repairs", "count/op"},
	{"window.count", "count/op"},
	{"window.speculative_solves", "count/op"},
	{"window.commit_solves", "count/op"},
	{"window.warm_frac", "fraction"},
	{"window.escalations", "count/op"},
	{"window.rescues", "count/op"},
	{"market.solves", "count/op"},
	{"market.iterations", "count/op"},
	{"market.warm_frac", "fraction"},
	{"market.moved_w", "W/op"},
	{"service.hit_ratio", "fraction"},
	{"service.coalesced", "count/op"},
	{"service.solves", "count/op"},
	{"service.rejected", "count/op"},
	{"obs.overhead_frac", "fraction"},
}

// endToEnd are the end-to-end metrics of BENCHMARK.json, which every
// workload run reports. Runs also report p75 and p99; see README.md for
// why they carry no bound.
var endToEnd = []layerCount{
	{"setup_s", "s"},
	{"p50_ms", "ms"},
	{"alloc_mb_per_op", "MB"},
}

// perLayer lists the per-layer metrics of BENCHMARK.json with their units.
func perLayer() []layerCount {
	var out []layerCount
	for _, n := range timeLayers {
		if everyWorkload[n] {
			out = append(out, layerCount{n, "ms"})
		}
	}
	return append(out, countLayers...)
}
