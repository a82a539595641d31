package main

import (
	"sort"

	"powercap/internal/obs"
)

// spanRec is one completed span on a nanosecond clock shared by its trace.
type spanRec struct {
	id, parent uint64
	name       string
	start, end int64
}

func fromRecords(recs []obs.SpanRecord) []spanRec {
	out := make([]spanRec, len(recs))
	for i, r := range recs {
		out[i] = spanRec{id: r.ID, parent: r.Parent, name: r.Name, start: r.StartNS, end: r.StartNS + r.DurNS}
	}
	return out
}

func fromEvents(evs []obs.Event) []spanRec {
	out := make([]spanRec, len(evs))
	for i, e := range evs {
		start := int64(e.TS * 1e3)
		out[i] = spanRec{id: e.ID, parent: e.Parent, name: e.Name, start: start, end: start + int64(e.Dur*1e3)}
	}
	return out
}

// selfTimes returns each span's self time: its duration minus the length of
// the union of all its descendants' intervals, each clipped to the span.
//
// Subtracting child durations instead goes wrong in two shapes the program
// emits. Children that run in parallel (speculative window solves on two
// workers) overlap, so their summed durations exceed the time they cover.
// And a child can be opened under a parent span that has already ended (the
// window.solve spans started from a finished window.build's context), so it
// lies partly or wholly outside its parent. The union, clipped, charges each
// instant of the parent once and never goes negative.
func selfTimes(spans []spanRec) []int64 {
	kids := make(map[uint64][]int, len(spans))
	for i, s := range spans {
		if s.parent != 0 {
			kids[s.parent] = append(kids[s.parent], i)
		}
	}
	out := make([]int64, len(spans))
	var ivs [][2]int64
	var stack []int
	for i, s := range spans {
		ivs = ivs[:0]
		stack = append(stack[:0], kids[s.id]...)
		for len(stack) > 0 {
			d := spans[stack[len(stack)-1]]
			stack = stack[:len(stack)-1]
			if lo, hi := max(d.start, s.start), min(d.end, s.end); lo < hi {
				ivs = append(ivs, [2]int64{lo, hi})
			}
			stack = append(stack, kids[d.id]...)
		}
		out[i] = (s.end - s.start) - unionLen(ivs)
	}
	return out
}

// unionLen is the total length covered by the intervals (sorted in place).
func unionLen(ivs [][2]int64) int64 {
	sort.Slice(ivs, func(a, b int) bool { return ivs[a][0] < ivs[b][0] })
	var total, curLo, curHi int64
	open := false
	for _, iv := range ivs {
		if open && iv[0] <= curHi {
			curHi = max(curHi, iv[1])
			continue
		}
		if open {
			total += curHi - curLo
		}
		curLo, curHi, open = iv[0], iv[1], true
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// unattributed collects self time of spans no layer claims: the
// benchmark's own glue around the public calls, and the service's HTTP and
// queueing time outside any span.
const unattributed = "unattributed_ms"

// spanLayer maps span names to the per-layer time metric their self time is
// charged to. The bench.* spans are the benchmark's own timers around public
// calls.
var spanLayer = map[string]string{
	"trace.parse":      "trace.decode_ms",
	"trace.decode":     "trace.decode_ms",
	"dag.slice":        "dag.slice_ms",
	"dag.validate":     "dag.validate_ms",
	"problem.ir":       "problem.build_ms",
	"problem.build":    "problem.build_ms",
	"pareto.frontier":  "problem.frontier_ms",
	"dag.coarsen":      "coarsen.ms",
	"core.solve":       "core.lp_build_ms",
	"core.iteration":   "core.lp_build_ms",
	"window.build":     "core.lp_build_ms",
	"window.solve":     "core.lp_build_ms",
	"lp.solve":         "lp.setup_ms",
	"lp.phase1":        "lp.phase1_ms",
	"lp.phase2":        "lp.phase2_ms",
	"lp.dual":          "lp.dual_ms",
	"lp.refactorize":   "lp.factor_ms",
	"schedule.realize": "schedule.realize_ms",
	"schedule.repair":  "schedule.realize_ms",
	"sim.evaluate":     "sim.evaluate_ms",
	"core.windowed":    "window.commit_ms",
	"window.plan":      "window.plan_ms",
	"window.stitch":    "window.stitch_ms",
	"market.floor":     "market.floor_ms",
	"market.allocate":  "market.iteration_ms",
	"market.iteration": "market.iteration_ms",
	// AllocateCluster's time outside market.allocate is building each job's
	// whole-graph LP for its cap session.
	"bench.allocate": "core.lp_build_ms",
	"bench.encode":   "encode.json_ms",
}

// layerTimes charges every span's self time to its layer, in milliseconds.
func layerTimes(spans []spanRec, into map[string]float64) {
	self := selfTimes(spans)
	for i, s := range spans {
		layer, ok := spanLayer[s.name]
		if !ok {
			layer = unattributed
		}
		into[layer] += float64(self[i]) / 1e6
	}
}
