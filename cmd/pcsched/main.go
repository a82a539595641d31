// Command pcsched generates a workload trace, solves the paper's
// fixed-vertex-order LP under a power constraint, and prints the resulting
// schedule with its replay validation — the end-to-end pipeline of the
// paper in one invocation.
//
// Usage:
//
//	pcsched -workload LULESH -ranks 16 -cap 50
//	pcsched -workload BT -cap 30 -policy all
//	pcsched -workload BT -cap 30 -policy all -json
//	pcsched -workload BT -cap 30 -policy lp -json
//	pcsched -workload SP -sweep 70:30:5 -workers 4
//	pcsched -workload SP -sweep 70:30:5 -workers 4 -json
//	pcsched -workload LULESH -cap 50 -trace trace.json
//
// With -policy all -json, the three-way comparison is emitted as JSON in
// the same schema pcschedd's POST /v1/compare returns; with -policy lp
// -json, the solve is emitted in the POST /v1/solve response schema
// (including the solver-effort stats block); with -sweep -json, the sweep
// is emitted in the POST /v1/sweep response schema at full precision. So
// scripted consumers can switch between the CLI and the service freely.
//
// -trace FILE records the whole solve pipeline — trace construction, IR
// build, LP phases, realization, simulation — as spans and writes a Chrome
// trace-event JSON document; open it in chrome://tracing or Perfetto.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"powercap"
	"powercap/internal/obs"
	"powercap/internal/service"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "pcsched:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) (err error) {
	fs := flag.NewFlagSet("pcsched", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name     = fs.String("workload", "CoMD", "workload: CoMD, LULESH, SP, BT, CG, or FT")
		ranks    = fs.Int("ranks", 16, "MPI ranks (one socket each)")
		iters    = fs.Int("iters", 8, "application iterations")
		seed     = fs.Int64("seed", 1, "workload seed")
		scale    = fs.Float64("scale", 1.0, "task work scale")
		capW     = fs.Float64("cap", 50, "per-socket average power cap (W)")
		policy   = fs.String("policy", "lp", "lp, static, conductor, or all")
		jsonOut  = fs.Bool("json", false, "emit JSON: with -sweep the /v1/sweep schema, with -policy all the /v1/compare schema, with -policy lp the /v1/solve schema")
		gantt    = fs.Bool("gantt", false, "render an ASCII timeline of the replayed LP schedule")
		sweep    = fs.String("sweep", "", "per-socket cap sweep \"hi:lo:step\" (W): solve the LP bound at every cap, warm-started; overrides -cap and -policy")
		workers  = fs.Int("workers", 1, "parallel sweep workers (contiguous cap chunks; only with -sweep)")
		realize  = fs.String("realize", "", "realize the LP schedule as an executable one: nearest, down, replay, or best (simulator-validated, reported with its bound gap)")
		traceOut = fs.String("trace", "", "write the pipeline spans of this run as Chrome trace-event JSON to FILE (chrome://tracing / Perfetto)")
		windows  = fs.Int("windows", 0, "solve by windowed decomposition with this many event windows (> 1; the large-trace path, see DESIGN.md §12)")
		coarsen  = fs.Float64("coarsen-eps", 0, "merge same-rank compute chains below this many seconds of work before solving (windowed path; 0 disables)")
		events   = fs.Int("events", 0, "use a synthetic Zipf trace with this many events instead of -workload (the large-trace generator)")
		cluster  = fs.String("cluster", "", "allocate one site-wide budget across the jobs in FILE (the /v1/cluster request schema) instead of solving a single workload; -json emits the /v1/cluster response schema")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *cluster != "" {
		return runCluster(*cluster, *jsonOut, stdout)
	}

	if *traceOut != "" {
		tr := obs.NewTrace(0)
		obs.SetGlobal(tr)
		defer func() {
			obs.SetGlobal(nil)
			f, ferr := os.Create(*traceOut)
			if ferr != nil {
				tr.Release()
				err = errors.Join(err, ferr)
				return
			}
			werr := obs.WriteChrome(f, tr)
			cerr := f.Close()
			fmt.Fprintf(stderr, "pcsched: trace: %d spans written to %s\n",
				len(tr.Snapshot()), *traceOut)
			tr.Release()
			err = errors.Join(err, werr, cerr)
		}()
	}

	var w *powercap.Workload
	if *events > 0 {
		w = powercap.SyntheticWorkload(powercap.SynthParams{
			Ranks: *ranks, Events: *events, Seed: *seed, WorkScale: *scale,
		})
	} else {
		w, err = powercap.WorkloadByName(*name, powercap.WorkloadParams{
			Ranks: *ranks, Iterations: *iters, Seed: *seed, WorkScale: *scale,
		})
		if err != nil {
			return err
		}
	}
	sys := powercap.SystemFor(w, nil)
	jobCap := *capW * float64(*ranks)

	if *jsonOut {
		switch {
		case *sweep != "":
			return runSweep(sys, w, *sweep, *ranks, *workers, true, stdout)
		case *policy == "all":
			return runCompareJSON(sys, w, *capW, stdout)
		case *policy == "lp":
			return runSolveJSON(sys, w, jobCap, *realize, *windows, *coarsen, stdout)
		default:
			return errors.New("-json requires -sweep, -policy all or -policy lp")
		}
	}

	fmt.Fprintf(stdout, "%s: %d ranks, %d iterations, %d tasks, %d MPI-call vertices\n",
		w.Name, *ranks, *iters, len(w.Graph.Tasks), len(w.Graph.Vertices))
	if *sweep != "" {
		return runSweep(sys, w, *sweep, *ranks, *workers, false, stdout)
	}
	fmt.Fprintf(stdout, "power constraint: %.0f W per socket, %.0f W job-level\n\n", *capW, jobCap)

	runLP := *policy == "lp" || *policy == "all"
	runStatic := *policy == "static" || *policy == "all"
	runConductor := *policy == "conductor" || *policy == "all"
	if !runLP && !runStatic && !runConductor {
		return fmt.Errorf("unknown policy %q", *policy)
	}

	if runStatic {
		res, err := sys.RunStatic(w.Graph, *capW)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "Static:    %.3f s (peak power %.1f W, avg %.1f W)\n",
			res.Makespan, res.PeakPowerW, res.AvgPower())
	}
	if runConductor {
		res, err := sys.RunConductor(w.Graph, jobCap)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "Conductor: %.3f s total, %.3f s measured (%d reallocations, %d misidentifications)\n",
			res.TotalS, res.MeasuredS, res.Reallocations, res.MisIdentified)
	}
	if runLP {
		var sched *powercap.Schedule
		if *windows > 1 || *coarsen > 0 {
			ws, err := sys.SolveWindowed(w.Graph, jobCap, powercap.WindowedOptions{
				Windows: *windows, OverlapEvents: -1, CoarsenEps: *coarsen,
			})
			if err != nil {
				if errors.Is(err, powercap.ErrInfeasible) {
					fmt.Fprintf(stdout, "LP: infeasible at %.0f W per socket\n", *capW)
					return nil
				}
				return err
			}
			sched = ws.Schedule
			fmt.Fprintf(stdout, "LP bound:  %.3f s windowed (%d windows, %d tasks merged; %d speculative + %d commit solves, %.0f%% warm-start hits, %d escalations; seam excess %.2g W, simulated %.3f s)\n",
				ws.MakespanS, ws.Windows, ws.MergedTasks, ws.SpeculativeSolves, ws.CommitSolves,
				ws.WarmStartRate()*100, ws.Escalations, ws.SeamViolationW, ws.SimMakespanS)
		} else {
			var err error
			sched, err = sys.UpperBound(w.Graph, jobCap)
			if err != nil {
				if errors.Is(err, powercap.ErrInfeasible) {
					fmt.Fprintf(stdout, "LP: infeasible at %.0f W per socket\n", *capW)
					return nil
				}
				return err
			}
			fmt.Fprintf(stdout, "LP bound:  %.3f s (%d LP solves, %d simplex pivots)\n",
				sched.MakespanS, sched.Stats.Solves, sched.Stats.SimplexIter)
			// One numerical-health line (DESIGN.md §16) whenever the kernel
			// had to work for stability — silent on a clean solve.
			if st := sched.Stats; st.NaNRecoveries > 0 || st.Rescues > 0 || st.BlandActivations > 0 || st.FactorTauRetries > 0 {
				fmt.Fprintf(stdout, "LP health: %d NaN recoveries, %d rescues, %d Bland activations, %d strict-pivot retries, %d pivot rejections, row-norm ratio %.1f\n",
					st.NaNRecoveries, st.Rescues, st.BlandActivations, st.FactorTauRetries, st.PivotRejections, st.RowNormRatio)
			}
		}

		printScheduleSummary(stdout, w, sched)

		rep, err := sys.Replay(w.Graph, sched, false)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "\nreplay (discrete rounding): %.3f s, %d switches (%d suppressed), cap violation %.2f W\n",
			rep.MakespanS, rep.Switches, rep.Suppressed, rep.CapViolationW)
		if *realize != "" {
			rl, err := sys.RealizeSchedule(w.Graph, sched, *realize)
			if err != nil {
				return err
			}
			fmt.Fprintf(stdout, "realized (%s): %.3f s, bound gap %.2f%%, %d repairs, %d switches, cap violation %.2f W\n",
				rl.Strategy, rl.MakespanS, rl.BoundGapPct, rl.Repairs, rl.Switches, rl.CapViolationW)
		}
		if *gantt {
			fmt.Fprintln(stdout)
			fmt.Fprint(stdout, rep.Result.Gantt(w.Graph, 100))
		}
	}
	return nil
}

// runCluster reads a cluster request (the POST /v1/cluster schema) from
// file and divides its site-wide budget across the jobs locally — the
// daemon-less path to the cluster power market. With -json the result is
// emitted in the /v1/cluster response schema (minus the daemon-only
// request_id/cache fields), so consumers can switch between CLI and
// service freely; otherwise a per-job table plus the allocation summary
// is printed.
func runCluster(path string, jsonOut bool, stdout io.Writer) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	// Strict, as the daemon decodes /v1/cluster: a misspelled or retired
	// field is an error, not a silently ignored key.
	var req service.ClusterRequest
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	ctx := context.Background()
	in, err := service.ResolveCluster(ctx, &req)
	if err != nil {
		return err
	}
	budget := in.BudgetW

	alloc, err := powercap.AllocateCluster(ctx, in.Jobs, budget, nil, in.Opts)
	var budgetErr *powercap.BudgetError
	if err != nil && !errors.As(err, &budgetErr) {
		return err
	}
	resp := service.NewClusterResponse(in, alloc, budgetErr, nil)

	if jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(resp)
	}

	fmt.Fprintf(stdout, "cluster: %d jobs, %.1f W site budget, %s policy\n\n",
		len(in.Jobs), budget, resp.Policy)
	if resp.Infeasible {
		fmt.Fprintf(stdout, "INFEASIBLE: floors sum to %.1f W, %.1f W over budget\n\n",
			resp.FloorSumW, resp.FloorSumW-budget)
		fmt.Fprintf(stdout, "%-16s%12s\n", "job", "floor(W)")
		for _, f := range resp.Floors {
			fmt.Fprintf(stdout, "%-16s%12.1f\n", f.Name, f.FloorW)
		}
		return nil
	}
	fmt.Fprintf(stdout, "%-16s%-10s%9s%10s%11s%10s%14s%5s\n",
		"job", "workload", "cap(W)", "floor(W)", "demand(W)", "time(s)", "marg(s/W)", "")
	for _, j := range resp.Jobs {
		mark := ""
		if j.Degraded {
			mark = " [degraded: " + j.DegradedReason + "]"
		}
		fmt.Fprintf(stdout, "%-16s%-10s%9.1f%10.1f%11.1f%10.3f%14.5f%s\n",
			j.Name, j.Workload, j.CapW, j.FloorW, j.DemandW, j.MakespanS, j.MarginalSecPerW, mark)
	}
	fmt.Fprintf(stdout, "\ntotal %.3f s, slowest job %.3f s\n", resp.TotalMakespanS, resp.MaxMakespanS)
	fmt.Fprintf(stdout, "%d lowering steps, %.1f W moved from the uniform split\n",
		resp.Iterations, resp.MovedW)
	if resp.Stats != nil {
		fmt.Fprintf(stdout, "%d LP solves (%d warm starts, %d simplex + %d dual pivots)\n",
			resp.Solves, resp.Stats.WarmStarts, resp.Stats.SimplexPivots, resp.Stats.DualPivots)
	}
	return nil
}

// runCompareJSON emits the three-way comparison in the service's
// /v1/compare response schema.
func runCompareJSON(sys *powercap.System, w *powercap.Workload, perSocketW float64, stdout io.Writer) error {
	cmp, err := sys.Compare(w, perSocketW)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(&service.CompareResponse{Comparison: *cmp})
}

// runSolveJSON solves the decomposed LP and emits the result in the
// service's /v1/solve response schema — same cache key, graph digest, and
// solver-effort stats block the daemon reports for the identical request,
// so CLI and service numbers can be diffed directly.
func runSolveJSON(sys *powercap.System, w *powercap.Workload, jobCap float64, realize string, windows int, coarsenEps float64, stdout io.Writer) error {
	resp := &service.SolveResponse{
		Key:         sys.ScheduleKey(w.Graph, jobCap, false, realize, windows, coarsenEps),
		GraphDigest: powercap.GraphDigest(w.Graph),
		Workload:    w.Name,
		JobCapW:     jobCap,
	}
	var sched *powercap.Schedule
	var err error
	if windows > 1 || coarsenEps > 0 {
		var ws *powercap.WindowedSchedule
		ws, err = sys.SolveWindowed(w.Graph, jobCap, powercap.WindowedOptions{
			Windows: windows, OverlapEvents: -1, CoarsenEps: coarsenEps,
		})
		if err == nil {
			sched = ws.Schedule
			resp.Windowed = service.NewWindowedJSON(ws)
		}
	} else {
		sched, err = sys.UpperBound(w.Graph, jobCap)
	}
	if err != nil {
		if !errors.Is(err, powercap.ErrInfeasible) {
			return err
		}
		resp.Infeasible = true
	} else {
		resp.MakespanS = sched.MakespanS
		resp.MarginalSecPerW = sched.MarginalSecPerW
		resp.IterationMakespans = sched.IterationMakespans
		resp.Stats = service.NewStatsJSON(sched.Stats)
		if realize != "" {
			rl, err := sys.RealizeSchedule(w.Graph, sched, realize)
			if err != nil {
				return err
			}
			resp.Realized = service.NewRealizedJSON(rl)
		}
	}
	enc := json.NewEncoder(stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(resp)
}

// printScheduleSummary aggregates the LP's choices per task class.
func printScheduleSummary(stdout io.Writer, w *powercap.Workload, sched *powercap.Schedule) {
	type agg struct {
		n        int
		power    float64
		duration float64
		threads  map[int]int
	}
	classes := map[string]*agg{}
	for tid, task := range w.Graph.Tasks {
		ch := sched.Choices[tid]
		if len(ch.Mix) == 0 {
			continue
		}
		a := classes[task.Class]
		if a == nil {
			a = &agg{threads: map[int]int{}}
			classes[task.Class] = a
		}
		a.n++
		a.power += ch.PowerW
		a.duration += ch.DurationS
		a.threads[ch.Discrete.Threads]++
	}
	var names []string
	for c := range classes {
		names = append(names, c)
	}
	sort.Strings(names)
	fmt.Fprintf(stdout, "\n%-12s%8s%14s%14s%12s\n", "class", "tasks", "avg power(W)", "avg time(s)", "threads")
	for _, c := range names {
		a := classes[c]
		fmt.Fprintf(stdout, "%-12s%8d%14.1f%14.3f%12s\n", c, a.n,
			a.power/float64(a.n), a.duration/float64(a.n), threadSet(a.threads))
	}
}

func threadSet(ts map[int]int) string {
	var ks []int
	for k := range ts {
		ks = append(ks, k)
	}
	sort.Ints(ks)
	s := ""
	for i, k := range ks {
		if i > 0 {
			s += ","
		}
		s += fmt.Sprintf("%d", k)
	}
	return s
}

// runSweep evaluates the LP bound across a per-socket cap family and prints
// one row per cap with the per-solve instrumentation, or with jsonOut the
// whole sweep in the /v1/sweep response schema at full precision. The spec
// is validated by powercap.ParseSweepSpec: malformed specs (step ≤ 0,
// hi < lo, non-numeric fields) are rejected with a descriptive error
// instead of being silently reinterpreted.
func runSweep(sys *powercap.System, w *powercap.Workload, spec string, ranks, workers int, jsonOut bool, stdout io.Writer) error {
	perCaps, err := powercap.ParseSweepSpec(spec)
	if err != nil {
		return err
	}
	jobCaps := make([]float64, len(perCaps))
	for i, c := range perCaps {
		jobCaps[i] = c * float64(ranks)
	}
	if !jsonOut {
		fmt.Fprintf(stdout, "sweep: %.0f → %.0f W per socket (%d caps, %d workers)\n\n",
			perCaps[0], perCaps[len(perCaps)-1], len(perCaps), workers)
	}

	pts, err := sys.SweepParallel(w.Graph, jobCaps, workers)
	if err != nil {
		return err
	}
	if jsonOut {
		resp, _ := service.NewSweepResponse(w.Name, powercap.DigestOf(w.Graph), perCaps, pts)
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(resp)
	}
	fmt.Fprintf(stdout, "%10s%12s%14s%8s%8s%8s%8s\n",
		"W/socket", "bound(s)", "marg(s/W)", "pivots", "dual", "warm", "refac")
	for i, pt := range pts {
		if pt.Err != nil {
			if errors.Is(pt.Err, powercap.ErrInfeasible) {
				fmt.Fprintf(stdout, "%10.1f%12s\n", perCaps[i], "infeasible")
				continue
			}
			return pt.Err
		}
		st := pt.Schedule.Stats
		fmt.Fprintf(stdout, "%10.1f%12.3f%14.5f%8d%8d%8d%8d\n",
			perCaps[i], pt.Schedule.MakespanS, pt.Schedule.MarginalSecPerW,
			st.SimplexIter, st.DualIter, st.WarmStarts, st.Refactorizations)
	}
	return nil
}
