// Command bench is the repository's benchmark: five seeded workloads that
// drive the public entry points (a cold pcsched-style solve, the cluster
// power market, the windowed large-trace path, and the daemon's cache-hit
// and solve paths under open-loop traffic), each checked for correct answers
// and reported as end-to-end metrics, plus a traced mode that splits wall
// time across the modules. See README.md.
//
// run.sh builds it and runs it; it finds BENCHMARK.json in the working
// directory or above it:
//
//	bash bench/run.sh -seed 1                  # one set of all workloads
//	bash bench/run.sh -sets 2 -out a.json      # two interleaved sets
//	bash bench/run.sh -trace 1                 # per-layer self times
//	bash bench/run.sh -compare a.json b.json   # regressions under the bounds
//	bash bench/run.sh -workload solve-cold -seed 3 -seconds 15 -trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// A run sets up at least setups times and for at least setupBudget in all
// (see plan); setup_s is the median.
const (
	setups      = 7
	setupBudget = time.Second
)

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "run one workload and print its result as a JSON last line")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 0, "timed length of each run (0: run_seconds of BENCHMARK.json)")
	traceFlag := fs.Int("trace", 0, "1 traces every other op and reports the per-layer metrics, writing Chrome traces under bench/out/")
	sets := fs.Int("sets", 1, "sets of runs, interleaved workload by workload")
	out := fs.String("out", "", "write the report as JSON to this file")
	compare := fs.Bool("compare", false, "compare reports given as arguments: a.json b.json, or the first two sets of one")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		fmt.Fprintf(stderr, "bench: -trace %d, want 0 or 1\n", *traceFlag)
		return 2
	}
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 2))

	root, err := findRoot()
	var sp *spec
	if err == nil {
		sp, err = loadSpec(root)
	}
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if *compare {
		return runCompare(sp, fs.Args(), stdout, stderr)
	}
	g, err := loadGolden()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if *seconds <= 0 {
		*seconds = float64(sp.RunSeconds)
	}
	p := plan{seed: *seed, seconds: *seconds, setups: setups, setupBudget: setupBudget, sz: full, traced: *traceFlag == 1}
	if p.traced {
		p.outDir = filepath.Join(root, "bench", "out")
	}

	if *workload != "" {
		if !slices.Contains(workloadNames(), *workload) {
			fmt.Fprintf(stderr, "bench: unknown workload %q (have %v)\n", *workload, workloadNames())
			return 2
		}
		res := runWorkload(*workload, p)
		checkGolden(res, g, p.sz)
		fmt.Fprintln(stdout, stamp(*seed))
		printResult(stdout, res)
		line, ok := contractLine(sp, res, p.traced)
		fmt.Fprintln(stdout, string(line))
		if !ok {
			return 1
		}
		return 0
	}

	start := time.Now()
	rep := &Report{Stamp: stamp(*seed), Seconds: *seconds}
	for _, name := range workloadNames() {
		for set := 1; set <= *sets; set++ {
			res := runWorkload(name, p)
			res.Set = set
			checkGolden(res, g, p.sz)
			printResult(stdout, res)
			rep.Results = append(rep.Results, res)
		}
	}
	rep.WallS = time.Since(start).Seconds()
	fmt.Fprintf(stdout, "\nfull set: %.0f s wall, %s\n", rep.WallS, rep.Stamp)
	if *out != "" {
		if err := writeReport(*out, rep); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	for _, r := range rep.Results {
		if !r.Correct() {
			return 1
		}
	}
	return 0
}

// Report is one invocation's results with its stamp.
type Report struct {
	Stamp   Stamp     `json:"stamp"`
	Seconds float64   `json:"seconds"`
	Results []*Result `json:"results"`
	WallS   float64   `json:"wall_s"`
}

func (s Stamp) String() string {
	dirty := ""
	if s.Dirty {
		dirty = "+dirty"
	}
	return fmt.Sprintf("commit %.12s%s, %s, %d CPUs, GOMAXPROCS %d, %s, seed %d",
		s.Commit, dirty, s.Host, s.NProc, s.GOMAXPROCS, s.GoVersion, s.Seed)
}

func writeReport(path string, rep *Report) error {
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readReport(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep Report
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rep, nil
}

// contractLine is the result as one JSON object: correct, attempted,
// failed, and the end-to-end metrics (per-layer ones for a traced run) by
// the names and units of BENCHMARK.json.
func contractLine(sp *spec, res *Result, traced bool) ([]byte, bool) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	names, src := sp.EndToEnd, res.Metrics
	if traced {
		names, src = sp.PerLayer, res.Layers
	}
	ok := res.Correct()
	metrics := map[string]value{}
	for _, m := range names {
		v, found := src[m.Name]
		if !found || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			ok, v.Value = false, 0 // JSON carries no NaN or infinity
		}
		metrics[m.Name] = value{Value: v.Value, Unit: m.Unit}
	}
	failed := res.Failed
	if !ok && failed == 0 {
		failed = 1 // a set-up or golden-answer failure fails the run
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{ok, max(res.Attempted, failed), failed, metrics})
	if err != nil {
		panic(err) // only finite numbers and strings reach Marshal
	}
	return line, ok
}

func printResult(w io.Writer, r *Result) {
	verdict := "correct"
	if !r.Correct() {
		verdict = "INCORRECT"
	}
	noisy := ""
	if r.Noisy {
		noisy = " NOISY"
	}
	fmt.Fprintf(w, "\n%s set %d seed %d: %d ops, %d failed, %s; calib %.2f→%.2f ms%s; %.1f s wall\n",
		r.Workload, r.Set, r.Seed, r.Attempted, r.Failed, verdict, r.CalibBeforeMS, r.CalibAfterMS, noisy, r.WallS)
	for _, e := range r.Errors {
		fmt.Fprintf(w, "  error: %s\n", e)
	}
	for _, name := range []string{"setup_s", "p50_ms", "p75_ms", "p99_ms", "alloc_mb_per_op"} {
		v, ok := r.Metrics[name]
		if !ok {
			continue
		}
		tail := ""
		if v.Q1 != 0 || v.Q3 != 0 {
			tail = fmt.Sprintf(" q1=%.4f q3=%.4f", v.Q1, v.Q3)
		}
		if v.Unresolved {
			tail += " (unresolved: under 10 samples beyond)"
		}
		fmt.Fprintf(w, "  %-16s %12.4f %-4s n=%-5d%s\n", name, v.Value, v.Unit, v.N, tail)
	}
	if r.Workload == serveHit {
		fmt.Fprintf(w, "  generator lateness: p50 %.3f ms, max %.3f ms\n", r.LateP50MS, r.LateMaxMS)
	}
	if r.Layers == nil {
		return
	}
	wall := r.TracedWallMS
	fmt.Fprintf(w, "  layers (self ms per op, share of %.1f ms traced wall; self times sum to %.3f of wall):\n", wall, r.SelfSumFrac)
	for _, name := range timeLayers {
		v := r.Layers[name].Value
		if v == 0 {
			continue
		}
		fmt.Fprintf(w, "    %-22s %10.3f  %5.1f%%\n", name, v, 100*v/wall)
	}
	var others []string
	for name, m := range r.Layers {
		if m.Unit != "ms" || name == "service.solve_ms" {
			if m.Value != 0 {
				others = append(others, fmt.Sprintf("%s=%.6g %s", name, m.Value, m.Unit))
			}
		}
	}
	sort.Strings(others)
	for _, o := range others {
		fmt.Fprintf(w, "    %s\n", o)
	}
}
