package main

import (
	"fmt"
	"io"
	"sort"
)

// Verdicts of a comparison row.
const (
	pass       = "pass"
	regress    = "regress"
	unresolved = "unresolved"
)

// cmpRow compares one end-to-end metric on one workload: the medians over
// each side's runs, the change as a share of the base median (positive is
// worse), the wider of the two sides' run-to-run spreads, and the bound.
// noisy says a run of the workload was flagged by the calibration loop; it
// is shown on the row and does not change the verdict.
type cmpRow struct {
	metric, workload      string
	base, next            float64
	change, spread, bound float64
	noisy                 bool
	verdict               string
}

// compareResults applies each end-to-end metric's bound per workload. A
// metric whose run-to-run spread is wider than its bound cannot show a
// regression of that size, so it is unresolved, unless every run of next
// reads better than every run of base. Otherwise a change past the bound is
// a regression.
func compareResults(sp *spec, base, next []*Result) []cmpRow {
	var rows []cmpRow
	for _, w := range workloadNames() {
		noisy := anyNoisy(base, w) || anyNoisy(next, w)
		for _, m := range sp.EndToEnd {
			b, n := metricValues(base, w, m.Name), metricValues(next, w, m.Name)
			if len(b) == 0 || len(n) == 0 {
				continue
			}
			r := cmpRow{metric: m.Name, workload: w, base: median(b), next: median(n), bound: m.Bound, noisy: noisy}
			sign := 1.0
			if m.Better == "higher" {
				sign = -1
			}
			r.change = sign * (r.next - r.base) / r.base
			r.spread = max(relSpread(b), relSpread(n))
			switch {
			case r.spread > r.bound && allBetter(n, b, sign):
				r.verdict = pass
			case r.spread > r.bound:
				r.verdict = unresolved
			case r.change > r.bound:
				r.verdict = regress
			default:
				r.verdict = pass
			}
			rows = append(rows, r)
		}
	}
	return rows
}

func anyNoisy(rs []*Result, workload string) bool {
	for _, r := range rs {
		if r.Workload == workload && !r.Traced && r.Noisy {
			return true
		}
	}
	return false
}

func metricValues(rs []*Result, workload, metric string) []float64 {
	var out []float64
	for _, r := range rs {
		if m, ok := r.Metrics[metric]; ok && r.Workload == workload && !r.Traced {
			out = append(out, m.Value)
		}
	}
	return out
}

// relSpread is the distance between the quartiles as a share of the median.
func relSpread(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return (quantile(s, 0.75) - quantile(s, 0.25)) / quantile(s, 0.5)
}

// allBetter reports whether every value of next beats every value of base;
// sign is 1 when lower is better and -1 when higher is.
func allBetter(next, base []float64, sign float64) bool {
	for _, n := range next {
		for _, b := range base {
			if sign*(n-b) >= 0 {
				return false
			}
		}
	}
	return true
}

// countDiffs lists, per workload, the counts that do not repeat exactly
// across every run of both sides.
func countDiffs(base, next []*Result) []string {
	var out []string
	for _, w := range workloadNames() {
		var runs []map[string]float64
		for _, r := range append(append([]*Result(nil), base...), next...) {
			if r.Workload == w && !r.Traced {
				runs = append(runs, r.Counts)
			}
		}
		keys := map[string]bool{}
		for _, c := range runs {
			for k := range c {
				keys[k] = true
			}
		}
		for k := range keys {
			v0, ok0 := runs[0][k]
			for _, c := range runs[1:] {
				if v, ok := c[k]; ok != ok0 || v != v0 {
					out = append(out, w+" "+k)
					break
				}
			}
		}
	}
	sort.Strings(out)
	return out
}

// sets splits a report's untraced results by set number.
func sets(rep *Report) map[int][]*Result {
	out := map[int][]*Result{}
	for _, r := range rep.Results {
		if !r.Traced {
			out[r.Set] = append(out[r.Set], r)
		}
	}
	return out
}

func runCompare(sp *spec, args []string, stdout, stderr io.Writer) int {
	var base, next []*Result
	switch len(args) {
	case 1:
		rep, err := readReport(args[0])
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		s := sets(rep)
		base, next = s[1], s[2]
		if len(base) == 0 || len(next) == 0 {
			fmt.Fprintf(stderr, "bench: %s holds no sets 1 and 2 to compare\n", args[0])
			return 1
		}
	case 2:
		a, err := readReport(args[0])
		if err == nil {
			var b *Report
			b, err = readReport(args[1])
			base, next = a.Results, nil
			if err == nil {
				next = b.Results
			}
		}
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	default:
		fmt.Fprintln(stderr, "bench: usage: -compare a.json [b.json]")
		return 2
	}

	rows := compareResults(sp, base, next)
	diffs := countDiffs(base, next)
	printCompare(stdout, rows, diffs)
	return compareStatus(rows, diffs)
}

func printCompare(w io.Writer, rows []cmpRow, diffs []string) {
	fmt.Fprintf(w, "%-16s %-15s %12s %12s %8s %8s %6s  %s\n", "metric", "workload", "base", "new", "change", "spread", "bound", "verdict")
	for _, r := range rows {
		noisy := ""
		if r.noisy {
			noisy = " (a run was NOISY)"
		}
		fmt.Fprintf(w, "%-16s %-15s %12.4f %12.4f %+7.2f%% %7.2f%% %5.1f%%  %s%s\n",
			r.metric, r.workload, r.base, r.next, 100*r.change, 100*r.spread, 100*r.bound, r.verdict, noisy)
	}
	if len(diffs) > 0 {
		fmt.Fprintf(w, "counts that differ between runs: %v\n", diffs)
	} else {
		fmt.Fprintln(w, "every count repeats exactly")
	}
}

// compareStatus is the exit status of a comparison: 1 on any regression or
// any count that does not repeat exactly.
func compareStatus(rows []cmpRow, diffs []string) int {
	if len(diffs) > 0 {
		return 1
	}
	for _, r := range rows {
		if r.verdict == regress {
			return 1
		}
	}
	return 0
}
