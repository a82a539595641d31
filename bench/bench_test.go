package main

import (
	"math"
	"testing"
	"time"
)

// TestShortRun runs every workload at shrunken sizes, untraced and traced,
// and checks that each answers correctly and reports every metric of
// BENCHMARK.json.
func TestShortRun(t *testing.T) {
	sp := testSpec(t)
	for _, name := range workloadNames() {
		for _, traced := range []bool{false, true} {
			p := plan{seed: 1, seconds: 0.3, traced: traced, setups: 2, sz: short}
			res := runWorkload(name, p)
			if !res.Correct() {
				t.Fatalf("%s traced=%v: %d/%d failed: %v", name, traced, res.Failed, res.Attempted, res.Errors)
			}
			line, ok := contractLine(sp, res, traced)
			if !ok {
				t.Fatalf("%s traced=%v: incomplete result %s", name, traced, line)
			}
			if !traced {
				continue
			}
			for _, l := range timeLayers {
				v := res.Layers[l].Value
				if v < 0 {
					t.Errorf("%s: %s self time %g ms is negative", name, l, v)
				}
				// A short serve-hit run sends too few requests to trace a
				// miss.
				if everyWorkload[l] && v == 0 && name != serveHit {
					t.Errorf("%s: %s, listed in BENCHMARK.json, was not measured", name, l)
				}
			}
			if name != "windowed-large" && math.Abs(res.SelfSumFrac-1) > 0.05 {
				t.Errorf("%s: self times sum to %.3f of traced wall", name, res.SelfSumFrac)
			}
		}
	}
}

func testSpec(t *testing.T) *spec {
	t.Helper()
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	sp, err := loadSpec(root)
	if err != nil {
		t.Fatal(err)
	}
	return sp
}

func TestQuantileAndResolution(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	for _, c := range []struct{ q, want float64 }{
		{0, 1}, {0.25, 2}, {0.5, 3}, {0.75, 4}, {1, 5}, {0.1, 1.4}, {0.99, 4.96},
	} {
		if got := quantile(xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(%v) = %g, want %g", c.q, got, c.want)
		}
	}
	for _, c := range []struct {
		n    int
		q    float64
		want bool
	}{
		{40, 0.75, true}, {39, 0.75, false},
		{1000, 0.99, true}, {999, 0.99, false},
		{20, 0.5, true}, {19, 0.5, false},
	} {
		if got := resolved(c.n, c.q); got != c.want {
			t.Errorf("resolved(%d, %v) = %v, want %v", c.n, c.q, got, c.want)
		}
	}
	m := summarize([]float64{5, 1, 4, 2, 3}, 0.75, "ms")
	if m.Value != 4 || m.N != 5 || m.Q1 != 2 || m.Q3 != 4 || !m.Unresolved {
		t.Errorf("summarize = %+v", m)
	}
	// Rounds of two inputs: means 15, 25, 35, and an incomplete round that
	// is left out.
	r := roundMedian([]float64{10, 20, 20, 30, 30, 40, 99}, 2)
	if r.Value != 25 || r.N != 3 {
		t.Errorf("roundMedian = %+v, want 25 over 3 rounds", r)
	}
}

// TestOpenLoopLateness checks that a request the generator could not send
// on time is charged from its due time, so a stall counts against every
// request queued behind it.
func TestOpenLoopLateness(t *testing.T) {
	const work = 50 * time.Millisecond
	for _, c := range []struct {
		conns int
		// wantLate is how late each request should go out, in units of work.
		wantLate []float64
	}{
		{conns: 1, wantLate: []float64{0, 1, 2}},
		{conns: 2, wantLate: []float64{0, 0, 1}},
		{conns: 3, wantLate: []float64{0, 0, 0}},
	} {
		got := openLoop(make([]time.Duration, 3), c.conns, func(int) { time.Sleep(work) })
		for i, s := range got {
			late := s.lateness().Seconds() / work.Seconds()
			if math.Abs(late-c.wantLate[i]) > 0.5 {
				t.Errorf("conns=%d request %d: %.2f work units late, want %.0f", c.conns, i, late, c.wantLate[i])
			}
			if s.latency() < s.lateness()+work {
				t.Errorf("conns=%d request %d: latency %v does not include its %v lateness plus the work", c.conns, i, s.latency(), s.lateness())
			}
		}
	}
}

func TestSelfTimes(t *testing.T) {
	for _, c := range []struct {
		name  string
		spans []spanRec
		want  []int64
	}{
		{
			name: "nested",
			spans: []spanRec{
				{id: 1, name: "root", start: 0, end: 100},
				{id: 2, parent: 1, name: "child", start: 10, end: 30},
				{id: 3, parent: 2, name: "grandchild", start: 15, end: 20},
			},
			want: []int64{80, 15, 5},
		},
		{
			// Speculative window solves on two workers overlap: the root
			// loses the 70 units they cover, not the 110 they sum to.
			name: "parallel children",
			spans: []spanRec{
				{id: 1, name: "core.windowed", start: 0, end: 100},
				{id: 2, parent: 1, name: "window.solve", start: 10, end: 60},
				{id: 3, parent: 1, name: "window.solve", start: 20, end: 80},
			},
			want: []int64{30, 50, 60},
		},
		{
			// window.solve opened from a window.build span that has
			// already ended: the build keeps its whole duration, and the
			// solve is charged to the root, which it does lie inside.
			name: "mis-parented",
			spans: []spanRec{
				{id: 1, name: "core.windowed", start: 0, end: 60},
				{id: 2, parent: 1, name: "window.build", start: 0, end: 10},
				{id: 3, parent: 2, name: "window.solve", start: 10, end: 50},
				{id: 4, parent: 3, name: "lp.solve", start: 12, end: 45},
			},
			want: []int64{10, 10, 7, 33},
		},
		{
			name: "child straddles the parent's end",
			spans: []spanRec{
				{id: 1, name: "parent", start: 0, end: 10},
				{id: 2, parent: 1, name: "child", start: 5, end: 15},
			},
			want: []int64{5, 10},
		},
	} {
		got := selfTimes(c.spans)
		for i := range c.want {
			if got[i] != c.want[i] {
				t.Errorf("%s: self(%s) = %d, want %d", c.name, c.spans[i].name, got[i], c.want[i])
			}
		}
	}
}

// TestLayerNames checks that every span is charged to a reported layer.
func TestLayerNames(t *testing.T) {
	known := map[string]bool{}
	for _, l := range timeLayers {
		known[l] = true
	}
	for span, layer := range spanLayer {
		if !known[layer] {
			t.Errorf("span %s charges %s, which is not a reported layer", span, layer)
		}
	}
}

func TestCompare(t *testing.T) {
	sp := testSpec(t)
	run := func(p50 float64, pivots float64) *Result {
		return &Result{
			Workload: "solve-cold",
			Metrics:  map[string]Metric{"p50_ms": {Value: p50, Unit: "ms"}},
			Counts:   map[string]float64{"lp.pivots": pivots},
		}
	}
	verdict := func(base, next []*Result) string {
		for _, r := range compareResults(sp, base, next) {
			if r.metric == "p50_ms" {
				return r.verdict
			}
		}
		return ""
	}
	steady := []*Result{run(100, 7), run(101, 7)}
	for _, c := range []struct {
		name string
		next []*Result
		want string
	}{
		{"same", []*Result{run(100, 7), run(100.5, 7)}, pass},
		{"slower", []*Result{run(140, 7), run(141, 7)}, regress},
		{"noisy", []*Result{run(60, 7), run(150, 7)}, unresolved},
		{"noisy but faster", []*Result{run(40, 7), run(95, 7)}, pass},
	} {
		if got := verdict(steady, c.next); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}

	// A run the calibration loop flagged still regresses when the spread
	// is within the bound: the flag is shown, not applied.
	flagged := run(140, 7)
	flagged.Noisy = true
	rows := compareResults(sp, steady, []*Result{flagged})
	if got := verdict(steady, []*Result{flagged}); got != regress {
		t.Errorf("slower on a flagged run: verdict %q, want %q", got, regress)
	}
	if compareStatus(rows, nil) != 1 {
		t.Error("a regression left the exit status at 0")
	}

	// A count that does not repeat fails the comparison on its own.
	same := []*Result{run(100, 8)}
	diffs := countDiffs(steady, same)
	if len(diffs) != 1 || diffs[0] != "solve-cold lp.pivots" {
		t.Errorf("countDiffs = %v, want the pivot count", diffs)
	}
	if compareStatus(compareResults(sp, steady, same), diffs) != 1 {
		t.Error("a count that differs left the exit status at 0")
	}
	if compareStatus(compareResults(sp, steady, []*Result{run(100, 7)}), countDiffs(steady, []*Result{run(100, 7)})) != 0 {
		t.Error("an unchanged run failed the comparison")
	}
}
