package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"time"

	"powercap"
	"powercap/internal/obs"
	"powercap/internal/service"
	"powercap/internal/trace"
	"powercap/internal/twin"
)

// The two daemon workloads: serve-hit measures the cache-hit path under
// open-loop traffic, and serve-solve the backend solve path for a client
// that waits for each answer.
const (
	serveHit   = "serve-hit"
	serveSolve = "serve-solve"
)

func isServe(name string) bool { return name == serveHit || name == serveSolve }

// Both daemon workloads draw their requests from the traffic twin's diurnal
// scenario (cmd/experiments/twin.go, whose run is recorded in
// BENCH_twin.json): Poisson arrivals at 15, 45 and 15 requests per second
// for 700, 900 and 700 ms, which serve-hit stretches to the run's length;
// CoMD and SP graphs at 4 ranks × 6 iterations and work scale 0.3
// (size.serve*); and caps of 45 to 65 W/socket in 5 W steps, drawn
// Zipf(1.0).
var diurnal = twin.Scenario{
	Phases: []twin.Phase{
		{Name: "night", DurMS: 700, RatePerS: 15},
		{Name: "peak", DurMS: 900, RatePerS: 45},
		{Name: "evening", DurMS: 700, RatePerS: 15},
	},
	Caps:  []float64{45, 50, 55, 60, 65},
	ZipfS: 1.0,
}

const (
	maxConns = 2
	// In the twin's diurnal run 41 of 51 requests were cache hits. In
	// serve-hit every missEvery-th request takes a fresh cap and misses.
	missEvery = 5
	// serve-solve sends a quarter of its requests with realize=best, the
	// realize fraction of the twin's replay scenario. A quarter carry their
	// trace inline, each a new graph; nothing in the twin sets this share.
	solveRealizeFrac = 0.25
	inlineEvery      = 4
	// serve-solve's named requests spread over solveGraphs seeded CoMD
	// graphs, the twin's light graph that solves in about 5 ms.
	solveGraphs = 4
	// checkEvery: every checkEvery-th request that reached the backend is
	// checked against a direct facade solve after the timed part.
	checkEvery = 8
	// solveCounted is how many of serve-solve's first requests its LP
	// counts are taken over.
	solveCounted = 100
	// freshSpanW: a fresh cap is a diurnal cap plus an offset drawn from
	// [0, freshSpanW), so it misses the cache.
	freshSpanW = 5.0
)

type reqKind int

const (
	hotReq    reqKind = iota // a pre-warmed key: a cache hit
	freshReq                 // a named graph at a fresh cap
	inlineReq                // an inline trace of a new graph
)

type serveRequest struct {
	due     time.Duration // serve-hit's send time
	kind    reqKind
	key     int                  // hot key index, for hotReq
	spec    service.WorkloadSpec // the graph asked for, or held inline
	capW    float64              // per socket
	realize string
	body    []byte
}

type hotKey struct {
	spec service.WorkloadSpec
	capW float64 // per socket
}

// serveFixture is an in-process pcschedd with default settings, pre-warmed
// on the hot keys, and the requests to send it: serve-hit's open-loop
// schedule, or the twin draws serve-solve's closed loop cycles through.
type serveFixture struct {
	ts     *httptest.Server
	client *http.Client
	hot    []hotKey
	reqs   []serveRequest
	seed   int64
	rng    *rand.Rand // fresh caps of serve-solve's requests
}

func specOf(w twin.Workload) service.WorkloadSpec {
	return service.WorkloadSpec{Name: w.Name, Ranks: w.Ranks, Iters: w.Iters, Seed: w.Seed, Scale: w.Scale}
}

// scenario is the diurnal scenario for one run: the run's seed, the given
// graphs, and its phases stretched to seconds (kept as they are for 0).
func scenario(seed int64, seconds float64, graphs []twin.Workload, realizeFrac float64) twin.Scenario {
	sc := diurnal
	sc.Seed = uint64(seed)
	sc.Workloads = graphs
	sc.RealizeFrac = realizeFrac
	if seconds == 0 {
		return sc
	}
	var total float64
	for _, p := range diurnal.Phases {
		total += p.DurMS
	}
	sc.Phases = nil
	for _, p := range diurnal.Phases {
		p.DurMS *= seconds * 1e3 / total
		sc.Phases = append(sc.Phases, p)
	}
	return sc
}

func (sz size) graph(name string, seed int64) twin.Workload {
	return twin.Workload{Name: name, Ranks: sz.serveRanks, Iters: sz.serveIters, Seed: seed, Scale: sz.serveScale}
}

// schedule draws a run's requests from the diurnal scenario. serve-hit's
// are final: its schedule stretched to seconds, on the pre-warmed keys
// except every missEvery-th, which takes a fresh cap. serve-solve's are the
// twin's draws of one unstretched scenario, which its closed loop cycles
// through (nextSolve).
func schedule(name string, seed int64, sz size, seconds float64, rng *rand.Rand) ([]serveRequest, []hotKey, error) {
	var (
		graphs []twin.Workload
		hot    []hotKey
		frac   float64
	)
	if name == serveHit {
		graphs = []twin.Workload{sz.graph("CoMD", 2*seed), sz.graph("SP", 2*seed+1)}
		for _, g := range graphs {
			for _, c := range diurnal.Caps {
				hot = append(hot, hotKey{spec: specOf(g), capW: c})
			}
		}
	} else {
		for k := range solveGraphs {
			graphs = append(graphs, sz.graph("CoMD", inputSeed(seed, solveGraphs, k)))
		}
		frac, seconds = solveRealizeFrac, 0
	}
	var reqs []serveRequest
	for i, tr := range scenario(seed, seconds, graphs, frac).Schedule() {
		r := serveRequest{
			due:     time.Duration(tr.AtMS * float64(time.Millisecond)),
			kind:    freshReq,
			spec:    specOf(tr.Workload),
			capW:    tr.CapPerSocketW,
			realize: tr.Realize,
		}
		if name == serveSolve {
			reqs = append(reqs, r)
			continue
		}
		if i%missEvery != missEvery-1 {
			r.kind = hotReq
			for k, h := range hot {
				if h.spec == r.spec && h.capW == r.capW {
					r.key = k
				}
			}
		}
		if err := encode(&r, seed, i, rng); err != nil {
			return nil, nil, err
		}
		reqs = append(reqs, r)
	}
	return reqs, hot, nil
}

// encode moves a request that is not on a hot key to a fresh cap, and an
// inline request to a new graph, and writes its body; i numbers the
// request within the run.
func encode(r *serveRequest, seed int64, i int, rng *rand.Rand) error {
	if r.kind != hotReq {
		r.capW += freshSpanW * rng.Float64()
	}
	body := solveBody{CapPerSocketW: r.capW, Realize: r.realize}
	if r.kind == inlineReq {
		r.spec.Seed = seed*1_000_000 + int64(i)
		w, err := specWorkload(r.spec)
		if err != nil {
			return err
		}
		body.Trace = trace.Encode(w.Name, w.Graph, w.EffScale)
	} else {
		body.Workload = &r.spec
	}
	b, err := json.Marshal(body)
	if err != nil {
		return err
	}
	r.body = b
	return nil
}

// nextSolve is serve-solve's i-th request: the twin's draws in turn at a
// fresh cap, every inlineEvery-th carrying a new graph inline.
func (f *serveFixture) nextSolve(i int) (serveRequest, error) {
	r := f.reqs[i%len(f.reqs)]
	if i%inlineEvery == inlineEvery-1 {
		r.kind = inlineReq
	}
	err := encode(&r, f.seed, i, f.rng)
	return r, err
}

// solveBody is the /v1/solve request as a client writes it.
type solveBody struct {
	Trace         *trace.File           `json:"trace,omitempty"`
	Workload      *service.WorkloadSpec `json:"workload,omitempty"`
	CapPerSocketW float64               `json:"cap_per_socket_w"`
	Realize       string                `json:"realize,omitempty"`
}

func setupServe(name string, seed int64, sz size, seconds float64) (*serveFixture, error) {
	rng := rand.New(rand.NewSource(seed))
	reqs, hot, err := schedule(name, seed, sz, seconds, rng)
	if err != nil {
		return nil, err
	}
	f := &serveFixture{
		seed: seed,
		rng:  rng,
		ts:   httptest.NewServer(service.New(service.Config{})),
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     maxConns,
			MaxIdleConnsPerHost: maxConns,
		}},
		hot:  hot,
		reqs: reqs,
	}
	for k, h := range hot {
		b, err := json.Marshal(solveBody{Workload: &h.spec, CapPerSocketW: h.capW})
		if err != nil {
			f.close()
			return nil, err
		}
		if _, _, err := f.post(b, false); err != nil {
			f.close()
			return nil, fmt.Errorf("pre-warm hot key %d: %w", k, err)
		}
	}
	return f, nil
}

func (f *serveFixture) close() {
	f.client.CloseIdleConnections()
	f.ts.Close()
}

func specWorkload(s service.WorkloadSpec) (*powercap.Workload, error) {
	return powercap.WorkloadByName(s.Name, powercap.WorkloadParams{
		Ranks: s.Ranks, Iterations: s.Iters, Seed: s.Seed, WorkScale: s.Scale,
	})
}

// directSolve is the makespan the facade gives for a graph at a cap.
func directSolve(ctx context.Context, spec service.WorkloadSpec, capW float64) (float64, error) {
	w, err := specWorkload(spec)
	if err != nil {
		return 0, err
	}
	sched, err := powercap.SystemFor(w, nil).UpperBoundCtx(ctx, w.Graph, capW*float64(w.Graph.NumRanks))
	if err != nil {
		return 0, err
	}
	return sched.MakespanS, nil
}

// references solves every hot key directly through the facade, for the
// output check against what the service answers.
func (f *serveFixture) references(ctx context.Context) ([]float64, error) {
	out := make([]float64, len(f.hot))
	for k, h := range f.hot {
		v, err := directSolve(ctx, h.spec, h.capW)
		if err != nil {
			return nil, fmt.Errorf("reference solve of hot key %d: %w", k, err)
		}
		out[k] = v
	}
	return out, nil
}

// post sends one solve request and decodes the response, returning how long
// the client spent decoding it.
func (f *serveFixture) post(body []byte, traced bool) (*service.SolveResponse, time.Duration, error) {
	url := f.ts.URL + "/v1/solve"
	if traced {
		url += "?trace=1"
	}
	resp, err := f.client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, 0, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, 0, fmt.Errorf("status %d: %s", resp.StatusCode, strings.TrimSpace(string(data)))
	}
	t0 := time.Now()
	var out service.SolveResponse
	if err := json.Unmarshal(data, &out); err != nil {
		return nil, 0, fmt.Errorf("decode response: %w", err)
	}
	return &out, time.Since(t0), nil
}

// serveOutcome is one sent request's timing, answer check and, when traced,
// its per-layer self times.
type serveOutcome struct {
	sample    openLoopSample
	wait      time.Duration // the client's own request, response and decode
	traced    bool
	err       error
	makespanS float64
	stats     *service.StatsJSON // set for backend solves
	layers    map[string]float64
	events    []obs.Event
}

// driveOpen sends serve-hit's schedule open loop over at most maxConns
// connections: each request goes out at its due time, or as soon as a
// connection frees up when both are busy.
func (f *serveFixture) driveOpen(refs []float64, traced bool) []serveOutcome {
	out := make([]serveOutcome, len(f.reqs))
	dues := make([]time.Duration, len(f.reqs))
	for i, r := range f.reqs {
		dues[i] = r.due
	}
	samples := openLoop(dues, maxConns, func(i int) { out[i] = f.send(i, &f.reqs[i], traced, refs) })
	for i := range out {
		out[i].sample = samples[i]
	}
	return out
}

// driveClosed sends serve-solve's requests one after another, each as soon
// as the last is answered, until seconds have passed: a client that waits
// for each answer, so that a request's latency is its own time in the
// daemon and over HTTP, without queueing behind others. It returns the
// requests it sent.
func (f *serveFixture) driveClosed(seconds float64, traced bool) ([]serveRequest, []serveOutcome, error) {
	var (
		reqs []serveRequest
		outs []serveOutcome
	)
	start := time.Now()
	for i := 0; i == 0 || time.Since(start).Seconds() < seconds; i++ {
		r, err := f.nextSolve(i)
		if err != nil {
			return nil, nil, err
		}
		sent := time.Since(start)
		o := f.send(i, &r, traced, nil)
		o.sample = openLoopSample{due: sent, sent: sent, done: time.Since(start)}
		reqs, outs = append(reqs, r), append(outs, o)
	}
	return reqs, outs, nil
}

// send posts one request and checks its answer; with traced set, every
// other request asks for its inline trace.
func (f *serveFixture) send(i int, r *serveRequest, traced bool, refs []float64) serveOutcome {
	o := serveOutcome{traced: traced && i%2 == 1}
	t0 := time.Now()
	resp, decode, err := f.post(r.body, o.traced)
	o.wait = time.Since(t0)
	if err == nil {
		err = check(r, resp, refs)
	}
	if err != nil {
		o.err = fmt.Errorf("request %d: %w", i, err)
		return o
	}
	o.makespanS = resp.MakespanS
	if !resp.Cached {
		o.stats = resp.Stats
	}
	if o.traced && resp.Trace != nil {
		o.events = resp.Trace.TraceEvents
		o.layers = requestLayers(o.events, o.wait, decode)
	}
	return o
}

// checkSolves compares every checkEvery-th request that reached the backend
// with a direct facade solve of the same graph and cap.
func checkSolves(ctx context.Context, reqs []serveRequest, outs []serveOutcome) error {
	n := 0
	for i, r := range reqs {
		if r.kind == hotReq || outs[i].err != nil {
			continue
		}
		if n++; n%checkEvery != 1 {
			continue
		}
		v, err := directSolve(ctx, r.spec, r.capW)
		if err != nil {
			return fmt.Errorf("direct solve of request %d: %w", i, err)
		}
		if !sameValue(outs[i].makespanS, v) {
			return fmt.Errorf("request %d: makespan %.12g s, direct solve %.12g s", i, outs[i].makespanS, v)
		}
	}
	return nil
}

// openLoop runs send(i) for each request at its due time, over at most
// conns requests in flight: when all are busy, the next request goes out
// late, as soon as one finishes. It returns each request's timing.
func openLoop(dues []time.Duration, conns int, send func(i int)) []openLoopSample {
	out := make([]openLoopSample, len(dues))
	slots := make(chan struct{}, conns)
	var wg sync.WaitGroup
	start := time.Now()
	for i, due := range dues {
		if d := due - time.Since(start); d > 0 {
			time.Sleep(d)
		}
		slots <- struct{}{}
		out[i].due, out[i].sent = due, time.Since(start)
		wg.Add(1)
		go func() {
			defer wg.Done()
			send(i)
			out[i].done = time.Since(start)
			<-slots
		}()
	}
	wg.Wait()
	return out
}

// requestLayers charges a traced request's service time, wait, to layers:
// its spans by their self time, the client's response decode to encode
// time, and the rest (HTTP, JSON, queueing for a worker) to unattributed.
func requestLayers(evs []obs.Event, wait, decode time.Duration) map[string]float64 {
	layers := map[string]float64{}
	layerTimes(fromEvents(evs), layers)
	var inSpans float64
	for _, v := range layers {
		inSpans += v
	}
	layers["encode.json_ms"] += ms(decode)
	layers[unattributed] += ms(wait) - inSpans - ms(decode)
	return layers
}

func check(r *serveRequest, resp *service.SolveResponse, refs []float64) error {
	switch {
	case resp.Infeasible:
		return fmt.Errorf("infeasible")
	case resp.Degraded:
		return fmt.Errorf("degraded: %s", resp.DegradedReason)
	case !(resp.MakespanS > 0):
		return fmt.Errorf("makespan %g", resp.MakespanS)
	case resp.Cached != (r.kind == hotReq):
		return fmt.Errorf("cached=%v for a request of kind %d", resp.Cached, r.kind)
	}
	if r.kind == hotReq && !sameValue(resp.MakespanS, refs[r.key]) {
		return fmt.Errorf("hot key %d: makespan %.12g s, direct solve %.12g s", r.key, resp.MakespanS, refs[r.key])
	}
	if r.realize != "" {
		rz := resp.Realized
		if rz == nil {
			return fmt.Errorf("realize=%s returned no realized schedule", r.realize)
		}
		return checkRealized(resp.MakespanS, rz.MakespanS, rz.CapViolationW)
	}
	return nil
}

// scrape reads the unlabelled samples of the service's /metrics page.
func (f *serveFixture) scrape() (map[string]float64, error) {
	resp, err := f.client.Get(f.ts.URL + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: status %d", resp.StatusCode)
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), " ")
		if !ok || strings.HasPrefix(name, "#") || strings.Contains(name, "{") {
			continue
		}
		if v, err := strconv.ParseFloat(val, 64); err == nil {
			out[name] = v
		}
	}
	return out, sc.Err()
}

// serviceCounts are the /metrics count deltas over the timed run per
// request sent, and solveMS the mean backend solve time over it.
func serviceCounts(before, after map[string]float64, sent int) (counts map[string]float64, solveMS float64) {
	d := func(name string) float64 { return after[name] - before[name] }
	per := 1 / float64(max(sent, 1))
	hits, misses := d("pcschedd_cache_hits_total"), d("pcschedd_cache_misses_total")
	counts = map[string]float64{
		"service.coalesced": d("pcschedd_coalesced_total") * per,
		"service.solves":    d("pcschedd_solves_total") * per,
		"service.rejected":  d("pcschedd_rejected_total") * per,
	}
	if hits+misses > 0 {
		counts["service.hit_ratio"] = hits / (hits + misses)
	}
	if n := d("pcschedd_solve_latency_seconds_count"); n > 0 {
		solveMS = 1e3 * d("pcschedd_solve_latency_seconds_sum") / n
	}
	return counts, solveMS
}

// lateness summarizes how far behind schedule the generator ran.
func lateness(outs []serveOutcome) (p50, maxMS float64) {
	var late []float64
	for _, o := range outs {
		late = append(late, ms(o.sample.lateness()))
		maxMS = math.Max(maxMS, ms(o.sample.lateness()))
	}
	return median(late), maxMS
}
