package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"testing"

	"powercap"
	"powercap/internal/trace"
)

// Satellite regression tests: malformed DAG JSON that used to reach graph
// construction (and could panic deep in the problem build) must come back as
// a 400 and leave the daemon fully alive.

// computeRec builds a compute TaskRec with a valid shape.
func computeRec(id, rank, src, dst int) trace.TaskRec {
	return trace.TaskRec{
		ID: id, Kind: "compute", Rank: rank, Src: src, Dst: dst,
		Work: 0.1, Class: "w",
		Shape: &trace.ShapeRec{SerialFrac: 0.05, MemFrac: 0.3, MemSatThreads: 8, ContentionCoef: 0.01, Intensity: 1},
	}
}

// unmatchedSendTrace has a Send vertex with no message edge leaving it — the
// trace-level analogue of a program that exited with a send in flight.
func unmatchedSendTrace() *trace.File {
	return &trace.File{
		Version: trace.FormatVersion, NumRanks: 2,
		Vertices: []trace.VertexRec{
			{ID: 0, Kind: "init", Rank: -1},
			{ID: 1, Kind: "send", Rank: 0},
			{ID: 2, Kind: "finalize", Rank: -1},
		},
		Tasks: []trace.TaskRec{
			computeRec(0, 0, 0, 1),
			computeRec(1, 0, 1, 2),
			computeRec(2, 1, 0, 2),
		},
	}
}

// selfSendTrace carries a message edge whose sender and receiver are the
// same rank.
func selfSendTrace() *trace.File {
	return &trace.File{
		Version: trace.FormatVersion, NumRanks: 2,
		Vertices: []trace.VertexRec{
			{ID: 0, Kind: "init", Rank: -1},
			{ID: 1, Kind: "send", Rank: 0},
			{ID: 2, Kind: "recv", Rank: 0},
			{ID: 3, Kind: "finalize", Rank: -1},
		},
		Tasks: []trace.TaskRec{
			computeRec(0, 0, 0, 1),
			{ID: 1, Kind: "message", Rank: 0, Src: 1, Dst: 2, Bytes: 64, FixedDur: 1e-6},
			computeRec(2, 0, 2, 3),
			computeRec(3, 1, 0, 3),
		},
	}
}

// cycleTrace contains a dependency cycle.
func cycleTrace() *trace.File {
	return &trace.File{
		Version: trace.FormatVersion, NumRanks: 1,
		Vertices: []trace.VertexRec{
			{ID: 0, Kind: "init", Rank: -1},
			{ID: 1, Kind: "collective", Rank: -1},
			{ID: 2, Kind: "finalize", Rank: -1},
		},
		Tasks: []trace.TaskRec{
			computeRec(0, 0, 0, 1),
			computeRec(1, 0, 1, 0), // back edge
			computeRec(2, 0, 1, 2),
		},
	}
}

func TestMalformedTraceRejectedDaemonSurvives(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})

	cases := []struct {
		name string
		tf   *trace.File
	}{
		{"unmatched-send", unmatchedSendTrace()},
		{"self-send", selfSendTrace()},
		{"cycle", cycleTrace()},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, body := postJSON(t, ts.URL+"/v1/solve", SolveRequest{Trace: tc.tf, CapPerSocketW: 55})
			if code != http.StatusBadRequest {
				t.Fatalf("malformed trace got status %d, body %s", code, body)
			}
		})
	}

	// The daemon must still solve real work and must not have counted any
	// panic: malformed input is a client error, not a contained crash.
	code, body := postJSON(t, ts.URL+"/v1/solve", SolveRequest{Workload: fastWL, CapPerSocketW: 55})
	if code != http.StatusOK {
		t.Fatalf("clean solve after malformed traces: status %d, body %s", code, body)
	}
	m := metricsMap(t, ts.URL)
	if m["pcschedd_panics_total"] != 0 {
		t.Fatalf("malformed traces were handled by panic recovery (%v), want plain 400s", m["pcschedd_panics_total"])
	}
	if m["pcschedd_bad_requests_total"] != 3 {
		t.Fatalf("bad_requests_total = %v, want 3", m["pcschedd_bad_requests_total"])
	}
}

// TestIterationBelowPrologueRejected: a task labelled below the prologue's
// iteration (-1) belongs to no iteration slice. The decomposed bound must
// fail on it rather than leave it out (which gave a "bound" below the
// whole-graph LP's), the trace reader must refuse it, and an inline solve
// of it is a 400.
func TestIterationBelowPrologueRejected(t *testing.T) {
	wl, err := powercap.WorkloadByName("SP", powercap.WorkloadParams{Ranks: 2, Iterations: 2, Seed: 1, WorkScale: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	g := wl.Graph
	relabelled := 0
	for i := range g.Tasks {
		if g.Tasks[i].Iteration == -1 {
			g.Tasks[i].Iteration = -3
			relabelled++
		}
	}
	if relabelled != 2 {
		t.Fatalf("relabelled %d prologue tasks, want 2", relabelled)
	}

	if s, err := powercap.SystemFor(wl, nil).UpperBound(g, 60*float64(g.NumRanks)); err == nil {
		t.Fatalf("UpperBound = %v s with two tasks in no slice, want an error", s.MakespanS)
	}
	var buf bytes.Buffer
	if err := powercap.WriteTrace(&buf, "sp", g, wl.EffScale); err != nil {
		t.Fatal(err)
	}
	if _, _, err := powercap.ReadTrace(&buf); err == nil {
		t.Fatal("ReadTrace accepted a task below the prologue")
	}
	_, ts := newTestServer(t, Config{Workers: 1})
	code, body := postJSON(t, ts.URL+"/v1/solve", SolveRequest{Trace: trace.Encode("sp", g, wl.EffScale), CapPerSocketW: 60})
	if code != http.StatusBadRequest {
		t.Fatalf("inline solve: status %d (%s), want 400", code, body)
	}
}

// TestHandlerPanicContained proves the api() middleware recovery: a handler
// that panics yields a 500 with the panic counted, and the server keeps
// serving.
func TestHandlerPanicContained(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2})
	s.mux.HandleFunc("POST /v1/boom", s.api(func(http.ResponseWriter, *http.Request) {
		panic("handler bug")
	}))

	code, body := postJSON(t, ts.URL+"/v1/boom", struct{}{})
	if code != http.StatusInternalServerError {
		t.Fatalf("panicking handler: status %d, body %s", code, body)
	}
	var e map[string]any
	if err := json.Unmarshal(body, &e); err != nil {
		t.Fatalf("500 body is not JSON: %s", body)
	}
	if m := s.metrics.Counter("pcschedd_panics_total"); m != 1 {
		t.Fatalf("panics_total = %d, want 1", m)
	}
	if code, _ := postJSON(t, ts.URL+"/v1/solve", SolveRequest{Workload: fastWL, CapPerSocketW: 55}); code != http.StatusOK {
		t.Fatalf("server dead after contained panic: status %d", code)
	}
}
