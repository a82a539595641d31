package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"powercap"
	"powercap/internal/trace"
)

// memoWL is the named spec the memo tests resolve: small, and with more
// iterations than /v1/compare's exploration phase.
var memoWL = WorkloadSpec{Name: "CoMD", Ranks: 2, Iters: 5, Seed: 7, Scale: 0.1}

// memoLen reports how many specs the server has memoized.
func memoLen(s *Server) int {
	s.sysMu.Lock()
	defer s.sysMu.Unlock()
	return len(s.graphs)
}

// TestNamedMemoShares: two requests for one spec resolve to one graph
// pointer and one digest, the digest of the graph the spec generates, and
// both responses report it.
func TestNamedMemoShares(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	a, err := srv.named(memoWL)
	if err != nil {
		t.Fatal(err)
	}
	b, err := srv.named(memoWL)
	if err != nil {
		t.Fatal(err)
	}
	if a.wl != b.wl || a.wl.Graph != b.wl.Graph || a.digest != b.digest {
		t.Fatalf("two resolutions of one spec differ: %p/%x and %p/%x", a.wl, a.digest, b.wl, b.digest)
	}
	fresh, err := generate(memoWL)
	if err != nil {
		t.Fatal(err)
	}
	if a.digest != powercap.DigestOf(fresh.wl.Graph) {
		t.Fatalf("memoized digest %x, the spec generates %x", a.digest, powercap.DigestOf(fresh.wl.Graph))
	}
	for _, capW := range []float64{50, 55} {
		spec := memoWL
		code, body := postJSON(t, ts.URL+"/v1/solve", SolveRequest{Workload: &spec, CapPerSocketW: capW})
		if code != http.StatusOK {
			t.Fatalf("solve at %g W: %d (%s)", capW, code, body)
		}
		var resp SolveResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			t.Fatal(err)
		}
		if resp.GraphDigest != a.digest.String() {
			t.Errorf("solve at %g W: graph_digest %s, memoized %s", capW, resp.GraphDigest, a.digest)
		}
	}
	if n := memoLen(srv); n != 1 {
		t.Errorf("%d specs memoized after requests for one, want 1", n)
	}
}

// TestNamedMemoResets: the memo holds at most maxPooled+1 specs and starts
// over on the next new one, as the System pool does.
func TestNamedMemoResets(t *testing.T) {
	srv := New(Config{})
	for i := 0; i <= maxPooled; i++ {
		if _, err := srv.named(WorkloadSpec{Name: "CoMD", Ranks: 1, Iters: 1, Seed: int64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if n := memoLen(srv); n != maxPooled+1 {
		t.Fatalf("%d specs memoized, want %d", n, maxPooled+1)
	}
	if _, err := srv.named(WorkloadSpec{Name: "CoMD", Ranks: 1, Iters: 1, Seed: -1}); err != nil {
		t.Fatal(err)
	}
	if n := memoLen(srv); n != 1 {
		t.Fatalf("%d specs memoized after passing the bound, want 1 (a reset)", n)
	}
}

// TestInlineTraceNotMemoized: an inline trace is decoded and digested per
// request and never enters the memo, even when it is the trace of a
// named spec.
func TestInlineTraceNotMemoized(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	ref, err := generate(memoWL)
	if err != nil {
		t.Fatal(err)
	}
	tf := trace.Encode("inline", ref.wl.Graph, ref.wl.EffScale)
	for i := 0; i < 2; i++ {
		code, body := postJSON(t, ts.URL+"/v1/solve", SolveRequest{Trace: tf, CapPerSocketW: 50})
		if code != http.StatusOK {
			t.Fatalf("inline solve: %d (%s)", code, body)
		}
		var resp SolveResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			t.Fatal(err)
		}
		if resp.GraphDigest != ref.digest.String() || resp.Cached != (i == 1) {
			t.Errorf("inline solve %d: digest %s cached %v, want %s and a hit on the repeat", i, resp.GraphDigest, resp.Cached, ref.digest)
		}
	}
	if n := memoLen(srv); n != 0 {
		t.Errorf("%d specs memoized after inline traces only, want 0", n)
	}
}

// TestMemoizedGraphReadOnly: every endpoint reads a memoized graph without
// writing it — a windowed solve, a realized solve, a sweep, a comparison
// and a cluster allocation leave its content digest where it was.
func TestMemoizedGraphReadOnly(t *testing.T) {
	srv, ts := newTestServer(t, Config{Workers: 2})
	ref, err := srv.named(memoWL)
	if err != nil {
		t.Fatal(err)
	}
	spec := memoWL
	requests := []struct {
		name, path string
		body       any
	}{
		{"solve", "/v1/solve", SolveRequest{Workload: &spec, CapPerSocketW: 50}},
		{"solve windowed", "/v1/solve", SolveRequest{Workload: &spec, CapPerSocketW: 50, Windows: 2, CoarsenEps: 0.002}},
		{"solve realize=best", "/v1/solve?realize=best", SolveRequest{Workload: &spec, CapPerSocketW: 55}},
		{"sweep", "/v1/sweep", SweepRequest{Workload: &spec, Spec: "60:40:10"}},
		{"compare", "/v1/compare", CompareRequest{Workload: &spec, CapPerSocketW: 50}},
		{"cluster", "/v1/cluster", ClusterRequest{
			Jobs: []ClusterJobSpec{
				{Name: "a", Workload: &spec},
				{Name: "b", Workload: &WorkloadSpec{Name: "SP", Ranks: 2, Iters: 3, Seed: 2, Scale: 0.15}},
			},
			BudgetW: 130,
		}},
	}
	for _, rq := range requests {
		code, body := postJSON(t, ts.URL+rq.path, rq.body)
		if code != http.StatusOK {
			t.Fatalf("%s: %d (%s)", rq.name, code, body)
		}
		if d := powercap.DigestOf(ref.wl.Graph); d != ref.digest {
			t.Fatalf("%s wrote the memoized graph: digest %x, memoized %x", rq.name, d, ref.digest)
		}
		now, err := srv.named(memoWL)
		if err != nil {
			t.Fatal(err)
		}
		if now != ref {
			t.Fatalf("%s replaced the memoized graph", rq.name)
		}
	}
}

// TestNamedMemoConcurrent: 64 concurrent requests on one spec, hits on a
// pre-warmed cap and misses at fresh ones, all answer from one memoized
// graph.
func TestNamedMemoConcurrent(t *testing.T) {
	srv, ts := newTestServer(t, Config{Workers: 2, QueueDepth: 64})
	spec := memoWL
	if code, body := postJSON(t, ts.URL+"/v1/solve", SolveRequest{Workload: &spec, CapPerSocketW: 50}); code != http.StatusOK {
		t.Fatalf("pre-warm: %d (%s)", code, body)
	}
	const n = 64
	digests := make([]string, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			capW := 50.0
			if i%2 == 1 {
				capW = 45 + float64(i%8)
			}
			buf, err := json.Marshal(SolveRequest{Workload: &spec, CapPerSocketW: capW})
			if err != nil {
				t.Error(err)
				return
			}
			resp, err := http.Post(ts.URL+"/v1/solve", "application/json", bytes.NewReader(buf))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			var out SolveResponse
			if err := json.NewDecoder(resp.Body).Decode(&out); err != nil || resp.StatusCode != http.StatusOK {
				t.Errorf("request %d: status %d, %v", i, resp.StatusCode, err)
				return
			}
			digests[i] = out.GraphDigest
		}(i)
	}
	wg.Wait()
	ref, err := srv.named(memoWL)
	if err != nil {
		t.Fatal(err)
	}
	for i, d := range digests {
		if d != ref.digest.String() {
			t.Errorf("request %d: graph_digest %q, memoized %s", i, d, ref.digest)
		}
	}
	if n := memoLen(srv); n != 1 {
		t.Errorf("%d specs memoized, want 1", n)
	}
}

// TestNamedGeneratorPanic: a spec whose generator panics answers 400, not
// a contained 500, and memoizes nothing. A rank count this large fails the
// generator's first allocation outright, before it allocates anything.
func TestNamedGeneratorPanic(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	bad := &WorkloadSpec{Name: "SP", Ranks: 1 << 62, Iters: 1}
	for _, rq := range []struct {
		path string
		body any
	}{
		{"/v1/solve", SolveRequest{Workload: bad, CapPerSocketW: 50}},
		{"/v1/compare", CompareRequest{Workload: bad, CapPerSocketW: 50}},
	} {
		code, body := postJSON(t, ts.URL+rq.path, rq.body)
		if code != http.StatusBadRequest || !strings.Contains(string(body), "invalid request graph") {
			t.Errorf("%s: %d (%s), want 400 naming an invalid request graph", rq.path, code, body)
		}
	}
	if n := memoLen(srv); n != 0 {
		t.Errorf("%d specs memoized after a panicking generator, want 0", n)
	}
	if m := metricsMap(t, ts.URL)["pcschedd_panics_total"]; m != 0 {
		t.Errorf("panics_total = %v: the bad spec reached panic recovery instead of a 400", m)
	}
}

// BenchmarkSolveHit times a cache hit through Server.ServeHTTP in process:
// one client alternating two pre-warmed keys, SP and CoMD at 4 ranks × 6
// iterations (the daemon benchmark's graphs), so each op decodes the
// request, resolves its named graph, keys it and encodes the cached
// answer.
func BenchmarkSolveHit(b *testing.B) {
	srv := New(Config{})
	var bodies [][]byte
	for _, name := range []string{"SP", "CoMD"} {
		buf, err := json.Marshal(SolveRequest{
			Workload:      &WorkloadSpec{Name: name, Ranks: 4, Iters: 6, Seed: 1, Scale: 0.3},
			CapPerSocketW: 50,
		})
		if err != nil {
			b.Fatal(err)
		}
		bodies = append(bodies, buf)
	}
	post := func(body []byte) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/solve", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			b.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
		return rec
	}
	for _, body := range bodies {
		post(body)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := post(bodies[i%len(bodies)])
		if !bytes.Contains(rec.Body.Bytes(), []byte(`"cached":true`)) {
			b.Fatalf("op %d missed the cache: %s", i, rec.Body)
		}
	}
}
