package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"testing"
	"time"
)

func TestDisabledPathReturnsNil(t *testing.T) {
	if Enabled() {
		t.Fatal("tracing armed at test start")
	}
	ctx := context.Background()
	ctx2, sp := Start(ctx, "x")
	if sp != nil {
		t.Fatal("Start returned a span with no live trace")
	}
	if ctx2 != ctx {
		t.Fatal("Start allocated a new context on the disabled path")
	}
	// All span methods must be nil-safe.
	sp.SetAttr("k", 1)
	sp.End()
	sp.End()
}

func TestSpanNestingAndSnapshot(t *testing.T) {
	tr := NewTrace(0)
	defer tr.Release()
	ctx := WithTrace(context.Background(), tr)

	ctx, root := Start(ctx, "root")
	if root == nil {
		t.Fatal("Start returned nil with a live trace in ctx")
	}
	root.SetAttr("cap_w", 50.0)
	cctx, child := Start(ctx, "child")
	_, gchild := Start(cctx, "grandchild")
	time.Sleep(time.Millisecond)
	gchild.End()
	child.End()
	root.End()
	root.End() // idempotent

	recs := tr.Snapshot()
	if len(recs) != 3 {
		t.Fatalf("got %d spans, want 3", len(recs))
	}
	byName := map[string]SpanRecord{}
	for _, r := range recs {
		byName[r.Name] = r
	}
	r, c, g := byName["root"], byName["child"], byName["grandchild"]
	if r.Parent != 0 {
		t.Errorf("root parent = %d, want 0", r.Parent)
	}
	if c.Parent != r.ID || g.Parent != c.ID {
		t.Errorf("parent chain broken: root=%d child.Parent=%d child=%d grandchild.Parent=%d",
			r.ID, c.Parent, c.ID, g.Parent)
	}
	if r.TID == 0 || c.TID != r.TID || g.TID != r.TID {
		t.Errorf("children must inherit the root track: %d/%d/%d", r.TID, c.TID, g.TID)
	}
	if v, ok := r.Attrs["cap_w"]; !ok || v != 50.0 {
		t.Errorf("root attrs = %v", r.Attrs)
	}
	// Containment in ns.
	if g.StartNS < c.StartNS || g.StartNS+g.DurNS > c.StartNS+c.DurNS {
		t.Errorf("grandchild escapes child")
	}
	if c.StartNS < r.StartNS || c.StartNS+c.DurNS > r.StartNS+r.DurNS {
		t.Errorf("child escapes root")
	}
	if g.DurNS < int64(time.Millisecond) {
		t.Errorf("grandchild dur %dns, slept 1ms", g.DurNS)
	}
}

func TestRootsGetFreshTracks(t *testing.T) {
	tr := NewTrace(0)
	defer tr.Release()
	ctx := WithTrace(context.Background(), tr)
	_, a := Start(ctx, "a")
	_, b := Start(ctx, "b")
	a.End()
	b.End()
	recs := tr.Snapshot()
	if len(recs) != 2 || recs[0].TID == recs[1].TID {
		t.Fatalf("independent roots share a track: %+v", recs)
	}
}

func TestGlobalFallback(t *testing.T) {
	tr := NewTrace(0)
	SetGlobal(tr)
	defer func() {
		SetGlobal(nil)
		tr.Release()
	}()
	_, sp := Start(context.Background(), "cli")
	if sp == nil {
		t.Fatal("global trace not picked up")
	}
	sp.End()
	if n := len(tr.Snapshot()); n != 1 {
		t.Fatalf("global trace recorded %d spans, want 1", n)
	}
	if FromContext(context.Background()) != nil {
		t.Error("FromContext must not report the global fallback")
	}
}

func TestBoundedSpansDrop(t *testing.T) {
	tr := NewTrace(2)
	defer tr.Release()
	ctx := WithTrace(context.Background(), tr)
	for i := 0; i < 5; i++ {
		_, sp := Start(ctx, "s")
		sp.End()
	}
	if n := len(tr.Snapshot()); n != 2 {
		t.Fatalf("kept %d spans, want 2", n)
	}
	if d := tr.Dropped(); d != 3 {
		t.Fatalf("dropped = %d, want 3", d)
	}
}

func TestReleaseDisarms(t *testing.T) {
	tr := NewTrace(0)
	ctx := WithTrace(context.Background(), tr)
	_, sp := Start(ctx, "before")
	sp.End()
	tr.Release()
	tr.Release() // idempotent
	if Enabled() {
		t.Fatal("still armed after release")
	}
	if _, sp := Start(ctx, "after"); sp != nil {
		t.Fatal("released trace yielded a span")
	}
	if n := len(tr.Snapshot()); n != 1 {
		t.Fatalf("snapshot after release = %d spans, want 1", n)
	}
}

func TestFromContext(t *testing.T) {
	tr := NewTrace(0)
	defer tr.Release()
	ctx := WithTrace(context.Background(), tr)
	if FromContext(ctx) != tr {
		t.Fatal("WithTrace not visible to FromContext")
	}
	ctx, sp := Start(ctx, "s")
	defer sp.End()
	if FromContext(ctx) != tr {
		t.Fatal("span's trace not visible to FromContext")
	}
	if FromContext(nil) != nil {
		t.Fatal("FromContext(nil)")
	}
}

// TestSpanFrom: a callee handed the context sees the span its caller
// opened, and an attribute it sets lands on that span's record.
func TestSpanFrom(t *testing.T) {
	if SpanFrom(nil) != nil || SpanFrom(context.Background()) != nil {
		t.Fatal("SpanFrom found a span in a context without one")
	}
	tr := NewTrace(0)
	defer tr.Release()
	ctx, sp := Start(WithTrace(context.Background(), tr), "outer")
	if SpanFrom(ctx) != sp {
		t.Fatal("SpanFrom did not return the span open in ctx")
	}
	SpanFrom(ctx).SetAttr("k", "v")
	sp.End()
	recs := tr.Snapshot()
	if len(recs) != 1 || recs[0].Attrs["k"] != "v" {
		t.Fatalf("records %+v, want outer with k=v", recs)
	}
}

// TestConcurrentSpans is the -race target: many goroutines recording into
// one trace, each with its own root track.
func TestConcurrentSpans(t *testing.T) {
	tr := NewTrace(0)
	defer tr.Release()
	ctx := WithTrace(context.Background(), tr)
	var wg sync.WaitGroup
	const G, N = 8, 50
	for g := 0; g < G; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rctx, root := Start(ctx, fmt.Sprintf("worker-%d", g))
			for i := 0; i < N; i++ {
				_, sp := Start(rctx, "op")
				sp.SetAttr("i", i)
				sp.End()
			}
			root.End()
		}(g)
	}
	wg.Wait()
	recs := tr.Snapshot()
	if len(recs) != G*(N+1) {
		t.Fatalf("got %d spans, want %d", len(recs), G*(N+1))
	}
	if err := CheckNesting(ChromeEvents(recs)); err != nil {
		t.Fatalf("nesting: %v", err)
	}
}

func TestChromeRoundTrip(t *testing.T) {
	tr := NewTrace(0)
	defer tr.Release()
	ctx := WithTrace(context.Background(), tr)
	rctx, root := Start(ctx, "root")
	_, child := Start(rctx, "child")
	child.SetAttr("pivots", 42)
	time.Sleep(200 * time.Microsecond)
	child.End()
	root.End()

	var buf bytes.Buffer
	if err := WriteChrome(&buf, tr); err != nil {
		t.Fatal(err)
	}
	var doc Document
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("exported trace is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) != 2 {
		t.Fatalf("got %d events, want 2", len(doc.TraceEvents))
	}
	if doc.DroppedSpans != 0 {
		t.Errorf("droppedSpans = %d", doc.DroppedSpans)
	}
	for _, e := range doc.TraceEvents {
		if e.Phase != "X" {
			t.Errorf("event %q phase %q, want X", e.Name, e.Phase)
		}
	}
	if doc.TraceEvents[0].Name != "root" {
		t.Errorf("events not start-ordered: first is %q", doc.TraceEvents[0].Name)
	}
	if err := CheckNesting(doc.TraceEvents); err != nil {
		t.Fatalf("nesting after round trip: %v", err)
	}
}

func TestCheckNestingRejects(t *testing.T) {
	cases := []struct {
		name string
		evs  []Event
	}{
		{"missing parent", []Event{{Name: "c", ID: 2, Parent: 99, TID: 1, TS: 0, Dur: 1}}},
		{"zero id", []Event{{Name: "c", TID: 1}}},
		{"duplicate id", []Event{{Name: "a", ID: 1, TID: 1}, {Name: "b", ID: 1, TID: 1}}},
		{"cross-track child", []Event{
			{Name: "p", ID: 1, TID: 1, TS: 0, Dur: 10},
			{Name: "c", ID: 2, Parent: 1, TID: 2, TS: 1, Dur: 1}}},
		{"escaping child", []Event{
			{Name: "p", ID: 1, TID: 1, TS: 0, Dur: 10},
			{Name: "c", ID: 2, Parent: 1, TID: 1, TS: 5, Dur: 50}}},
	}
	for _, c := range cases {
		if err := CheckNesting(c.evs); err == nil {
			t.Errorf("%s: CheckNesting accepted a broken trace", c.name)
		}
	}
	ok := []Event{
		{Name: "p", ID: 1, TID: 1, TS: 0, Dur: 10},
		{Name: "c", ID: 2, Parent: 1, TID: 1, TS: 2, Dur: 5},
	}
	if err := CheckNesting(ok); err != nil {
		t.Errorf("valid trace rejected: %v", err)
	}
}

// BenchmarkStartEndDisabled measures the disarmed fast path — the cost every
// instrumented call site pays when tracing is off. The observability exhibit
// multiplies this by the span count of a traced solve to bound overhead.
func BenchmarkStartEndDisabled(b *testing.B) {
	if Enabled() {
		b.Fatal("tracing armed")
	}
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, sp := Start(ctx, "bench")
		sp.End()
	}
}

func BenchmarkStartEndEnabled(b *testing.B) {
	tr := NewTrace(1) // bound of 1: everything past the first drops, no growth
	defer tr.Release()
	ctx := WithTrace(context.Background(), tr)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, sp := Start(ctx, "bench")
		sp.End()
	}
}
