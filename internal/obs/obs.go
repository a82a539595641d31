// Package obs is the repo's zero-dependency tracing layer: wall-clock spans
// that nest through context, collect into a bounded per-request (or global)
// Trace, and export as Chrome trace-event JSON (chrome.go) or collapse into
// the per-stage latency histograms of /metrics.
//
// The design constraint is the same as internal/faultinject's disarmed hook:
// instrumentation sits on the hot solve path (simplex phase loops, the
// per-slice decomposition loop), so with no live Trace anywhere the whole
// Start/End pair must cost one atomic load and a nil check. That is enforced
// by the package-level `armed` counter: it counts unreleased Traces, and
// Start returns (ctx, nil) — with every *Span method nil-safe — before
// touching the context as long as it reads zero.
//
// Span parenting resolves in order: the parent *Span already in ctx (same
// Trace, same track), else a Trace attached with WithTrace (per-request,
// pcschedd), else the process-global Trace (SetGlobal, pcsched -trace).
// Each root span opens a fresh track (Chrome "tid"), so concurrent solves
// in one trace render as parallel rows instead of interleaved garbage.
package obs

import (
	"context"
	"sync"
	"sync/atomic"
	"time"
)

// armed counts Traces that have been created and not yet Released. It is the
// disarmed-path gate: zero means Start is a single atomic load.
var armed atomic.Int32

// global is the process-wide fallback Trace used by CLI paths where no
// context plumbing exists above main (pcsched -trace).
var global atomic.Pointer[Trace]

// Enabled reports whether any live Trace exists, i.e. whether Start can
// possibly return a non-nil span. Exhibits use it to assert the disarmed
// state before timing baselines.
func Enabled() bool { return armed.Load() != 0 }

// DefaultMaxSpans bounds a Trace when NewTrace is given max <= 0. A 16-rank
// decomposed solve with per-pivot-free span granularity lands well under a
// thousand spans; 4096 leaves headroom for sweeps without letting a
// pathological request hold unbounded memory.
const DefaultMaxSpans = 4096

// SpanRecord is one completed span. StartNS is relative to the Trace epoch
// so records are stable across Snapshot calls and JSON round-trips.
type SpanRecord struct {
	Name    string
	ID      uint64
	Parent  uint64 // 0 for root spans
	TID     uint64 // track: roots get fresh tracks, children inherit
	StartNS int64
	DurNS   int64
	Attrs   map[string]any
}

// Trace is a bounded, goroutine-safe collection of completed spans.
type Trace struct {
	mu      sync.Mutex
	spans   []SpanRecord
	dropped int

	max      int
	epoch    time.Time
	nextID   atomic.Uint64
	nextTID  atomic.Uint64
	released atomic.Bool
}

// NewTrace arms tracing and returns an empty Trace holding at most max
// spans (DefaultMaxSpans if max <= 0). Every NewTrace must be paired with
// Release, or the disarmed fast path stays off for the rest of the process.
func NewTrace(max int) *Trace {
	if max <= 0 {
		max = DefaultMaxSpans
	}
	armed.Add(1)
	return &Trace{max: max, epoch: time.Now()}
}

// Release retires the Trace: spans already recorded stay readable via
// Snapshot, new Starts against it return nil spans, and the armed counter
// drops. Idempotent.
func (t *Trace) Release() {
	if t == nil {
		return
	}
	if t.released.CompareAndSwap(false, true) {
		armed.Add(-1)
	}
}

// Snapshot returns a copy of the completed spans recorded so far.
func (t *Trace) Snapshot() []SpanRecord {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]SpanRecord, len(t.spans))
	copy(out, t.spans)
	return out
}

// Dropped returns how many completed spans were discarded because the Trace
// was full. Exports surface it so a truncated trace is never mistaken for a
// complete one.
func (t *Trace) Dropped() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

func (t *Trace) record(r SpanRecord) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) >= t.max {
		t.dropped++
		return
	}
	t.spans = append(t.spans, r)
}

type (
	spanKey  struct{}
	traceKey struct{}
)

// WithTrace attaches tr to the context; spans Started under it (with no
// nearer parent span) become roots of tr. pcschedd gives every request its
// own Trace this way, so concurrent requests never share one.
func WithTrace(ctx context.Context, tr *Trace) context.Context {
	if ctx == nil {
		ctx = context.Background()
	}
	return context.WithValue(ctx, traceKey{}, tr)
}

// FromContext returns the Trace the next Start would record into: the
// enclosing span's Trace, else one attached by WithTrace, else nil. The
// process-global fallback is deliberately excluded — callers asking "is
// this request traced?" mean the request, not the process.
func FromContext(ctx context.Context) *Trace {
	if ctx == nil {
		return nil
	}
	if sp, ok := ctx.Value(spanKey{}).(*Span); ok && sp != nil {
		return sp.tr
	}
	if tr, ok := ctx.Value(traceKey{}).(*Trace); ok {
		return tr
	}
	return nil
}

// SpanFrom returns the span open in ctx, or nil, so a callee handed only
// the context can annotate the span its caller opened.
func SpanFrom(ctx context.Context) *Span {
	if ctx == nil {
		return nil
	}
	sp, _ := ctx.Value(spanKey{}).(*Span)
	return sp
}

// SetGlobal installs (or, with nil, clears) the process-global fallback
// Trace. It does not touch the armed counter: the Trace's own
// NewTrace/Release pair did. CLI-only; the service never sets it.
func SetGlobal(tr *Trace) { global.Store(tr) }

// Span is an open interval of work. All methods are nil-safe, so call sites
// never guard on the disabled path:
//
//	ctx, sp := obs.Start(ctx, "lp.phase1")
//	defer sp.End()
type Span struct {
	tr     *Trace
	name   string
	id     uint64
	parent uint64
	tid    uint64
	start  time.Time
	attrs  map[string]any
	ended  atomic.Bool
}

// Start opens a span named name. With no live Trace anywhere it is one
// atomic load and returns (ctx, nil). Otherwise the span parents onto the
// span already in ctx (inheriting its track), or becomes a root of the
// context's — or failing that the global — Trace on a fresh track.
func Start(ctx context.Context, name string) (context.Context, *Span) {
	if armed.Load() == 0 {
		return ctx, nil
	}
	if ctx == nil {
		ctx = context.Background()
	}
	var (
		tr          *Trace
		parent, tid uint64
	)
	if ps, ok := ctx.Value(spanKey{}).(*Span); ok && ps != nil {
		tr, parent, tid = ps.tr, ps.id, ps.tid
	} else if t, ok := ctx.Value(traceKey{}).(*Trace); ok && t != nil {
		tr = t
	} else {
		tr = global.Load()
	}
	if tr == nil || tr.released.Load() {
		return ctx, nil
	}
	sp := &Span{
		tr:     tr,
		name:   name,
		id:     tr.nextID.Add(1),
		parent: parent,
		tid:    tid,
		start:  time.Now(),
	}
	if sp.tid == 0 {
		sp.tid = tr.nextTID.Add(1)
	}
	return context.WithValue(ctx, spanKey{}, sp), sp
}

// SetAttr attaches a key/value to the span. Attributes belong to the
// goroutine running the span; set them before End.
func (s *Span) SetAttr(key string, value any) {
	if s == nil || s.ended.Load() {
		return
	}
	if s.attrs == nil {
		s.attrs = make(map[string]any, 4)
	}
	s.attrs[key] = value
}

// End closes the span and records it into its Trace. Idempotent and
// nil-safe; a second End is a no-op.
func (s *Span) End() {
	if s == nil || s.ended.Swap(true) {
		return
	}
	dur := time.Since(s.start)
	s.tr.record(SpanRecord{
		Name:    s.name,
		ID:      s.id,
		Parent:  s.parent,
		TID:     s.tid,
		StartNS: s.start.Sub(s.tr.epoch).Nanoseconds(),
		DurNS:   dur.Nanoseconds(),
		Attrs:   s.attrs,
	})
}
