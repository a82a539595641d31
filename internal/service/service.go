// Package service implements pcschedd's HTTP/JSON scheduling service: a
// concurrent front end over the powercap.System facade that accepts
// solve/sweep/compare requests (inline trace JSON or named workload
// proxies), executes them on a bounded worker pool, deduplicates identical
// work through a content-addressed schedule cache, and exposes its behavior
// through /metrics and /healthz.
//
// Three properties define the design:
//
//   - Content addressing. A request's cache key is System.ScheduleKey — a
//     SHA-256 digest of the canonical DAG serialization, machine model
//     fingerprint, efficiency scales, and cap — so identical LPs are solved
//     exactly once regardless of how many clients ask, concurrently or not
//     (singleflight coalescing plus an LRU of finished schedules).
//
//   - Admission control and lifecycle. A worker-slot semaphore bounds
//     concurrent solves, a queue bound rejects excess load with 429 rather
//     than letting latency collapse, per-request deadlines are threaded
//     into the LP pivot loops (an abandoned request stops solving within
//     cancelCheckEvery pivots), and Drain performs a graceful shutdown:
//     in-flight solves complete and respond, new work is refused.
//
//   - Observability. Atomic counters and latency histograms (queue wait,
//     solve, full request, and per-pipeline-stage) are rendered at /metrics
//     with full # HELP/# TYPE metadata. Every API request runs under a
//     bounded obs trace whose spans are harvested into the stage histograms
//     after the handler returns; ?trace=1 additionally inlines the Chrome
//     trace-event document in the JSON response. Each request gets a
//     generated request ID — echoed in the X-Request-Id header, the
//     response body, and the one structured (log/slog) access-log line it
//     emits — and /debug/pprof exposes the runtime profiles.
package service

import (
	"context"
	"crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"net/http"
	"net/http/pprof"
	"runtime"
	"runtime/debug"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"powercap"
	"powercap/internal/faultinject"
	"powercap/internal/obs"
	"powercap/internal/slo"
	"powercap/internal/trace"
)

// Config sizes a Server. The zero value is usable: every field has a
// sensible default.
type Config struct {
	// Model is the socket model solves run against (nil = DefaultModel).
	Model *powercap.Model
	// Workers bounds concurrent backend solves (default GOMAXPROCS).
	Workers int
	// QueueDepth is how many requests beyond the busy workers may wait
	// for a slot before new arrivals get 429 (default 64).
	QueueDepth int
	// CacheSize is the schedule LRU capacity in entries (default 256).
	CacheSize int
	// DefaultTimeout caps a request that names no deadline (default 60s);
	// MaxTimeout clamps client-supplied deadlines (default 5m).
	DefaultTimeout time.Duration
	MaxTimeout     time.Duration
	// Resilience tunes the fallback ladder every pooled System solves
	// through (zero value = defaults: see resilience.Config).
	Resilience powercap.ResilienceConfig
	// TraceSpanLimit bounds the spans a single request's trace retains
	// before dropping (default obs.DefaultMaxSpans); droppedSpans in the
	// inline document and pcschedd_trace_spans_dropped_total report the
	// overflow.
	TraceSpanLimit int
	// SLO configures the burn-rate engine (DESIGN.md §16); the zero value
	// selects the defaults (99% availability, 95% of requests under 2s).
	// The engine is always on — it feeds /healthz, /metrics and the flight
	// recorder.
	SLO slo.Config
	// FlightSlots sizes the always-on flight-recorder ring (default
	// obs.DefaultFlightSlots); FlightSnapshotDir is where panic and
	// breaker-open dumps land (default os.TempDir()).
	FlightSlots       int
	FlightSnapshotDir string
	// Log receives one structured line per request (nil = discard).
	Log *slog.Logger
}

// Server is the scheduling service; it implements http.Handler and is safe
// for concurrent use.
type Server struct {
	model          *powercap.Model
	workers        int
	queueDepth     int
	defaultTimeout time.Duration
	maxTimeout     time.Duration
	resilience     powercap.ResilienceConfig
	traceSpanLimit int
	logger         *slog.Logger

	metrics Metrics
	cache   *cache
	sem     chan struct{} // worker slots
	queue   chan struct{} // admission tokens: workers + queue depth
	mux     *http.ServeMux

	// flight is the always-on wide-event ring (DESIGN.md §16): one record
	// per API request, dumpable at /debug/flightrecorder and snapshotted to
	// flightDir on panics and breaker-open transitions. slo is the
	// burn-rate engine every request's outcome feeds.
	flight    *obs.FlightRecorder
	slo       *slo.Engine
	flightDir string

	// draining flips before drainMu is write-locked, so a request either
	// sees the flag or holds a read lock Drain waits on — never neither.
	draining atomic.Bool
	drainMu  sync.RWMutex

	// sysPool shares one powercap.System per efficiency-scale vector, so
	// requests against the same workload reuse the System's solver — and
	// with it the digest-keyed problem-IR cache and frontier cache —
	// instead of rebuilding the problem skeleton per request. graphs
	// memoizes each named workload spec's generated graph and digest
	// (named). sysMu guards both maps; each is bounded by pooled.
	sysMu   sync.Mutex
	sysPool map[string]*powercap.System
	graphs  map[WorkloadSpec]graphRef

	// drainLastNS/drainGapNS estimate the queue drain rate (EWMA of the
	// interval between solve completions) for Retry-After hints on 429s.
	drainLastNS atomic.Int64
	drainGapNS  atomic.Int64
}

// New builds a Server from cfg.
func New(cfg Config) *Server {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.QueueDepth < 0 {
		cfg.QueueDepth = 0
	} else if cfg.QueueDepth == 0 {
		cfg.QueueDepth = 64
	}
	if cfg.CacheSize <= 0 {
		cfg.CacheSize = 256
	}
	if cfg.DefaultTimeout <= 0 {
		cfg.DefaultTimeout = 60 * time.Second
	}
	if cfg.MaxTimeout <= 0 {
		cfg.MaxTimeout = 5 * time.Minute
	}
	if cfg.Model == nil {
		cfg.Model = powercap.DefaultModel()
	}
	if cfg.TraceSpanLimit <= 0 {
		cfg.TraceSpanLimit = obs.DefaultMaxSpans
	}
	s := &Server{
		model:          cfg.Model,
		workers:        cfg.Workers,
		queueDepth:     cfg.QueueDepth,
		defaultTimeout: cfg.DefaultTimeout,
		maxTimeout:     cfg.MaxTimeout,
		resilience:     cfg.Resilience,
		traceSpanLimit: cfg.TraceSpanLimit,
		logger:         cfg.Log,
		cache:          newCache(cfg.CacheSize),
		sem:            make(chan struct{}, cfg.Workers),
		queue:          make(chan struct{}, cfg.Workers+cfg.QueueDepth),
		flight:         obs.NewFlightRecorder(cfg.FlightSlots),
		slo:            slo.New(cfg.SLO),
		flightDir:      cfg.FlightSnapshotDir,
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/solve", s.api(s.handleSolve))
	s.mux.HandleFunc("POST /v1/sweep", s.api(s.handleSweep))
	s.mux.HandleFunc("POST /v1/compare", s.api(s.handleCompare))
	s.mux.HandleFunc("POST /v1/cluster", s.api(s.handleCluster))
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /debug/flightrecorder", s.handleFlightRecorder)
	// Runtime profiles on the service mux (the daemon does not use
	// http.DefaultServeMux, so the net/http/pprof side-effect registration
	// alone would be unreachable). Index serves the named profiles (heap,
	// goroutine, block, …) under the subtree.
	s.mux.HandleFunc("GET /debug/pprof/", pprof.Index)
	s.mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	return s
}

// ServeHTTP dispatches to the service mux.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// Metrics exposes the server's counters (for tests and the bench harness).
func (s *Server) Metrics() *Metrics { return &s.metrics }

// Flight exposes the wide-event flight recorder (for the daemon's SIGQUIT
// dump and tests).
func (s *Server) Flight() *obs.FlightRecorder { return s.flight }

// SLO exposes the burn-rate engine (for tests and the bench harness).
func (s *Server) SLO() *slo.Engine { return s.slo }

// Drain gracefully shuts the API down: new requests are rejected with 503
// while every request already past admission runs to completion and gets
// its response. Returns nil once the server is idle, or ctx.Err() if the
// deadline expires first (in-flight solves keep their own deadlines either
// way). /healthz and /metrics stay up for observability.
func (s *Server) Drain(ctx context.Context) error {
	s.draining.Store(true)
	idle := make(chan struct{})
	go func() {
		// Write-locking waits for every in-flight reader (= request).
		s.drainMu.Lock()
		s.drainMu.Unlock()
		close(idle)
	}()
	select {
	case <-idle:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// maxPooled bounds the daemon's pools: the Systems by efficiency-scale
// vector and the named graphs by spec.
const maxPooled = 128

// pooled returns m, or a fresh map in its place once m has grown past
// maxPooled entries: the pools are bounded by resetting, which costs warm
// state and never correctness, since a pooled value is rebuilt the same on
// its next request.
func pooled[K comparable, V any](m map[K]V) map[K]V {
	if m == nil || len(m) > maxPooled {
		return make(map[K]V)
	}
	return m
}

// systemFor returns the pooled System for an efficiency-scale vector,
// creating it on first use. Sharing the System shares its solver's
// problem-IR and frontier caches across requests; each System's own caches
// are per graph digest, so a reset of the pool only costs warm state.
func (s *Server) systemFor(eff []float64) *powercap.System {
	key := make([]byte, 8*len(eff))
	for i, e := range eff {
		binary.LittleEndian.PutUint64(key[8*i:], math.Float64bits(e))
	}
	s.sysMu.Lock()
	defer s.sysMu.Unlock()
	s.sysPool = pooled(s.sysPool)
	if sys, ok := s.sysPool[string(key)]; ok {
		return sys
	}
	sys := powercap.NewSystem(s.model)
	sys.EffScale = eff
	sys.Resilience = s.resilience
	// A rung's breaker tripping open is exactly the moment an operator
	// wants the recent request history preserved: snapshot the flight
	// recorder off the solve goroutine (the notify contract forbids
	// blocking; SnapshotToDisk rate-limits itself against flapping).
	sys.Ladder().SetBreakerNotify(func(rung string) {
		go s.flight.SnapshotToDisk(s.flightDir, "breaker-open-"+rung)
	})
	s.sysPool[string(key)] = sys
	return sys
}

// statusRecorder captures the response code for logging and latency
// classification, and whether anything was written yet (so the panic
// recovery layer knows if a 500 can still be sent).
type statusRecorder struct {
	http.ResponseWriter
	status int
	wrote  bool
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.wrote = true
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Write(b []byte) (int, error) {
	r.wrote = true
	return r.ResponseWriter.Write(b)
}

// requestIDKey carries the generated request ID in the request context.
type requestIDKey struct{}

// reqSeq backs newRequestID if the system entropy source ever fails.
var reqSeq atomic.Uint64

// newRequestID returns a fresh 16-hex-digit request identifier.
func newRequestID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return fmt.Sprintf("seq-%012x", reqSeq.Add(1))
	}
	return hex.EncodeToString(b[:])
}

// requestIDToken reports whether an inbound X-Request-Id is safe to adopt:
// a short token of URL- and log-safe characters. Anything else is ignored
// and a fresh ID generated — client identifiers are convenience, never a
// header-injection vector.
func requestIDToken(id string) bool {
	if id == "" || len(id) > 64 {
		return false
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '-', c == '_', c == '.':
		default:
			return false
		}
	}
	return true
}

// wideEventKey carries the request's in-progress wide event so handlers can
// fill solve-level fields; api() completes and records it.
type wideEventKey struct{}

// wideEventFrom returns the request's wide event. Outside an api-wrapped
// handler it returns a discarded scratch event, so fills are always safe.
func wideEventFrom(ctx context.Context) *obs.WideEvent {
	if ev, ok := ctx.Value(wideEventKey{}).(*obs.WideEvent); ok {
		return ev
	}
	return &obs.WideEvent{}
}

// RequestIDFrom returns the request ID generated for this request, or ""
// outside an api-wrapped handler.
func RequestIDFrom(ctx context.Context) string {
	id, _ := ctx.Value(requestIDKey{}).(string)
	return id
}

// api wraps an API handler with lifecycle tracking, drain rejection, panic
// containment, request identity, per-request tracing, request metrics, and
// the structured access log.
func (s *Server) api(h func(http.ResponseWriter, *http.Request)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		s.metrics.Requests.Add(1)
		if s.draining.Load() {
			s.metrics.Rejected.Add(1)
			writeError(w, http.StatusServiceUnavailable, "service is draining")
			return
		}
		s.drainMu.RLock()
		defer s.drainMu.RUnlock()
		if s.draining.Load() {
			// Drain began between the flag check and the read lock.
			s.metrics.Rejected.Add(1)
			writeError(w, http.StatusServiceUnavailable, "service is draining")
			return
		}
		s.metrics.Inflight.Add(1)
		defer s.metrics.Inflight.Add(-1)

		// Request identity: attached to the context, echoed in the response
		// header (so even error responses carry it) and in the JSON body,
		// and stamped on the access line. A client-supplied X-Request-Id is
		// adopted when it is a safe token, so cross-service forensics (a
		// /v1/cluster allocation and the follow-up per-job solves) correlate
		// under the caller's identifier; otherwise one is generated.
		reqID := r.Header.Get("X-Request-Id")
		if !requestIDToken(reqID) {
			reqID = newRequestID()
		}
		w.Header().Set("X-Request-Id", reqID)
		ctx := context.WithValue(r.Context(), requestIDKey{}, reqID)

		// The wide event travels with the request: handlers fill the solve
		// fields, api() stamps outcome/latency and records it. The SLO burn
		// at admission is captured here, so a slow or degraded request's
		// record shows the burn it arrived into.
		ev := &obs.WideEvent{RequestID: reqID, Path: r.URL.Path}
		for _, ob := range s.slo.Status(start) {
			if ob.FastBurn > ev.SLOFastBurn {
				ev.SLOFastBurn = ob.FastBurn
			}
			if ob.SlowBurn > ev.SLOSlowBurn {
				ev.SLOSlowBurn = ob.SlowBurn
			}
		}
		ctx = context.WithValue(ctx, wideEventKey{}, ev)

		// Every request solves under a bounded trace; the spans feed the
		// per-stage latency histograms once the handler returns, and
		// ?trace=1 responses inline the document. Coalesced waiters share
		// the leader's solve, so only the leader's trace sees solve spans.
		tr := obs.NewTrace(s.traceSpanLimit)
		ctx = obs.WithTrace(ctx, tr)
		r = r.WithContext(ctx)

		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		r.Body = http.MaxBytesReader(w, r.Body, 64<<20)
		func() {
			// Contain handler panics: the request gets a 500 (when no bytes
			// were written yet), the counter records it, and the daemon —
			// including the drain bookkeeping deferred above — lives on.
			defer func() {
				if p := recover(); p != nil {
					s.metrics.Panics.Add(1)
					rec.status = http.StatusInternalServerError
					ev.Err = fmt.Sprintf("panic: %v", p)
					if s.logger != nil {
						s.logger.Error("panic recovered",
							"request_id", reqID,
							"panic", fmt.Sprint(p),
							"stack", string(debug.Stack()))
					}
					if !rec.wrote {
						writeError(rec, http.StatusInternalServerError,
							fmt.Sprintf("internal error: %v", p))
					}
					// Preserve the request history that led here (rate-limited,
					// best-effort; the panic is already contained).
					if path, serr := s.flight.SnapshotToDisk(s.flightDir, "panic"); serr == nil && path != "" && s.logger != nil {
						s.logger.Info("flight recorder snapshot", "reason", "panic", "path", path)
					}
				}
			}()
			h(rec, r)
		}()

		// Harvest the request's spans into the per-stage histograms. The
		// leader's fn runs on this goroutine (cache.DoMaybe), so no solve
		// can still be writing spans here; Release after harvesting restores
		// the obs disabled fast path once no other request is in flight.
		for _, sr := range tr.Snapshot() {
			s.metrics.ObserveStage(sr.Name, time.Duration(sr.DurNS))
		}
		if d := tr.Dropped(); d > 0 {
			s.metrics.TraceSpansDropped.Add(uint64(d))
		}
		tr.Release()

		dur := time.Since(start)
		s.metrics.RequestLatency.Observe(dur)

		// Close out the forensic record: outcome, latency, and the SLO
		// sample. 429s are deliberate backpressure — the engine excludes
		// them — so rejecting under overload cannot amplify its own burn.
		s.slo.Observe(time.Now(), rec.status, dur)
		ev.TimeUnixNS = start.UnixNano()
		ev.Status = rec.status
		ev.DurMS = float64(dur) / float64(time.Millisecond)
		s.flight.Record(*ev)
		if s.logger != nil {
			s.logger.Info("request",
				"request_id", reqID,
				"method", r.Method,
				"path", r.URL.Path,
				"status", rec.status,
				"dur_ms", float64(dur)/float64(time.Millisecond),
				"remote", r.RemoteAddr)
		}
	}
}

// errQueueFull is the admission-control rejection: both the worker pool and
// its bounded queue are occupied.
var errQueueFull = errors.New("service: all workers busy and admission queue full")

// acquire claims a worker slot, waiting in the bounded queue if all workers
// are busy. A free slot is taken even when ctx is already done: the
// cancellation is then observed authoritatively inside the LP pivot loop,
// which is both where the work is and where it is counted.
func (s *Server) acquire(ctx context.Context) (release func(), err error) {
	select {
	case s.queue <- struct{}{}:
	default:
		return nil, errQueueFull
	}
	start := time.Now()
	select {
	case s.sem <- struct{}{}:
	default:
		select {
		case s.sem <- struct{}{}:
		case <-ctx.Done():
			<-s.queue
			return nil, ctx.Err()
		}
	}
	s.metrics.QueueWait.Observe(time.Since(start))
	return func() { <-s.sem; <-s.queue; s.noteCompletion() }, nil
}

// writeTooBusy answers 429 with the Retry-After hint every rejection
// carries: how long the current queue should take to drain.
func (s *Server) writeTooBusy(w http.ResponseWriter, msg string) {
	w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds()))
	writeError(w, http.StatusTooManyRequests, msg)
}

// noteCompletion feeds the queue-drain-rate estimator: an EWMA (¾ old, ¼
// new) of the interval between solve completions, maintained with two
// atomics so it costs nothing measurable per solve. Retry-After hints on
// 429s divide the queue length by this rate.
func (s *Server) noteCompletion() {
	now := time.Now().UnixNano()
	last := s.drainLastNS.Swap(now)
	if last == 0 {
		return
	}
	iv := now - last
	if iv <= 0 {
		iv = 1
	}
	old := s.drainGapNS.Load()
	if old == 0 {
		s.drainGapNS.Store(iv)
	} else {
		s.drainGapNS.Store((old*3 + iv) / 4)
	}
}

// maxRetryAfterS clamps the Retry-After hint on 429 responses.
const maxRetryAfterS = 30

// retryAfterSeconds estimates how long a rejected client should wait for
// the queue ahead of it to drain: (queued+1) × inter-completion gap,
// clamped to [1, maxRetryAfterS]. Before any completion has been observed
// it answers the 1-second floor.
func (s *Server) retryAfterSeconds() int {
	gap := s.drainGapNS.Load()
	if gap <= 0 {
		return 1
	}
	secs := int(math.Ceil(float64(len(s.queue)+1) * float64(gap) / 1e9))
	if secs < 1 {
		secs = 1
	}
	if secs > maxRetryAfterS {
		secs = maxRetryAfterS
	}
	return secs
}

// requestCtx derives the per-request deadline: the client's timeout_ms
// clamped to MaxTimeout, or DefaultTimeout when absent. It inherits
// r.Context() so a disconnected client also cancels the solve.
func (s *Server) requestCtx(r *http.Request, timeoutMS float64) (context.Context, context.CancelFunc) {
	d := s.defaultTimeout
	if timeoutMS > 0 {
		d = time.Duration(timeoutMS * float64(time.Millisecond))
		if d > s.maxTimeout {
			d = s.maxTimeout
		}
	}
	return context.WithTimeout(r.Context(), d)
}

// WorkloadSpec names one of the built-in benchmark proxies in a request.
type WorkloadSpec struct {
	Name  string  `json:"name"`
	Ranks int     `json:"ranks,omitempty"`
	Iters int     `json:"iters,omitempty"`
	Seed  int64   `json:"seed,omitempty"`
	Scale float64 `json:"scale,omitempty"`
}

// SolveRequest asks for the LP bound of one application under one cap.
// Exactly one of Trace (inline trace JSON, the schema pctrace gen emits)
// or Workload must be set, and exactly one of JobCapW or CapPerSocketW.
type SolveRequest struct {
	Trace         *trace.File   `json:"trace,omitempty"`
	Workload      *WorkloadSpec `json:"workload,omitempty"`
	CapPerSocketW float64       `json:"cap_per_socket_w,omitempty"`
	JobCapW       float64       `json:"job_cap_w,omitempty"`
	// Whole solves one LP over the entire graph instead of decomposing at
	// iteration boundaries.
	Whole bool `json:"whole,omitempty"`
	// Realize additionally converts the LP solution into a realizable
	// schedule ("nearest", "down", "replay", or "best") validated on the
	// simulator; the ?realize= query parameter sets the same field. The
	// strategy is part of the cache key.
	Realize string `json:"realize,omitempty"`
	// Windows > 1 (or CoarsenEps > 0) makes the degradation ladder's LP rung
	// solve the windowed large-trace decomposition (overlapping event
	// windows, speculative parallel solves, warm-started commits) instead
	// of the monolithic LP; the ?windows= and ?coarsen_eps= query
	// parameters set the same fields. Both are part of the cache key — a
	// windowed schedule is a different (upper-bounding) artifact than the
	// monolithic one.
	Windows    int     `json:"windows,omitempty"`
	CoarsenEps float64 `json:"coarsen_eps,omitempty"`
	TimeoutMS  float64 `json:"timeout_ms,omitempty"`
}

// StatsJSON mirrors SolverStats for responses: solver effort plus the
// numerical-health counters (eta growth, pivot rejections, rescue counts,
// scaling proxy) DESIGN.md §16 describes.
type StatsJSON struct {
	Solves           int `json:"solves"`
	SimplexPivots    int `json:"simplex_pivots"`
	DualPivots       int `json:"dual_pivots"`
	WarmStarts       int `json:"warm_starts"`
	Refactorizations int `json:"refactorizations"`

	MaxEtaLen        int     `json:"max_eta_len,omitempty"`
	PivotRejections  int     `json:"pivot_rejections,omitempty"`
	FactorTauRetries int     `json:"factor_tau_retries,omitempty"`
	NaNRecoveries    int     `json:"nan_recoveries,omitempty"`
	Rescues          int     `json:"rescues,omitempty"`
	BlandActivations int     `json:"bland_activations,omitempty"`
	PresolveRows     int     `json:"presolve_rows,omitempty"` // always 0: the kernel runs no presolve
	RowNormRatio     float64 `json:"row_norm_ratio,omitempty"`
}

// NewStatsJSON converts solver stats to the response schema (shared with
// pcsched -json so CLI and service report identical effort numbers).
func NewStatsJSON(st powercap.SolverStats) *StatsJSON {
	return &StatsJSON{
		Solves:           st.Solves,
		SimplexPivots:    st.SimplexIter,
		DualPivots:       st.DualIter,
		WarmStarts:       st.WarmStarts,
		Refactorizations: st.Refactorizations,
		MaxEtaLen:        st.MaxEtaLen,
		PivotRejections:  st.PivotRejections,
		FactorTauRetries: st.FactorTauRetries,
		NaNRecoveries:    st.NaNRecoveries,
		Rescues:          st.Rescues,
		BlandActivations: st.BlandActivations,
		RowNormRatio:     st.RowNormRatio,
	}
}

// kernelHealthFrom maps solver stats onto the wide event's kernel slice.
func kernelHealthFrom(st powercap.SolverStats) obs.KernelHealth {
	return obs.KernelHealth{
		Solves:           st.Solves,
		SimplexPivots:    st.SimplexIter,
		DualPivots:       st.DualIter,
		WarmStarts:       st.WarmStarts,
		Refactorizations: st.Refactorizations,
		MaxEtaLen:        st.MaxEtaLen,
		PivotRejections:  st.PivotRejections,
		FactorTauRetries: st.FactorTauRetries,
		NaNRecoveries:    st.NaNRecoveries,
		Rescues:          st.Rescues,
		BlandActivations: st.BlandActivations,
	}
}

// countLPStats folds one finished solve's effort into the warm-start and
// pivot counters and its numerical-health counters into the pcschedd_lp_*
// metric families.
func (s *Server) countLPStats(st powercap.SolverStats) {
	m := &s.metrics
	m.WarmStarts.Add(uint64(st.WarmStarts))
	m.Pivots.Add(uint64(st.SimplexIter))
	m.LPRefactorizations.Add(uint64(st.Refactorizations))
	m.LPPivotRejections.Add(uint64(st.PivotRejections))
	m.LPTauRetries.Add(uint64(st.FactorTauRetries))
	m.LPNaNRecoveries.Add(uint64(st.NaNRecoveries))
	m.LPBlandActivations.Add(uint64(st.BlandActivations))
	m.LPMaxEtaLen.StoreMax(float64(st.MaxEtaLen))
	m.LPRowNormRatio.StoreMax(st.RowNormRatio)
}

// RealizedJSON reports a realized schedule's validation in responses.
type RealizedJSON struct {
	Strategy      string  `json:"strategy"`
	MakespanS     float64 `json:"makespan_s"`
	LPMakespanS   float64 `json:"lp_makespan_s"`
	BoundGapPct   float64 `json:"bound_gap_pct"`
	CapViolationW float64 `json:"cap_violation_w"`
	Repairs       int     `json:"repairs"`
	Switches      int     `json:"switches"`
}

// NewRealizedJSON converts a realized schedule to the response schema.
func NewRealizedJSON(r *powercap.RealizedSchedule) *RealizedJSON {
	return &RealizedJSON{
		Strategy:      string(r.Strategy),
		MakespanS:     r.MakespanS,
		LPMakespanS:   r.LPMakespanS,
		BoundGapPct:   r.BoundGapPct,
		CapViolationW: r.CapViolationW,
		Repairs:       r.Repairs,
		Switches:      r.Switches,
	}
}

// WindowedJSON reports the windowed decomposition's diagnostics in
// responses: the realized window count, coarsening effect, solver-effort
// split (speculative vs commit solves, warm-start hit rate), and the two
// stitching validations (seam cap excess, simulated makespan).
type WindowedJSON struct {
	Windows           int     `json:"windows"`
	CoarsenEps        float64 `json:"coarsen_eps,omitempty"`
	CoarseVertices    int     `json:"coarse_vertices"`
	MergedTasks       int     `json:"merged_tasks"`
	SpeculativeSolves int     `json:"speculative_solves"`
	CommitSolves      int     `json:"commit_solves"`
	WarmStartHits     int     `json:"warm_start_hits"`
	WarmStartRate     float64 `json:"warm_start_rate"`
	Escalations       int     `json:"escalations,omitempty"`
	NumericalRescues  int     `json:"numerical_rescues,omitempty"`
	SeamViolationW    float64 `json:"seam_violation_w"`
	SimMakespanS      float64 `json:"sim_makespan_s"`
}

// NewWindowedJSON converts a windowed schedule's diagnostics to the
// response schema (shared with pcsched -windows -json).
func NewWindowedJSON(ws *powercap.WindowedSchedule) *WindowedJSON {
	return &WindowedJSON{
		Windows:           ws.Windows,
		CoarsenEps:        ws.CoarsenEps,
		CoarseVertices:    ws.CoarseVertices,
		MergedTasks:       ws.MergedTasks,
		SpeculativeSolves: ws.SpeculativeSolves,
		CommitSolves:      ws.CommitSolves,
		WarmStartHits:     ws.WarmStartHits,
		WarmStartRate:     ws.WarmStartRate(),
		Escalations:       ws.Escalations,
		NumericalRescues:  ws.NumericalFallbacks(),
		SeamViolationW:    ws.SeamViolationW,
		SimMakespanS:      ws.SimMakespanS,
	}
}

// SolveResponse reports one solved (or provably infeasible) schedule.
type SolveResponse struct {
	// RequestID is the server-generated identifier for this request, also
	// sent as the X-Request-Id response header and logged on the access
	// line — quote it when reporting a problem.
	RequestID   string  `json:"request_id,omitempty"`
	Key         string  `json:"key"`
	GraphDigest string  `json:"graph_digest"`
	Workload    string  `json:"workload,omitempty"`
	JobCapW     float64 `json:"job_cap_w"`

	Infeasible         bool       `json:"infeasible,omitempty"`
	MakespanS          float64    `json:"makespan_s,omitempty"`
	MarginalSecPerW    float64    `json:"marginal_s_per_w,omitempty"`
	IterationMakespans []float64  `json:"iteration_makespans,omitempty"`
	Stats              *StatsJSON `json:"stats,omitempty"`
	// Realized reports the validated realizable schedule when the request
	// named a realization strategy (or, for degraded results, the ladder's
	// own simulator certification).
	Realized *RealizedJSON `json:"realized,omitempty"`
	// Windowed reports the decomposition diagnostics when the request asked
	// for a windowed solve (windows > 1 or coarsen_eps > 0) and the LP rung
	// served it (a degraded answer carries none).
	Windowed *WindowedJSON `json:"windowed,omitempty"`

	// Degraded marks a schedule produced below the fallback ladder's top
	// rung; DegradedRung names the rung that served it and DegradedReason
	// carries the machine-readable descent chain. SolveRetries counts the
	// ladder's backoff retries on numerical failures.
	Degraded       bool   `json:"degraded,omitempty"`
	DegradedRung   string `json:"degraded_rung,omitempty"`
	DegradedReason string `json:"degraded_reason,omitempty"`
	SolveRetries   int    `json:"solve_retries,omitempty"`

	// Cached is true when the response came from the LRU or an in-flight
	// identical solve rather than a fresh backend run. ClusterOrigin, set
	// on hits against a schedule parked by /v1/cluster, is that
	// allocation's request ID — the forensic link from a job's follow-up
	// solve back to the market run that granted its cap.
	Cached        bool    `json:"cached"`
	ClusterOrigin string  `json:"cluster_origin,omitempty"`
	ElapsedMS     float64 `json:"elapsed_ms"`

	// Trace is the request's Chrome trace-event document, inlined when the
	// request asked for it with ?trace=1; load it in chrome://tracing or
	// Perfetto. Its droppedSpans field is non-zero when the span bound
	// truncated it. Cache hits carry few or no spans (there was no solve).
	Trace *obs.Document `json:"trace,omitempty"`
}

// solveOutcome is the cached value for a solve key: a schedule (with its
// realization when requested) or a proof of infeasibility — all pure
// functions of the key. Degraded outcomes are served but never cached: the
// key's true value is the top-rung schedule, which a later request may get.
type solveOutcome struct {
	sched      *powercap.Schedule
	realized   *powercap.RealizedSchedule
	windowed   *powercap.WindowedSchedule
	infeasible bool
	degraded   bool
	rung       string
	reason     string
	retries    int
	// rungAttempts is the per-rung solve-attempt trail (ladder descent
	// order) the flight recorder stores with the request.
	rungAttempts [obs.NumLadderRungs]int32
	// clusterOrigin is the request ID of the /v1/cluster allocation that
	// parked this entry ("" for entries from /v1/solve itself).
	clusterOrigin string
}

func (s *Server) handleSolve(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	var req SolveRequest
	if err := decodeJSON(r, &req); err != nil {
		s.badRequest(w, err)
		return
	}
	ref, err := resolveGraph(r.Context(), req.Trace, req.Workload, s.named)
	if err != nil {
		s.badRequest(w, err)
		return
	}
	g := ref.wl.Graph
	jobCap, err := resolveCap(req.JobCapW, req.CapPerSocketW, g.NumRanks)
	if err != nil {
		s.badRequest(w, err)
		return
	}
	if q := r.URL.Query().Get("realize"); q != "" {
		req.Realize = q
	}
	if req.Realize != "" && !slices.Contains(powercap.RealizeStrategies(), req.Realize) {
		s.badRequest(w, fmt.Errorf("unknown realize strategy %q (want one of %v)",
			req.Realize, powercap.RealizeStrategies()))
		return
	}
	if q := r.URL.Query().Get("windows"); q != "" {
		n, perr := strconv.Atoi(q)
		if perr != nil || n < 0 {
			s.badRequest(w, fmt.Errorf("bad windows %q (want a non-negative integer)", q))
			return
		}
		req.Windows = n
	}
	if q := r.URL.Query().Get("coarsen_eps"); q != "" {
		v, perr := strconv.ParseFloat(q, 64)
		if perr != nil || v < 0 || math.IsInf(v, 0) || math.IsNaN(v) {
			s.badRequest(w, fmt.Errorf("bad coarsen_eps %q (want a non-negative number of seconds)", q))
			return
		}
		req.CoarsenEps = v
	}
	degradedPolicy := r.URL.Query().Get("degraded")
	switch degradedPolicy {
	case "", "allow", "forbid":
	default:
		s.badRequest(w, fmt.Errorf("unknown degraded policy %q (want allow or forbid)", degradedPolicy))
		return
	}
	sys := s.systemFor(ref.wl.EffScale)
	key := sys.ScheduleKeyFor(ref.digest, jobCap, req.Whole, req.Realize, req.Windows, req.CoarsenEps)

	ctx, cancel := s.requestCtx(r, req.TimeoutMS)
	defer cancel()

	ev := wideEventFrom(r.Context())
	ev.Workload = ref.wl.Name
	ev.CapW = jobCap
	ev.Whole = req.Whole
	if dl, ok := ctx.Deadline(); ok {
		ev.DeadlineMS = float64(time.Until(dl)) / float64(time.Millisecond)
	}

	// Every solve runs through the one degradation ladder; a degraded
	// outcome is served but never cached.
	fn := func() (any, bool, error) {
		out, err := s.solveWorker(ctx, sys, g, jobCap, &req)
		if err != nil && errors.Is(err, errSolvePanic) {
			// The panic is already contained and counted; the request gets
			// one clean retry before failing.
			out, err = s.solveWorker(ctx, sys, g, jobCap, &req)
		}
		if err != nil {
			return nil, false, err
		}
		return out, !out.degraded, nil
	}
	ev.Windows = req.Windows
	ev.CoarsenEps = req.CoarsenEps
	ev.CacheKey = key

	tSolve := time.Now()
	var val any
	var how hitKind
	bypass := false
	if faultinject.Armed() && faultinject.Fire(faultinject.CacheError) {
		// Injected cache-backend failure: bypass the cache and solve
		// directly. Correctness never depends on the cache.
		s.metrics.CacheErrors.Add(1)
		how = hitMiss
		bypass = true
		val, _, err = fn()
	} else {
		val, how, err = s.cache.DoMaybe(ctx, key, fn)
	}
	ev.SolveMS = msSince(tSolve)
	ev.Cache = hitKindString(how, bypass)
	if err != nil {
		ev.Err = err.Error()
		s.solveError(w, err)
		return
	}
	s.countHit(how)

	out := val.(*solveOutcome)
	ev.Rung = out.rung
	ev.Degraded = out.degraded
	ev.DegradedReason = out.reason
	ev.SolveRetries = out.retries
	ev.ClusterOrigin = out.clusterOrigin
	if how == hitMiss && out.sched != nil {
		// Kernel health belongs to the flight that ran the solve; hits and
		// coalesced waiters spent no kernel effort of their own.
		ev.Kernel = kernelHealthFrom(out.sched.Stats)
		ev.RungAttempts = out.rungAttempts
	}
	if out.degraded && degradedPolicy == "forbid" {
		writeError(w, http.StatusServiceUnavailable,
			fmt.Sprintf("degraded schedule (%s) refused by ?degraded=forbid", out.reason))
		return
	}
	resp := &SolveResponse{
		RequestID:     RequestIDFrom(r.Context()),
		Key:           key,
		GraphDigest:   ref.digest.String(),
		Workload:      ref.wl.Name,
		JobCapW:       jobCap,
		Cached:        how != hitMiss,
		ClusterOrigin: out.clusterOrigin,
		ElapsedMS:     msSince(start),
	}
	if out.infeasible {
		resp.Infeasible = true
	} else {
		resp.MakespanS = out.sched.MakespanS
		resp.MarginalSecPerW = out.sched.MarginalSecPerW
		resp.IterationMakespans = out.sched.IterationMakespans
		resp.Stats = NewStatsJSON(out.sched.Stats)
		resp.Degraded = out.degraded
		resp.DegradedRung = out.rung
		resp.DegradedReason = out.reason
		resp.SolveRetries = out.retries
		if out.realized != nil {
			resp.Realized = NewRealizedJSON(out.realized)
		}
		if out.windowed != nil {
			resp.Windowed = NewWindowedJSON(out.windowed)
		}
	}
	resp.Trace = s.inlineTrace(r)
	writeJSON(w, http.StatusOK, resp)
}

// inlineTrace builds the Chrome trace document for a ?trace=1 request (nil
// otherwise). Snapshot is a copy, so the harvest in api() still sees every
// span.
func (s *Server) inlineTrace(r *http.Request) *obs.Document {
	switch r.URL.Query().Get("trace") {
	case "1", "true":
	default:
		return nil
	}
	tr := obs.FromContext(r.Context())
	if tr == nil {
		return nil
	}
	s.metrics.TracedRequests.Add(1)
	return &obs.Document{
		TraceEvents:     obs.ChromeEvents(tr.Snapshot()),
		DisplayTimeUnit: "ms",
		DroppedSpans:    tr.Dropped(),
	}
}

// solveWorker runs one resilient solve on a worker slot: the LP the
// request names (iteration-decomposed, whole, or windowed/coarsened) on the
// degradation ladder's top rung. A panic anywhere in the
// solve path is recovered here — counted, turned into errSolvePanic, and
// the worker slot released cleanly — so a poisoned request can never take
// the daemon (or a pooled worker) down with it.
func (s *Server) solveWorker(ctx context.Context, sys *powercap.System, g *powercap.Graph, jobCap float64, req *SolveRequest) (out *solveOutcome, err error) {
	release, err := s.acquire(ctx)
	if err != nil {
		return nil, err
	}
	defer release()
	defer func() {
		if p := recover(); p != nil {
			s.metrics.Panics.Add(1)
			if s.logger != nil {
				s.logger.Error("solve panic recovered",
					"request_id", RequestIDFrom(ctx),
					"panic", fmt.Sprint(p),
					"stack", string(debug.Stack()))
			}
			out, err = nil, fmt.Errorf("%w: %v", errSolvePanic, p)
		}
	}()
	if faultinject.Armed() && faultinject.Fire(faultinject.WorkerPanic) {
		panic("faultinject: worker panic")
	}

	top := powercap.ResilientLP{Whole: req.Whole}
	if req.Windows > 1 || req.CoarsenEps > 0 {
		top.Windowed = &powercap.WindowedOptions{
			Windows:       req.Windows,
			OverlapEvents: -1,
			CoarsenEps:    req.CoarsenEps,
		}
	}
	t0 := time.Now()
	res, serr := sys.UpperBoundResilientCtx(ctx, g, jobCap, top)
	s.metrics.SolveLatency.Observe(time.Since(t0))
	if serr != nil {
		if errors.Is(serr, powercap.ErrInfeasible) {
			s.metrics.Solves.Add(1)
			s.metrics.Infeasible.Add(1)
			return &solveOutcome{infeasible: true}, nil
		}
		return nil, serr
	}
	out = &solveOutcome{
		sched:    res.Schedule,
		realized: res.Realized,
		windowed: res.Windowed,
		degraded: res.Degraded,
		rung:     res.Rung.String(),
		reason:   res.Reason,
		retries:  res.Retries,
	}
	out.rungAttempts = rungAttempts32(res.RungAttempts)
	if req.Realize != "" && !res.Degraded {
		out.realized, serr = sys.RealizeScheduleCtx(ctx, g, res.Schedule, req.Realize)
		if serr != nil {
			return nil, serr
		}
	}
	s.metrics.Solves.Add(1)
	s.metrics.SolveRetries.Add(uint64(res.Retries))
	s.countLPStats(res.Schedule.Stats)
	if ws := res.Windowed; ws != nil {
		s.metrics.WindowedSolves.Add(1)
		s.metrics.WindowsSolved.Add(uint64(ws.Windows))
		s.metrics.WindowWarmStartHits.Add(uint64(ws.WarmStartHits))
		s.metrics.WindowCommitSolves.Add(uint64(ws.CommitSolves))
		s.metrics.WindowEscalations.Add(uint64(ws.Escalations))
		s.metrics.WindowSeamViolationW.StoreMax(ws.SeamViolationW)
		if ws.SimMakespanS > 0 {
			s.metrics.WindowStitchGapPct.StoreMax((ws.MakespanS/ws.SimMakespanS - 1) * 100)
		}
	}
	if res.Degraded {
		s.metrics.Degraded.Add(1)
		switch res.Rung {
		case powercap.RungHeuristic:
			s.metrics.FallbackHeuristic.Add(1)
		case powercap.RungStatic:
			s.metrics.FallbackStatic.Add(1)
		}
	}
	return out, nil
}

// rungAttempts32 narrows the ladder's per-rung attempt counts to the wide
// event's flat int32 array (the counts are tiny; the narrower type keeps
// the always-on ring compact).
func rungAttempts32(a [obs.NumLadderRungs]int) [obs.NumLadderRungs]int32 {
	var out [obs.NumLadderRungs]int32
	for i, v := range a {
		out[i] = int32(v)
	}
	return out
}

// SweepRequest asks for the LP bound across a family of per-socket caps,
// given either an explicit list or a "hi:lo:step" spec (watts per socket).
type SweepRequest struct {
	Trace          *trace.File   `json:"trace,omitempty"`
	Workload       *WorkloadSpec `json:"workload,omitempty"`
	Spec           string        `json:"spec,omitempty"`
	CapsPerSocketW []float64     `json:"caps_per_socket_w,omitempty"`
	TimeoutMS      float64       `json:"timeout_ms,omitempty"`
}

// SweepPointJSON is one cap's result in a SweepResponse.
type SweepPointJSON struct {
	PerSocketW      float64 `json:"per_socket_w"`
	JobCapW         float64 `json:"job_cap_w"`
	MakespanS       float64 `json:"makespan_s,omitempty"`
	MarginalSecPerW float64 `json:"marginal_s_per_w,omitempty"`
	Infeasible      bool    `json:"infeasible,omitempty"`
	Error           string  `json:"error,omitempty"`
}

// SweepResponse reports a warm-started sweep.
type SweepResponse struct {
	RequestID   string           `json:"request_id,omitempty"`
	Workload    string           `json:"workload,omitempty"`
	GraphDigest string           `json:"graph_digest"`
	Points      []SweepPointJSON `json:"points"`
	Stats       *StatsJSON       `json:"stats,omitempty"`
	ElapsedMS   float64          `json:"elapsed_ms"`
	// Trace is inlined for ?trace=1 requests (see SolveResponse.Trace).
	Trace *obs.Document `json:"trace,omitempty"`
}

// NewSweepResponse renders a sweep's points, one per per-socket cap, of the
// graph whose digest is d in the /v1/sweep response schema, and returns the
// solver effort summed over them. The daemon-only fields (request ID,
// elapsed time, trace) are left to the caller. cmd/pcsched -sweep -json
// emits the same response, so CLI and service sweeps can be diffed
// directly.
func NewSweepResponse(workload string, d powercap.Digest, perSocketW []float64, pts []powercap.SweepPoint) (*SweepResponse, powercap.SolverStats) {
	resp := &SweepResponse{Workload: workload, GraphDigest: d.String()}
	var agg powercap.SolverStats
	for i, pt := range pts {
		pj := SweepPointJSON{PerSocketW: perSocketW[i], JobCapW: pt.CapW}
		agg.Add(pt.Stats)
		switch {
		case pt.Err != nil && errors.Is(pt.Err, powercap.ErrInfeasible):
			pj.Infeasible = true
		case pt.Err != nil:
			pj.Error = pt.Err.Error()
		default:
			pj.MakespanS = pt.Schedule.MakespanS
			pj.MarginalSecPerW = pt.Schedule.MarginalSecPerW
		}
		resp.Points = append(resp.Points, pj)
	}
	resp.Stats = NewStatsJSON(agg)
	return resp, agg
}

func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	var req SweepRequest
	if err := decodeJSON(r, &req); err != nil {
		s.badRequest(w, err)
		return
	}
	ref, err := resolveGraph(r.Context(), req.Trace, req.Workload, s.named)
	if err != nil {
		s.badRequest(w, err)
		return
	}
	g := ref.wl.Graph
	perSocket := req.CapsPerSocketW
	if req.Spec != "" {
		if len(perSocket) != 0 {
			s.badRequest(w, errors.New("give either spec or caps_per_socket_w, not both"))
			return
		}
		perSocket, err = powercap.ParseSweepSpec(req.Spec)
		if err != nil {
			s.badRequest(w, err)
			return
		}
	}
	if len(perSocket) == 0 {
		s.badRequest(w, errors.New("sweep needs spec or caps_per_socket_w"))
		return
	}
	jobCaps := make([]float64, len(perSocket))
	for i, c := range perSocket {
		if c <= 0 {
			s.badRequest(w, fmt.Errorf("cap %g W must be positive", c))
			return
		}
		jobCaps[i] = c * float64(g.NumRanks)
	}
	sys := s.systemFor(ref.wl.EffScale)

	ctx, cancel := s.requestCtx(r, req.TimeoutMS)
	defer cancel()
	release, err := s.acquire(ctx)
	if err != nil {
		s.solveError(w, err)
		return
	}
	t0 := time.Now()
	pts, err := sys.SolveSweepCtx(ctx, g, jobCaps)
	release()
	s.metrics.SolveLatency.Observe(time.Since(t0))
	if err != nil {
		s.solveError(w, err)
		return
	}
	if err := ctx.Err(); err != nil {
		// The sweep was abandoned mid-family; partial points are not
		// worth a misleading 200.
		s.metrics.Canceled.Add(1)
		writeError(w, http.StatusGatewayTimeout, "sweep canceled: "+err.Error())
		return
	}

	resp, agg := NewSweepResponse(ref.wl.Name, ref.digest, perSocket, pts)
	resp.RequestID = RequestIDFrom(r.Context())
	for _, pj := range resp.Points {
		if pj.Error == "" {
			s.metrics.Solves.Add(1)
		}
		if pj.Infeasible {
			s.metrics.Infeasible.Add(1)
		}
	}
	s.countLPStats(agg)
	ev := wideEventFrom(r.Context())
	ev.Workload = ref.wl.Name
	ev.Kernel = kernelHealthFrom(agg)
	resp.ElapsedMS = msSince(start)
	resp.Trace = s.inlineTrace(r)
	writeJSON(w, http.StatusOK, resp)
}

// CompareRequest asks for the paper's headline experiment at one cap:
// LP bound vs Static vs Conductor. Only named workloads are accepted —
// the comparison needs the proxy's iteration structure and exploration
// phase, which a bare trace does not carry.
type CompareRequest struct {
	Workload      *WorkloadSpec `json:"workload"`
	CapPerSocketW float64       `json:"cap_per_socket_w"`
	TimeoutMS     float64       `json:"timeout_ms,omitempty"`
}

// CompareResponse wraps a powercap.Comparison; cmd/pcsched -json emits the
// same schema, so service and CLI output are interchangeable.
type CompareResponse struct {
	RequestID  string              `json:"request_id,omitempty"`
	Comparison powercap.Comparison `json:"comparison"`
	Cached     bool                `json:"cached"`
	ElapsedMS  float64             `json:"elapsed_ms"`
}

func (s *Server) handleCompare(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	var req CompareRequest
	if err := decodeJSON(r, &req); err != nil {
		s.badRequest(w, err)
		return
	}
	if req.Workload == nil {
		s.badRequest(w, errors.New("compare needs a named workload"))
		return
	}
	if req.CapPerSocketW <= 0 {
		s.badRequest(w, fmt.Errorf("cap_per_socket_w %g must be positive", req.CapPerSocketW))
		return
	}
	ref, err := resolveGraph(r.Context(), nil, req.Workload, s.named)
	if err != nil {
		s.badRequest(w, err)
		return
	}
	wl := ref.wl
	sys := s.systemFor(wl.EffScale)
	// Compare's result additionally depends on the exploration-iteration
	// count, so extend the schedule key rather than reusing it bare.
	key := fmt.Sprintf("compare|%s|expl=%d",
		sys.ScheduleKeyFor(ref.digest, req.CapPerSocketW*float64(wl.Graph.NumRanks), false, "", 0, 0),
		sys.ExploreIters)

	ctx, cancel := s.requestCtx(r, req.TimeoutMS)
	defer cancel()
	val, how, err := s.cache.Do(ctx, key, func() (any, error) {
		release, err := s.acquire(ctx)
		if err != nil {
			return nil, err
		}
		defer release()
		t0 := time.Now()
		cmp, cerr := sys.CompareCtx(ctx, wl, req.CapPerSocketW)
		s.metrics.SolveLatency.Observe(time.Since(t0))
		if cerr != nil {
			return nil, cerr
		}
		s.metrics.Solves.Add(1)
		return cmp, nil
	})
	if err != nil {
		s.solveError(w, err)
		return
	}
	s.countHit(how)
	writeJSON(w, http.StatusOK, &CompareResponse{
		RequestID:  RequestIDFrom(r.Context()),
		Comparison: *val.(*powercap.Comparison),
		Cached:     how != hitMiss,
		ElapsedMS:  msSince(start),
	})
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	status := "ok"
	if s.draining.Load() {
		status = "draining"
	}
	body := map[string]any{
		"status":      status,
		"workers":     s.workers,
		"queue_depth": s.queueDepth,
		"queue_used":  len(s.queue),
		"inflight":    s.metrics.Inflight.Load(),
		"cached":      s.cache.Len(),
		"breakers":    s.breakerStates(),
		"slo":         s.slo.Status(time.Now()),
	}
	writeJSON(w, http.StatusOK, body)
}

// breakerStates aggregates circuit-breaker state per ladder rung across the
// pooled Systems, reporting the worst state seen (open > half-open >
// closed): an operator probing /healthz wants to know if *any* workload's
// sparse backend is being skipped.
func (s *Server) breakerStates() map[string]string {
	agg := make(map[string]string, 4)
	for r := powercap.RungSparse; r <= powercap.RungStatic; r++ {
		agg[r.String()] = "closed"
	}
	s.sysMu.Lock()
	defer s.sysMu.Unlock()
	for _, sys := range s.sysPool {
		for rung, st := range sys.Ladder().BreakerStates() {
			if breakerRank(st) > breakerRank(agg[rung]) {
				agg[rung] = st
			}
		}
	}
	return agg
}

func breakerRank(state string) int {
	switch state {
	case "open":
		return 2
	case "half-open":
		return 1
	default:
		return 0
	}
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.metrics.Render(w)
	// Process-level gauges live here rather than in Metrics: they are
	// read from the runtime and the server, not accumulated.
	writeMeta(w, "pcschedd_goroutines", "Live goroutines in the daemon process.", "gauge")
	fmt.Fprintf(w, "pcschedd_goroutines %d\n", runtime.NumGoroutine())
	writeMeta(w, "pcschedd_cache_entries", "Finished schedules resident in the LRU.", "gauge")
	fmt.Fprintf(w, "pcschedd_cache_entries %d\n", s.cache.Len())
	s.sysMu.Lock()
	pooled := len(s.sysPool)
	s.sysMu.Unlock()
	writeMeta(w, "pcschedd_systems_pooled", "powercap.System instances pooled by efficiency-scale vector.", "gauge")
	fmt.Fprintf(w, "pcschedd_systems_pooled %d\n", pooled)
	writeMeta(w, "pcschedd_queue_occupancy", "Fraction of the admission queue in use (0-1).", "gauge")
	fmt.Fprintf(w, "pcschedd_queue_occupancy %g\n", float64(len(s.queue))/float64(cap(s.queue)))
	writeMeta(w, "pcschedd_build_info", "Build metadata as labels; the value is always 1.", "gauge")
	fmt.Fprintf(w, "pcschedd_build_info{go_version=%q} 1\n", runtime.Version())

	// SLO burn rates and window counts live on the Server (the engine is
	// not a plain counter), so they render here. Every objective renders
	// unconditionally — the conformance test requires each declared family
	// to carry samples.
	now := time.Now()
	writeMeta(w, "pcschedd_slo_fast_burn", "Error-budget burn rate over the fast window, by objective (1 = exactly sustainable).", "gauge")
	for _, ob := range s.slo.Status(now) {
		fmt.Fprintf(w, "pcschedd_slo_fast_burn{objective=%q} %g\n", ob.Name, ob.FastBurn)
	}
	writeMeta(w, "pcschedd_slo_slow_burn", "Error-budget burn rate over the slow window, by objective.", "gauge")
	for _, ob := range s.slo.Status(now) {
		fmt.Fprintf(w, "pcschedd_slo_slow_burn{objective=%q} %g\n", ob.Name, ob.SlowBurn)
	}
	writeMeta(w, "pcschedd_slo_window_good", "Good events in the sliding SLO windows, by objective and window.", "gauge")
	for _, ob := range s.slo.Status(now) {
		fmt.Fprintf(w, "pcschedd_slo_window_good{objective=%q,window=\"fast\"} %d\n", ob.Name, ob.FastGood)
		fmt.Fprintf(w, "pcschedd_slo_window_good{objective=%q,window=\"slow\"} %d\n", ob.Name, ob.SlowGood)
	}
	writeMeta(w, "pcschedd_slo_window_total", "Classified events in the sliding SLO windows, by objective and window.", "gauge")
	for _, ob := range s.slo.Status(now) {
		fmt.Fprintf(w, "pcschedd_slo_window_total{objective=%q,window=\"fast\"} %d\n", ob.Name, ob.FastTotal)
		fmt.Fprintf(w, "pcschedd_slo_window_total{objective=%q,window=\"slow\"} %d\n", ob.Name, ob.SlowTotal)
	}
	writeMeta(w, "pcschedd_flightrecorder_events_total", "Wide events recorded by the flight recorder since start.", "counter")
	fmt.Fprintf(w, "pcschedd_flightrecorder_events_total %d\n", s.flight.Total())
}

// handleFlightRecorder dumps the last n wide events (?n=, default 64, 0 =
// the whole ring) as indented JSON, newest last.
func (s *Server) handleFlightRecorder(w http.ResponseWriter, r *http.Request) {
	n := 64
	if q := r.URL.Query().Get("n"); q != "" {
		v, err := strconv.Atoi(q)
		if err != nil || v < 0 {
			writeError(w, http.StatusBadRequest, fmt.Sprintf("bad n %q (want a non-negative integer; 0 = whole ring)", q))
			return
		}
		n = v
	}
	w.Header().Set("Content-Type", "application/json")
	s.flight.WriteJSON(w, n, "debug-endpoint")
}

// hitKindString names a cache outcome for the wide event.
func hitKindString(how hitKind, bypass bool) string {
	if bypass {
		return "bypass"
	}
	switch how {
	case hitMiss:
		return "miss"
	case hitCoalesced:
		return "coalesced"
	default:
		return "hit"
	}
}

// countHit records the cache outcome of a successful lookup.
func (s *Server) countHit(how hitKind) {
	switch how {
	case hitMiss:
		s.metrics.CacheMisses.Add(1)
	case hitCoalesced:
		s.metrics.CacheHits.Add(1)
		s.metrics.Coalesced.Add(1)
	default:
		s.metrics.CacheHits.Add(1)
	}
}

// solveError maps a backend failure onto an HTTP status and the matching
// counter: queue-full → 429, cancellation → 504, anything else → 500.
func (s *Server) solveError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, errQueueFull):
		s.metrics.Rejected.Add(1)
		s.writeTooBusy(w, err.Error())
	case errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled):
		s.metrics.Canceled.Add(1)
		writeError(w, http.StatusGatewayTimeout, err.Error())
	default:
		writeError(w, http.StatusInternalServerError, err.Error())
	}
}

func (s *Server) badRequest(w http.ResponseWriter, err error) {
	s.metrics.BadRequests.Add(1)
	writeError(w, http.StatusBadRequest, err.Error())
}

// graphRef is the application graph a request names, resolved once with
// its identity: the workload (a named spec's generated proxy, or an inline
// trace's decoded graph and efficiency scales under the trace's name) and
// its canonical digest, which every cache key, graph_digest, cluster key
// and parked schedule key of the request derives from. A named spec's
// graphRef is shared by every request for that spec (named), so nothing
// may write through it: the solve paths only read a graph, and slicing and
// coarsening build new ones.
type graphRef struct {
	wl     *powercap.Workload
	digest powercap.Digest
}

// resolveGraph resolves the graph a request names: inline trace JSON,
// decoded and digested for this request, or a workload spec, resolved by
// named; exactly one must be given. Malformed input that slips past the
// codec's structural checks and panics in graph construction (a trace's,
// or a spec's generator) is converted into an error here, so it surfaces
// as a 400 instead of a dead worker.
func resolveGraph(ctx context.Context, tf *trace.File, ws *WorkloadSpec, named func(WorkloadSpec) (graphRef, error)) (ref graphRef, err error) {
	defer func() {
		if p := recover(); p != nil {
			ref, err = graphRef{}, fmt.Errorf("invalid request graph: %v", p)
		}
	}()
	switch {
	case tf != nil && ws != nil:
		return graphRef{}, errors.New("give either trace or workload, not both")
	case tf != nil:
		g, eff, err := trace.DecodeCtx(ctx, tf)
		if err != nil {
			return graphRef{}, err
		}
		name := tf.Name
		if name == "" {
			name = "trace"
		}
		wl := &powercap.Workload{Name: name, Graph: g, EffScale: eff}
		return graphRef{wl: wl, digest: powercap.DigestOf(g)}, nil
	case ws != nil:
		return named(*ws)
	default:
		return graphRef{}, errors.New("request needs a trace or a workload")
	}
}

// generate builds the workload a spec names and digests it.
func generate(ws WorkloadSpec) (graphRef, error) {
	wl, err := powercap.WorkloadByName(ws.Name, powercap.WorkloadParams{
		Ranks:      ws.Ranks,
		Iterations: ws.Iters,
		Seed:       ws.Seed,
		WorkScale:  ws.Scale,
	})
	if err != nil {
		return graphRef{}, err
	}
	return graphRef{wl: wl, digest: powercap.DigestOf(wl.Graph)}, nil
}

// named returns the graph a workload spec names, generated and digested on
// the spec's first request and shared, read-only, by every later one. A
// spec's graph is a pure, seeded function of its fields, so a memoized
// graph is the one the request would generate. The memo is bounded as the
// System pool is (pooled); a generator that fails or panics memoizes
// nothing. Two first requests for one spec may both generate it; the one
// stored first is the one both return.
func (s *Server) named(ws WorkloadSpec) (graphRef, error) {
	s.sysMu.Lock()
	ref, ok := s.graphs[ws]
	s.sysMu.Unlock()
	if ok {
		return ref, nil
	}
	ref, err := generate(ws)
	if err != nil {
		return graphRef{}, err
	}
	s.sysMu.Lock()
	defer s.sysMu.Unlock()
	s.graphs = pooled(s.graphs)
	if prev, ok := s.graphs[ws]; ok {
		return prev, nil
	}
	s.graphs[ws] = ref
	return ref, nil
}

// resolveCap picks the job-level cap from the two ways a request may state
// it.
func resolveCap(jobCapW, perSocketW float64, ranks int) (float64, error) {
	switch {
	case jobCapW > 0 && perSocketW > 0:
		return 0, errors.New("give either job_cap_w or cap_per_socket_w, not both")
	case jobCapW > 0:
		return jobCapW, nil
	case perSocketW > 0:
		return perSocketW * float64(ranks), nil
	default:
		return 0, errors.New("request needs a positive job_cap_w or cap_per_socket_w")
	}
}

func decodeJSON(r *http.Request, v any) error {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("bad request body: %w", err)
	}
	return nil
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, map[string]any{"error": msg, "status": code})
}

func msSince(t time.Time) float64 {
	return float64(time.Since(t)) / float64(time.Millisecond)
}
