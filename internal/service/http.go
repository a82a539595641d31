package service

// HTTP plumbing: the api() wrapper every /v1 endpoint runs in (request
// identity, the drain gate, panic containment, tracing, and the wide event
// it records and folds), admission and its Retry-After hint, request
// deadlines, the JSON helpers, and the /healthz, /metrics and
// /debug/flightrecorder endpoints. The solve orchestration behind the
// endpoints lives in service.go and cluster.go.

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"runtime"
	"runtime/debug"
	"strconv"
	"sync/atomic"
	"time"

	"powercap"
	"powercap/internal/obs"
)

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
// containment, request identity, per-request tracing, and the request's
// wide event, which it records and folds into /metrics, the SLO engine and
// the access log once the handler returns.
func (s *Server) api(h func(http.ResponseWriter, *http.Request)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		s.metrics.counters[requestsFamily].Add(1)
		if s.draining.Load() {
			s.metrics.counters[rejectedFamily].Add(1)
			writeError(w, http.StatusServiceUnavailable, "service is draining")
			return
		}
		s.drainMu.RLock()
		defer s.drainMu.RUnlock()
		if s.draining.Load() {
			// Drain began between the flag check and the read lock.
			s.metrics.counters[rejectedFamily].Add(1)
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
		tr := obs.NewTrace(0)
		ctx = obs.WithTrace(ctx, tr)
		r = r.WithContext(ctx)

		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		r.Body = http.MaxBytesReader(w, r.Body, 64<<20)
		func() {
			// Contain handler panics: the request gets a 500 (when no bytes
			// were written yet), its event records it, and the daemon —
			// including the drain bookkeeping deferred above — lives on.
			defer func() {
				if p := recover(); p != nil {
					ev.Panics++
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
		ev.DroppedSpans = tr.Dropped()
		tr.Release()

		// Close out the request's record, then fold every count from it.
		dur := time.Since(start)
		ev.TimeUnixNS = start.UnixNano()
		ev.Status = rec.status
		ev.DurMS = float64(dur) / float64(time.Millisecond)
		s.flight.Record(*ev)
		s.fold(ev, r)
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

// inlineTrace builds the Chrome trace document for a ?trace=1 request (nil
// otherwise) and marks the request's event traced. Snapshot is a copy, so
// the harvest in api() still sees every span.
func inlineTrace(r *http.Request) *obs.Document {
	switch r.URL.Query().Get("trace") {
	case "1", "true":
	default:
		return nil
	}
	tr := obs.FromContext(r.Context())
	if tr == nil {
		return nil
	}
	wideEventFrom(r.Context()).Traced = true
	return &obs.Document{
		TraceEvents:     obs.ChromeEvents(tr.Snapshot()),
		DisplayTimeUnit: "ms",
		DroppedSpans:    tr.Dropped(),
	}
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

// solveError maps a backend failure onto an HTTP status: queue-full → 429,
// cancellation → 504, anything else → 500.
func (s *Server) solveError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, errQueueFull):
		s.writeTooBusy(w, err.Error())
	case errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled):
		writeError(w, http.StatusGatewayTimeout, err.Error())
	default:
		writeError(w, http.StatusInternalServerError, err.Error())
	}
}

func badRequest(w http.ResponseWriter, err error) {
	writeError(w, http.StatusBadRequest, err.Error())
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
