package obs

// Flight recorder: a fixed-size in-memory ring of wide events — one
// structured record per request, always on. Where spans answer "where did
// the time go inside this solve", the wide event answers "why was this
// request slow, browned, or degraded" after the fact: it carries the
// admission-time control state (adapt epoch, pressure, SLO burn), the
// cache/singleflight outcome, the resilience rung that produced the
// schedule, and the kernel's numerical-health counters in one record.
//
// Memory model. The ring is sized to a power of two. Writers claim a slot
// with a single atomic add on the cursor — that is the only cross-writer
// coordination, mirroring the one-atomic-load disarm discipline of Start —
// then copy the event into the slot under that slot's private mutex. The
// mutex exists only to order a writer against a concurrent dumper on the
// same slot (a seqlock would be invisible to the Go race detector and is
// not a defined pattern under the Go memory model); it is uncontended in
// steady state, so the hot path is one atomic add, one uncontended
// lock/unlock, and a flat struct copy. WideEvent deliberately holds no
// maps, slices, or pointers: recording allocates nothing, and a dump while
// a writer lands sees either the old or the new record, never a torn one.

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// NumLadderRungs is the length of the per-rung attempt counters in a
// WideEvent. The order is the resilience ladder's descent order: sparse,
// heuristic, static.
const NumLadderRungs = 3

// KernelHealth is the numerical-health slice of a wide event: the LP
// kernel's effort and rescue counters for every solve that served the
// request (summed across windows for windowed solves). All fields are
// plain ints so the struct copies flat into the ring.
type KernelHealth struct {
	Solves           int `json:"solves,omitempty"`
	SimplexPivots    int `json:"simplex_pivots,omitempty"`
	DualPivots       int `json:"dual_pivots,omitempty"`
	WarmStarts       int `json:"warm_starts,omitempty"`
	Refactorizations int `json:"refactorizations,omitempty"`
	// MaxEtaLen is the peak eta-on-LU update-file length across the
	// request's solves — the eta-growth proxy for basis conditioning.
	MaxEtaLen int `json:"max_eta_len,omitempty"`
	// PivotRejections counts factorization rows skipped by LU threshold
	// (Markowitz-style) pivoting; TauRetries counts whole factorizations
	// that fell back from relaxed to strict partial pivoting.
	PivotRejections  int `json:"pivot_rejections,omitempty"`
	FactorTauRetries int `json:"factor_tau_retries,omitempty"`
	// NaNRecoveries counts refactorize-and-retry repairs of non-finite
	// solver state; Rescues counts solves that broke down and completed
	// through the kernel's cold re-solve without presolve;
	// BlandActivations counts anti-cycling fallbacks.
	NaNRecoveries    int `json:"nan_recoveries,omitempty"`
	Rescues          int `json:"rescues,omitempty"`
	BlandActivations int `json:"bland_activations,omitempty"`
	PresolveRows     int `json:"presolve_rows,omitempty"`
	PresolveCols     int `json:"presolve_cols,omitempty"`
}

// WideEvent is one request's forensic record. Every field is a value type
// (no maps, slices, or pointers) so the ring write is a flat copy and the
// record path never allocates. Zero-valued fields are elided from JSON.
type WideEvent struct {
	TimeUnixNS int64   `json:"time_unix_ns"`
	RequestID  string  `json:"request_id"`
	Path       string  `json:"path"`
	Status     int     `json:"status"`
	DurMS      float64 `json:"dur_ms"`

	// Solve shape as admitted (after any brownout rewrite).
	Workload   string  `json:"workload,omitempty"`
	CapW       float64 `json:"cap_w,omitempty"`
	Whole      bool    `json:"whole,omitempty"`
	Windows    int     `json:"windows,omitempty"`
	CoarsenEps float64 `json:"coarsen_eps,omitempty"`

	// Cache / singleflight outcome: "miss", "hit", "coalesced", "bypass".
	Cache    string `json:"cache,omitempty"`
	CacheKey string `json:"cache_key,omitempty"`
	// ClusterOrigin is the request ID of the /v1/cluster allocation that
	// parked this schedule, when the hit came from a parked entry.
	ClusterOrigin string `json:"cluster_origin,omitempty"`

	// Resilience outcome.
	Rung           string `json:"rung,omitempty"`
	Degraded       bool   `json:"degraded,omitempty"`
	DegradedReason string `json:"degraded_reason,omitempty"`
	Brownout       string `json:"brownout,omitempty"`
	SolveRetries   int    `json:"solve_retries,omitempty"`
	// RungAttempts counts solve attempts per ladder rung in descent order
	// (sparse, heuristic, static) — the per-rung descent trail for this
	// request.
	RungAttempts [NumLadderRungs]int32 `json:"rung_attempts"`

	// Deadline budget granted at admission vs solve wall actually spent.
	DeadlineMS float64 `json:"deadline_ms,omitempty"`
	SolveMS    float64 `json:"solve_ms,omitempty"`

	// Adaptive-controller state at admission.
	AdaptEpoch uint64  `json:"adapt_epoch,omitempty"`
	AdaptRung  string  `json:"adapt_rung,omitempty"`
	Pressure   float64 `json:"pressure,omitempty"`

	// SLO burn rates at admission (fast/slow windows, max over objectives
	// for the scalar feed; per-objective detail lives in /healthz).
	SLOFastBurn float64 `json:"slo_fast_burn,omitempty"`
	SLOSlowBurn float64 `json:"slo_slow_burn,omitempty"`

	Kernel KernelHealth `json:"kernel"`
	Err    string       `json:"err,omitempty"`
}

// DefaultFlightSlots is the default ring capacity.
const DefaultFlightSlots = 256

// snapshotMinInterval rate-limits disk snapshots so a flapping breaker
// cannot turn the recorder into a disk-filling loop.
const snapshotMinInterval = 5 * time.Second

type flightSlot struct {
	mu  sync.Mutex
	ev  WideEvent
	set bool
}

// FlightRecorder is the lock-free-claim ring described in the package
// comment. The zero value is not usable; call NewFlightRecorder.
type FlightRecorder struct {
	mask   uint64
	seq    atomic.Uint64 // total events ever recorded
	slots  []flightSlot
	snapNS atomic.Int64 // unix ns of the last disk snapshot (rate limit)
}

// NewFlightRecorder returns a recorder holding the last n events (n is
// rounded up to a power of two; n <= 0 means DefaultFlightSlots).
func NewFlightRecorder(n int) *FlightRecorder {
	if n <= 0 {
		n = DefaultFlightSlots
	}
	size := 1
	for size < n {
		size <<= 1
	}
	return &FlightRecorder{mask: uint64(size - 1), slots: make([]flightSlot, size)}
}

// Record stores one wide event, overwriting the oldest. Safe for
// concurrent use; never allocates.
func (f *FlightRecorder) Record(ev WideEvent) {
	i := f.seq.Add(1) - 1
	s := &f.slots[i&f.mask]
	s.mu.Lock()
	s.ev = ev
	s.set = true
	s.mu.Unlock()
}

// Total reports how many events have ever been recorded (recorded minus
// ring capacity = overwritten).
func (f *FlightRecorder) Total() uint64 { return f.seq.Load() }

// Snapshot copies out up to n of the most recent events, oldest first.
// n <= 0 means the whole ring.
func (f *FlightRecorder) Snapshot(n int) []WideEvent {
	cap := len(f.slots)
	if n <= 0 || n > cap {
		n = cap
	}
	seq := f.seq.Load()
	if uint64(n) > seq {
		n = int(seq)
	}
	out := make([]WideEvent, 0, n)
	for i := seq - uint64(n); i < seq; i++ {
		s := &f.slots[i&f.mask]
		s.mu.Lock()
		ev, ok := s.ev, s.set
		s.mu.Unlock()
		if ok {
			out = append(out, ev)
		}
	}
	return out
}

// flightDump is the JSON schema of a flight-recorder dump, shared by
// /debug/flightrecorder, SIGQUIT, and disk snapshots.
type flightDump struct {
	Reason     string      `json:"reason,omitempty"`
	TimeUnixNS int64       `json:"time_unix_ns"`
	Total      uint64      `json:"total_recorded"`
	Events     []WideEvent `json:"events"`
}

// WriteJSON writes the last n events (oldest first) as an indented JSON
// dump. reason tags the dump ("sigquit", "panic", "breaker-open:dense", a
// debug-endpoint fetch, ...).
func (f *FlightRecorder) WriteJSON(w io.Writer, n int, reason string) error {
	d := flightDump{
		Reason:     reason,
		TimeUnixNS: time.Now().UnixNano(),
		Total:      f.Total(),
		Events:     f.Snapshot(n),
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(d)
}

// SnapshotToDisk writes a full dump into dir (os.TempDir() when empty) and
// returns the file path. Snapshots are rate-limited to one per
// snapshotMinInterval — callers fire-and-forget this from panic recovery
// and breaker-open transitions, and a flapping breaker must not grind the
// disk. A rate-limited call returns ("", nil).
func (f *FlightRecorder) SnapshotToDisk(dir, reason string) (string, error) {
	now := time.Now().UnixNano()
	last := f.snapNS.Load()
	if now-last < int64(snapshotMinInterval) || !f.snapNS.CompareAndSwap(last, now) {
		return "", nil
	}
	if dir == "" {
		dir = os.TempDir()
	}
	name := fmt.Sprintf("flightrecorder-%s-%d.json", sanitizeReason(reason), now)
	path := filepath.Join(dir, name)
	fh, err := os.Create(path)
	if err != nil {
		return "", err
	}
	werr := f.WriteJSON(fh, 0, reason)
	cerr := fh.Close()
	if werr != nil {
		return "", werr
	}
	return path, cerr
}

// sanitizeReason keeps dump filenames shell- and filesystem-safe.
func sanitizeReason(reason string) string {
	if reason == "" {
		return "dump"
	}
	var b strings.Builder
	for _, r := range reason {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_':
			b.WriteRune(r)
		default:
			b.WriteByte('.')
		}
	}
	return b.String()
}
