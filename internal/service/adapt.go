package service

import (
	"context"
	"errors"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"powercap"
	"powercap/internal/adapt"
)

// Adaptive overload control plane (DESIGN.md §15). The Server owns an
// adapt.Controller when Config.Adapt.Enabled is set; once per epoch the
// runtime samples the metrics the service already keeps (free signals:
// rejections, queue occupancy, solve latency, breaker states) and applies
// the controller's decision:
//
//   - admission capacity and worker count, by *parking* tokens in the
//     existing sem/queue channels (tokens are fungible, so acquire() and
//     release() are untouched — with nothing parked the channels behave
//     exactly as before, which is what keeps the disarmed path
//     bit-identical);
//   - the schedule-LRU capacity (cache.Resize);
//   - the brownout rung consulted by handleSolve, which rewrites the
//     request and picks its entry into the degradation ladder
//     (ladderEntry) from the State it loads, request by request;
//   - the retry-budget token bucket's refill rate (the observed solve
//     completion rate).
//
// With Adapt.Enabled false, s.adaptState stays nil and every hot-path
// touch point is a single atomic pointer load that fails its nil check —
// the same disarmed-path idiom as internal/obs and internal/faultinject.

// adaptSample is the counter snapshot one epoch's deltas are taken from.
type adaptSample struct {
	requests, rejected, shed uint64
	solves, hits, misses     uint64
	panics, retries          uint64
	solveSumNS               int64
	solveCount               uint64
}

// adaptRuntime owns the controller, the retry-budget bucket, and the epoch
// loop. All epoch work serializes on mu, so the ticker loop and a manual
// adaptEpoch call (tests) can never interleave a sample with an apply.
type adaptRuntime struct {
	ctrl   *adapt.Controller
	bucket *adapt.TokenBucket

	mu       sync.Mutex
	last     adaptSample
	lastTime time.Time

	loopOnce sync.Once
	stopOnce sync.Once
	loopStop chan struct{}
	loopDone chan struct{}
}

func newAdaptRuntime(cfg adapt.Config) *adaptRuntime {
	ctrl := adapt.New(cfg)
	eff := ctrl.Config()
	return &adaptRuntime{
		ctrl: ctrl,
		// The retry budget's burst is the admission capacity: a full
		// queue's worth of retries may pass before the refill rate gates.
		bucket:   adapt.NewTokenBucket(eff.Workers+eff.QueueDepth, 0),
		loopStop: make(chan struct{}),
		loopDone: make(chan struct{}),
	}
}

// StartAdapt launches the controller's epoch loop. It is a no-op (and
// returns a no-op stop) when the control plane is disabled. The returned
// stop function halts the loop and waits for it; Drain calls it implicitly.
func (s *Server) StartAdapt() (stop func()) {
	rt := s.adaptRT
	if rt == nil {
		return func() {}
	}
	rt.loopOnce.Do(func() {
		epoch := rt.ctrl.Config().Epoch
		go func() {
			defer close(rt.loopDone)
			t := time.NewTicker(epoch)
			defer t.Stop()
			for {
				select {
				case <-rt.loopStop:
					return
				case now := <-t.C:
					s.adaptEpoch(now)
				}
			}
		}()
	})
	return rt.stopLoop
}

// stopLoop halts the epoch loop (idempotent) and waits for it to exit. A
// runtime whose loop never started just closes its channels.
func (rt *adaptRuntime) stopLoop() {
	rt.stopOnce.Do(func() { close(rt.loopStop) })
	rt.loopOnce.Do(func() { close(rt.loopDone) }) // loop never ran
	<-rt.loopDone
}

// adaptEpoch runs one controller epoch: sample signals, step the state
// machine, publish and apply the decision. Exposed to tests via
// (*Server).AdaptEpoch.
func (s *Server) adaptEpoch(now time.Time) *adapt.State {
	rt := s.adaptRT
	rt.mu.Lock()
	defer rt.mu.Unlock()

	sig := rt.sampleLocked(s, now)
	st, trans := rt.ctrl.Step(sig)
	s.adaptState.Store(st)
	s.applyAdapt(st, sig)

	s.metrics.AdaptEpochs.Add(1)
	for _, tr := range trans {
		s.metrics.AdaptTransitions.Add(1)
		if s.logger != nil {
			s.logger.Info("brownout transition",
				"epoch", tr.Epoch, "from", tr.From.String(), "to", tr.To.String(), "why", tr.Why)
		}
	}
	return st
}

// AdaptEpoch forces one controller epoch now (tests and the twin drive the
// control plane synchronously through this instead of waiting on the
// ticker). Returns nil when the control plane is disabled.
func (s *Server) AdaptEpoch() *adapt.State {
	if s.adaptRT == nil {
		return nil
	}
	return s.adaptEpoch(time.Now())
}

// sampleLocked reads the epoch's signal deltas. Callers hold rt.mu.
func (rt *adaptRuntime) sampleLocked(s *Server, now time.Time) adapt.Signals {
	m := &s.metrics
	cur := adaptSample{
		requests:   m.Requests.Load(),
		rejected:   m.Rejected.Load(),
		shed:       m.ShedDeadline.Load() + m.ShedRetryBudget.Load(),
		solves:     m.Solves.Load(),
		hits:       m.CacheHits.Load(),
		misses:     m.CacheMisses.Load(),
		panics:     m.Panics.Load(),
		retries:    m.SolveRetries.Load(),
		solveSumNS: m.SolveLatency.sumNS.Load(),
		solveCount: m.SolveLatency.count.Load(),
	}
	epochS := rt.ctrl.Config().Epoch.Seconds()
	if !rt.lastTime.IsZero() {
		if d := now.Sub(rt.lastTime).Seconds(); d > 0 {
			epochS = d
		}
	}
	prev := rt.last
	rt.last, rt.lastTime = cur, now

	var avgSolveS float64
	if dc := cur.solveCount - prev.solveCount; dc > 0 {
		avgSolveS = float64(cur.solveSumNS-prev.solveSumNS) / float64(dc) / 1e9
	}
	open := 0
	for _, st := range s.breakerStates() {
		if st == "open" {
			open++
		}
	}
	parked := int(s.parkedQueue.Load())
	// The SLO engine's fast-window burn is the controller's latency term
	// when samples exist (adapt.Signals doc), so a brownout decision is
	// explainable from the flight recorder's admission-time burn fields
	// alone.
	burn, sloSamples := s.slo.ControlBurn(now)
	return adapt.Signals{
		Requests:     cur.requests - prev.requests,
		Rejected:     cur.rejected - prev.rejected,
		Shed:         cur.shed - prev.shed,
		Solves:       cur.solves - prev.solves,
		CacheHits:    cur.hits - prev.hits,
		CacheMisses:  cur.misses - prev.misses,
		Panics:       cur.panics - prev.panics,
		Retries:      cur.retries - prev.retries,
		QueueLen:     s.queueUsed(),
		QueueCap:     cap(s.queue) - parked,
		Inflight:     int(m.Inflight.Load()),
		BreakersOpen: open,
		AvgSolveS:    avgSolveS,
		SLOBurn:      burn,
		SLOSamples:   sloSamples,
		EpochS:       epochS,
	}
}

// applyAdapt pushes one published State into the running service.
func (s *Server) applyAdapt(st *adapt.State, sig adapt.Signals) {
	s.cache.Resize(st.CacheSize)
	s.applyParking(st)

	// Retry budget refills at the observed completion rate.
	if sig.EpochS > 0 {
		s.adaptRT.bucket.SetRate(float64(sig.Solves) / sig.EpochS)
	}
}

// applyParking moves the effective admission and worker capacity toward
// the controller's targets by parking/unparking tokens in the existing
// channels. Tokens are fungible with request tokens, so acquire/release
// need no changes; a full channel just defers the parking to a later
// epoch.
func (s *Server) applyParking(st *adapt.State) {
	targetQ := (s.workers + s.queueDepth) - (st.Workers + st.QueueDepth)
	park(s.queue, &s.parkedQueue, targetQ)
	park(s.sem, &s.parkedSem, s.workers-st.Workers)
}

// park moves the channel's parked-token count toward target. Parking is
// best-effort (a channel full of real work defers to a later epoch);
// unparking never blocks because ≥ parked tokens in the channel are
// unmatched by any request.
func park(ch chan struct{}, parked *atomic.Int64, target int) {
	if target < 0 {
		target = 0
	}
	for int(parked.Load()) < target {
		select {
		case ch <- struct{}{}:
			parked.Add(1)
		default:
			return
		}
	}
	for int(parked.Load()) > target {
		<-ch
		parked.Add(-1)
	}
}

// unparkAll returns every parked token (drain wants full capacity for the
// in-flight work it is waiting out).
func (s *Server) unparkAll() {
	for s.parkedQueue.Load() > 0 {
		<-s.queue
		s.parkedQueue.Add(-1)
	}
	for s.parkedSem.Load() > 0 {
		<-s.sem
		s.parkedSem.Add(-1)
	}
}

// queueUsed is the number of admission tokens held by actual requests
// (parked controller tokens excluded).
func (s *Server) queueUsed() int {
	u := len(s.queue) - int(s.parkedQueue.Load())
	if u < 0 {
		u = 0
	}
	return u
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
	secs := int(math.Ceil(float64(s.queueUsed()+1) * float64(gap) / 1e9))
	if secs < 1 {
		secs = 1
	}
	if secs > maxRetryAfterS {
		secs = maxRetryAfterS
	}
	return secs
}

// errShedDeadline is the deadline-aware admission rejection: given the queue
// ahead of it and the controller's solve-time estimate, this request could
// not have finished inside its remaining deadline, so it is turned away
// before occupying a slot (429 + Retry-After, like a queue-full rejection).
var errShedDeadline = errors.New("service: shed, cannot finish before deadline")

// shedCheck rejects a solve that has no realistic chance of completing
// before its context deadline. Only consulted when the controller has
// entered its shedding regime; requests with no deadline always pass.
func (s *Server) shedCheck(ctx context.Context, st *adapt.State) error {
	if st.EstSolveS <= 0 {
		return nil
	}
	dl, ok := ctx.Deadline()
	if !ok {
		return nil
	}
	workers := st.Workers
	if workers < 1 {
		workers = 1
	}
	// Everything queued ahead must drain, then this solve must run.
	waitS := (float64(s.queueUsed())/float64(workers) + 1) * st.EstSolveS
	if remaining := time.Until(dl).Seconds(); remaining < waitS {
		return errShedDeadline
	}
	return nil
}

// queueOccupancy is queueUsed over the effective (unparked) capacity, the
// gauge the controller itself steers on.
func (s *Server) queueOccupancy() float64 {
	capQ := cap(s.queue) - int(s.parkedQueue.Load())
	if capQ <= 0 {
		return 0
	}
	return float64(s.queueUsed()) / float64(capQ)
}

// brownoutPlan is the solve-mode override a brownout rung applies to one
// request: what to substitute, never how well to price (the LP pricing
// rule is not part of the ladder).
type brownoutPlan struct {
	rung       adapt.Rung
	realize    string
	coarsenEps float64
	windows    int
	heuristic  bool
}

// brownoutFor decides whether (and how) to brown out one solve request.
// Guardrail precedence: a nil State (controller off), full fidelity,
// drain, or `?degraded=forbid` all beat every rung — the answer is nil
// and the request runs exactly as asked. A plan that would change nothing
// (e.g. realize-down on a request that asked for no realization) is also
// nil, so such requests keep their cacheable full-fidelity flights.
func brownoutFor(st *adapt.State, degradedPolicy string, req *SolveRequest) *brownoutPlan {
	if st == nil || st.Rung == adapt.RungFull || st.Draining || degradedPolicy == "forbid" {
		return nil
	}
	p := &brownoutPlan{rung: st.Rung}
	changed := false
	if st.Rung >= adapt.RungRealizeDown && req.Realize != "" && req.Realize != "down" {
		p.realize = "down"
		changed = true
	}
	if st.Rung >= adapt.RungCoarsen && st.CoarsenEps > req.CoarsenEps {
		p.coarsenEps = st.CoarsenEps
		changed = true
	}
	if st.Rung >= adapt.RungWindowed && st.Windows > req.Windows {
		p.windows = st.Windows
		changed = true
	}
	if st.Rung >= adapt.RungHeuristic {
		p.heuristic = true
		changed = true
	}
	if !changed {
		return nil
	}
	return p
}

// apply rewrites the request copy the browned flight will solve.
func (p *brownoutPlan) apply(req *SolveRequest) {
	if p.realize != "" {
		req.Realize = p.realize
	}
	if p.coarsenEps > 0 {
		req.CoarsenEps = p.coarsenEps
	}
	if p.windows > 0 {
		req.Windows = p.windows
	}
}

// ladderEntry derives where one solve enters the degradation ladder from
// the published control state and the request's brownout plan: any rung
// below full fidelity selects the brownout deadline-slice table (a
// draining or disarmed daemon never does), and a heuristic plan enters at
// the heuristic rung. Derived per request, so the table follows the state
// the moment it is published — Drain's snap to full included.
func ladderEntry(st *adapt.State, bo *brownoutPlan) powercap.ResilientEntry {
	var at powercap.ResilientEntry
	at.Brownout = st != nil && st.Rung > adapt.RungFull && !st.Draining
	if bo != nil && bo.heuristic {
		at.Rung = powercap.RungHeuristic
	}
	return at
}
