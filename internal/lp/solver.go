package lp

import (
	"context"
	"errors"
	"math"
	"time"

	"powercap/internal/faultinject"
	"powercap/internal/obs"
)

// This file defines the solve entry point: the options pattern for tuning a
// solve, the in-kernel numerical rescue, and the problem-space basis
// encoding that lets one solve warm start the next (see DESIGN.md §14).

// ErrInfeasible is the package-level infeasibility sentinel. Solve itself
// reports infeasibility through Solution.Status (its errors are malformed
// problems and numerical breakdowns), but higher layers wrap this sentinel
// so that errors.Is(err, lp.ErrInfeasible) holds through core, flowilp, and
// the public powercap API.
var ErrInfeasible = errors.New("lp: infeasible")

// Options collects per-solve settings. Construct via Option functions.
type Options struct {
	// MaxIters overrides the pivot budget (0 = automatic, proportional to
	// problem size; Problem.SetMaxIters applies when this is 0).
	MaxIters int
	// StallWindow is how many non-improving iterations are tolerated
	// before switching to Bland's anti-cycling rule (0 = default 200).
	StallWindow int
	// NoScaling solves the stated rows unscaled, without equilibration:
	// the numerical rescue's configuration. Tests use it as a second
	// opinion, and a walk opened with it runs its first segment unscaled;
	// scaling is semantically invisible otherwise. A solve without scaling
	// gets no numerical rescue: the rescue is exactly such a solve.
	NoScaling bool
	// WarmBasis is a starting basis in the Solution.Basis encoding. It may
	// come from a previous solve of a problem with the same variables and a
	// prefix of the same rows (RHS values and appended rows may differ), or
	// be built by the caller, as internal/core's crash basis is. A
	// dual-feasible basis is repaired by dual simplex, a primal-feasible one
	// starts phase 2 directly, and the solve falls back to a cold start if
	// the basis is neither or is unusable, so a stale, mismatched or
	// infeasible basis costs time, never correctness.
	WarmBasis []int
	// Ctx, when non-nil, lets the caller abandon a solve mid-pivot: the
	// pivot loops poll ctx.Err() every cancelCheckEvery iterations and
	// return Status Canceled once it is non-nil. Long-running services
	// thread per-request deadlines through here so an abandoned request
	// stops burning simplex pivots.
	Ctx context.Context
	// SpanCtx, when non-nil, carries obs span parentage only — it never
	// feeds cancellation. Callers that want both pass the same context to
	// WithContext and WithSpanContext; callers that must preserve the
	// "background context means no cancel polling" fast path (internal/core)
	// can trace without arming the polls.
	SpanCtx context.Context
}

// Option mutates Options.
type Option func(*Options)

// WithMaxIters overrides the pivot budget for this solve.
func WithMaxIters(n int) Option { return func(o *Options) { o.MaxIters = n } }

// WithStallWindow overrides the stall threshold that engages Bland's rule.
func WithStallWindow(n int) Option { return func(o *Options) { o.StallWindow = n } }

// WithoutScaling solves the stated rows unscaled, as the rescue does.
func WithoutScaling() Option { return func(o *Options) { o.NoScaling = true } }

// WithWarmBasis supplies a starting basis in the Solution.Basis encoding,
// from a previous solve or built by the caller (see Options.WarmBasis).
func WithWarmBasis(basis []int) Option { return func(o *Options) { o.WarmBasis = basis } }

// WithContext makes the solve cancelable: when ctx is canceled or its
// deadline passes, the pivot loops stop at their next poll and the solve
// returns Status Canceled.
func WithContext(ctx context.Context) Option { return func(o *Options) { o.Ctx = ctx } }

// WithSpanContext supplies the context obs spans parent onto, without
// enabling cancellation polling. With tracing disarmed this costs nothing.
func WithSpanContext(ctx context.Context) Option { return func(o *Options) { o.SpanCtx = ctx } }

// spanContext resolves where kernel spans should parent: the explicit span
// context if set, else the cancellation context. May be nil (obs.Start
// accepts nil and falls back to the global trace).
func (o *Options) spanContext() context.Context {
	if o.SpanCtx != nil {
		return o.SpanCtx
	}
	return o.Ctx
}

// cancelCheckEvery is how many pivots pass between context polls. Polling
// is one atomic load inside ctx.Err(), but scheduling-LP pivots can be
// microseconds, so the loops amortize the check.
const cancelCheckEvery = 32

// SolveStats instruments one Solve call.
type SolveStats struct {
	// Phase1Iters and Phase2Iters count primal simplex pivots per phase;
	// DualIters counts dual simplex pivots (warm starts only).
	Phase1Iters int
	Phase2Iters int
	DualIters   int
	// Refactorizations counts basis reinversions.
	Refactorizations int
	// WarmStarted reports whether a supplied basis was used, as a dual or a
	// primal start (false when it was absent or unusable).
	WarmStarted bool
	// BlandActivated reports whether the anti-cycling fallback engaged;
	// BlandActivations counts how many times it switched on (it can engage,
	// relax on objective progress, and re-engage within one solve).
	BlandActivated   bool
	BlandActivations int `json:",omitempty"`
	// MaxEtaLen is the peak basis-update (eta) file length — the growth
	// proxy for basis conditioning.
	MaxEtaLen int `json:",omitempty"`
	// PivotRejections counts factorization rows the LU engine's threshold
	// (Markowitz-tie-broken) pivoting rejected; FactorTauRetries counts
	// factorizations retried under strict partial pivoting after the
	// relaxed threshold hit a vanishing pivot.
	PivotRejections  int `json:",omitempty"`
	FactorTauRetries int `json:",omitempty"`
	// NaNRecoveries counts refactorize-and-retry repairs of non-finite
	// working state (see revised.recoverNumerical).
	NaNRecoveries int `json:",omitempty"`
	// Rescues counts numerical rescues: 1 when the scaled solve broke down
	// and this solution comes from the cold re-solve of the same rows
	// unscaled (see Solve), else 0.
	Rescues int `json:",omitempty"`
	// RowNormMax and RowNormMin are the extreme row norms (max-abs per row)
	// of the constraint matrix handed to the kernel after scaling; their
	// ratio is the scaling condition proxy. Solves without scaling
	// (WithoutScaling, the rescue) leave them zero.
	RowNormMax float64 `json:",omitempty"`
	RowNormMin float64 `json:",omitempty"`
	// Wall is the end-to-end solve time.
	Wall time.Duration
}

// RowNormRatio is the scaling condition proxy: max/min row norm of the
// matrix the kernel actually factorized (0 when unknown).
func (s SolveStats) RowNormRatio() float64 {
	if s.RowNormMin <= 0 {
		return 0
	}
	return s.RowNormMax / s.RowNormMin
}

// Pivots is the total pivot count across phases.
func (s SolveStats) Pivots() int { return s.Phase1Iters + s.Phase2Iters + s.DualIters }

// addEffort folds the effort of an abandoned start attempt (which runs no
// phase 1) into s: its pivots, refactorizations and anti-cycling
// engagements were paid for even though the solve fell back cold.
func (s *SolveStats) addEffort(o SolveStats) {
	s.Phase2Iters += o.Phase2Iters
	s.DualIters += o.DualIters
	s.Refactorizations += o.Refactorizations
	s.BlandActivations += o.BlandActivations
	s.BlandActivated = s.BlandActivated || o.BlandActivated
}

// Basis encoding: Solution.Basis has one entry per constraint row, naming
// the variable basic in that row in problem space:
//
//   - an entry v < NumVars() is the structural variable v;
//   - an entry NumVars()+r is row r's canonical auxiliary variable (the
//     slack of a ≤ row, the surplus of a ≥ row, the artificial of an = row).
//
// The encoding is stable under appending rows (existing entries keep their
// meaning), which is what lets branch-and-bound warm start child nodes from
// the parent basis: rows added for branches simply take their own auxiliary
// as the initial basic variable.

// Solve runs the sparse revised simplex on the scaled form of p's stated
// rows, cold or from a supplied basis (WithWarmBasis); the lp.solve span's
// start attribute names the start the solve took: cold, dual or primal. A
// problem without rows is answered without the kernel: Optimal at zero,
// or Unbounded when a column improves the objective. The returned error is
// non-nil only for malformed problems and for numerical breakdowns the
// rescue did not repair (*NumericalError); infeasibility and unboundedness
// are reported through Solution.Status.
//
// A solve that breaks down numerically is rescued once, inside Solve: the
// same rows are re-solved cold and unscaled. The rescue changes the
// factorized matrix (no equilibration) and drops any warm basis, so the LU
// sees a different pivot sequence; a second breakdown is returned as is.
// Solution.Stats.Rescues records it.
func Solve(p *Problem, opts ...Option) (*Solution, error) {
	if len(p.names) == 0 {
		return nil, ErrNoVariables
	}
	var o Options
	for _, opt := range opts {
		opt(&o)
	}
	if o.MaxIters == 0 {
		o.MaxIters = p.maxIters
	}
	if o.StallWindow == 0 {
		o.StallWindow = stallWindow
	}
	if faultinject.Armed() && faultinject.Fire(faultinject.SlowSolve) {
		sleepSlow(o.Ctx)
	}

	sctx, span := obs.Start(o.spanContext(), "lp.solve")
	defer span.End()
	span.SetAttr("vars", p.NumVars())
	span.SetAttr("rows", p.NumConstraints())
	span.SetAttr("start", startCold) // until the kernel uses a supplied basis
	o.SpanCtx = sctx                 // the kernel parents its phase spans under lp.solve

	start := time.Now()
	var sol *Solution
	var err error
	switch {
	case len(p.rows) == 0:
		sol = solveRowFree(p)
	case o.NoScaling:
		sol, err = solveStated(p, &o, false)
	default:
		sol, err = solveStated(p, &o, true)
		var ne *NumericalError
		if errors.As(err, &ne) {
			span.SetAttr("rescue", ne.Reason)
			o.NoScaling, o.WarmBasis = true, nil
			sol, err = solveStated(p, &o, false)
			if err == nil {
				sol.Stats.Rescues = 1
			}
		}
	}
	if err != nil {
		return nil, err
	}
	sol.Stats.Wall = time.Since(start)
	span.SetAttr("status", sol.Status.String())
	span.SetAttr("pivots", sol.Stats.Pivots())
	return sol, nil
}

// solveStated solves p's stated rows on the kernel, equilibrated when
// scale is set (every solve but the rescue and WithoutScaling). Only the
// scaled solve reports the form's row norms.
func solveStated(p *Problem, o *Options, scale bool) (*Solution, error) {
	f := buildForm(p, nil, scale)
	sol, err := solveSparse(f, o)
	if err != nil {
		return nil, err
	}
	if scale {
		sol.Stats.RowNormMax, sol.Stats.RowNormMin = f.normMax, f.normMin
	}
	if sol.Status == Optimal {
		f.unscale(sol)
		sol.Objective = objective(p, sol.X)
	}
	return sol, nil
}

// solveRowFree answers a problem without rows: every column sits at zero
// unless one improves the objective without limit.
func solveRowFree(p *Problem) *Solution {
	x := make([]float64, len(p.names))
	for _, c := range p.obj {
		if (p.sense == Minimize && c < 0) || (p.sense == Maximize && c > 0) {
			return &Solution{Status: Unbounded, Objective: math.NaN(), X: x}
		}
	}
	return &Solution{Status: Optimal, Objective: objective(p, x), X: x, Dual: []float64{}, Basis: []int{}}
}

// objective evaluates p's objective, in its own sense, at x.
func objective(p *Problem, x []float64) float64 {
	obj := 0.0
	for j, c := range p.obj {
		obj += c * x[j]
	}
	return obj
}

// sleepSlow implements the SlowSolve fault: a context-aware delay of the
// configured duration, injected before the kernel runs so per-rung deadline
// slices in internal/resilience get exercised.
func sleepSlow(ctx context.Context) {
	d := faultinject.SlowDelay()
	if d <= 0 {
		return
	}
	if ctx == nil {
		time.Sleep(d)
		return
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-ctx.Done():
	}
}
