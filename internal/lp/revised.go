package lp

import (
	"context"
	"math"
	"sync"

	"powercap/internal/faultinject"
	"powercap/internal/lp/basis"
	"powercap/internal/obs"
)

// Revised simplex over sparse columns: the package's one LP kernel. The
// basis inverse is a Markowitz-ordered sparse LU factorization
// (internal/lp/basis) with eta-on-LU pivot updates, rebuilt (reinversion)
// once enough updates accumulate to bound fill-in and floating-point drift;
// entering columns are priced by projected steepest edge (pricing.go).
//
// The kernel runs three pivot loops over the same machinery:
//
//   - primal phase 1 (artificial costs) from the all-slack/artificial basis,
//   - primal phase 2 (real costs),
//   - dual simplex, used to warm start: after an RHS-only change (a power
//     cap sweep step) or appended rows (branch-and-bound children), the
//     previous optimal basis stays dual feasible, and a handful of dual
//     pivots restore primal feasibility — the incremental re-optimization
//     the sweep layers in internal/core and internal/milp rely on.
//
// A solve therefore takes one of three starts: cold (phase 1 from the
// slack/artificial basis, then phase 2), dual (a supplied dual-feasible
// basis, repaired by dual simplex) or primal (a supplied primal-feasible
// basis, such as internal/core's crash basis, where phase 2 runs at once).
// Any trouble with a supplied basis (singular, neither dual nor primal
// feasible, iteration budget) falls back to a cold solve, so a supplied
// basis never costs correctness.

// Numerical tolerances. The scheduling LPs produced by internal/core are well
// scaled (seconds and watts, both O(1)–O(100)), so fixed absolute tolerances
// are adequate.
const (
	epsPivot    = 1e-9  // minimum magnitude for a usable pivot element
	epsReduced  = 1e-9  // reduced-cost optimality tolerance
	epsFeas     = 1e-7  // phase-1 residual treated as feasible
	stallWindow = 200   // iterations without improvement → Bland
	epsImprove  = 1e-12 // objective delta counted as progress

	// epsDualFeas is the reduced-cost tolerance below which a warm basis
	// no longer counts as dual feasible and the warm start is abandoned.
	epsDualFeas = 1e-7
)

// revised is the working state of one revised-simplex solve.
type revised struct {
	f   *spForm
	eng *basis.LU
	pr  *pricer

	factorEpoch int // bumped on every successful factorize

	basis   []int  // per row: basic column
	isBasic []bool // per column
	blocked []bool // per column: excluded from entering

	xB   []float64 // basic variable values per row
	cost []float64 // current-phase costs

	// Dense scratch vectors, reused across iterations.
	alpha []float64
	y     []float64
	rho   []float64

	maxIters    int
	stallWindow int
	cancel      func() bool // polled every cancelCheckEvery pivots
	stats       SolveStats

	nanRetries int    // refactorization-and-retry attempts spent on NaN/Inf
	numReason  string // set when a pivot loop returns statusNumerical

	// sctx parents obs spans; the phase wrappers in solveCold/solveWarm
	// repoint it at their own span so refactorizations nest under the phase
	// that triggered them.
	sctx context.Context
}

// rvPool recycles revised-state arenas across solves. A power-cap sweep
// solves hundreds of similarly-sized LPs back to back; pooling keeps the
// pivot-loop scratch (dense work vectors, LU factor storage, pricer state)
// warm instead of reallocating ~10 slices per solve. Every slice is
// resized capacity-retaining in reset, so a pooled arena serves any shape.
var rvPool = sync.Pool{New: func() any { return new(revised) }}

func newRevised(f *spForm, o *Options) *revised {
	rv := rvPool.Get().(*revised)
	rv.reset(f, o)
	return rv
}

// release returns the arena to the pool. The caller must be done with every
// slice reachable from rv (Solutions copy what they keep, so extract's
// results survive the release).
func (rv *revised) release() {
	rv.f = nil
	rv.cancel = nil
	rv.sctx = nil
	rvPool.Put(rv)
}

// reset rebinds a (possibly pooled) arena to a fresh solve, growing the
// scratch only when the problem outgrew the previous tenant's capacity.
func (rv *revised) reset(f *spForm, o *Options) {
	rv.f = f
	rv.basis = growInts(rv.basis, f.m)
	rv.isBasic = growBools(rv.isBasic, f.n)
	rv.blocked = growBools(rv.blocked, f.n)
	rv.xB = growFloats(rv.xB, f.m)
	rv.cost = growFloats(rv.cost, f.n)
	rv.alpha = growFloats(rv.alpha, f.m)
	rv.y = growFloats(rv.y, f.m)
	rv.rho = growFloats(rv.rho, f.m)
	for j := range rv.isBasic {
		rv.isBasic[j] = false
	}
	for j := range rv.blocked {
		rv.blocked[j] = false
	}
	rv.factorEpoch = 0
	rv.nanRetries = 0
	rv.numReason = ""
	rv.stats = SolveStats{}

	if rv.eng == nil {
		rv.eng = basis.NewLU(f.m)
		rv.pr = newPricer(f)
	} else {
		rv.eng.Reset(f.m)
		rv.pr.reset(f)
	}
	// The LU is pooled and never clears its own health counters (its Reset
	// runs inside mid-solve reinversions too); the solve boundary is here.
	rv.eng.Health().Clear()

	rv.maxIters = f.maxIters
	if o.MaxIters > 0 {
		rv.maxIters = o.MaxIters
	}
	rv.stallWindow = o.StallWindow
	if rv.stallWindow <= 0 {
		rv.stallWindow = stallWindow
	}
	rv.cancel = o.cancelFunc()
	rv.sctx = o.spanContext()
}

// growInts resizes s to n, reusing capacity (contents unspecified).
func growInts(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	return s[:n]
}

func growBools(s []bool, n int) []bool {
	if cap(s) < n {
		return make([]bool, n)
	}
	return s[:n]
}

func growFloats(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

// phase wraps one pivot-loop phase in an obs span named name, nesting any
// refactorizations it triggers under that span. iters counts the pivots the
// phase consumed (for the span attribute).
func (rv *revised) phase(name string, iters *int, run func() Status) Status {
	before := *iters
	pctx, sp := obs.Start(rv.sctx, name)
	old := rv.sctx
	rv.sctx = pctx
	st := run()
	rv.sctx = old
	sp.SetAttr("pivots", *iters-before)
	sp.SetAttr("status", st.String())
	sp.End()
	return st
}

// ftran solves B·x = v in place (v dense, length m).
func (rv *revised) ftran(v []float64) { rv.eng.Ftran(v) }

// btran solves Bᵀ·y = v in place (v dense, length m).
func (rv *revised) btran(v []float64) { rv.eng.Btran(v) }

// factorize rebuilds the basis factorization for the given basis columns
// (column k is basic in row slot k). Returns false when the column set is
// singular. On success rv.basis holds the columns and rv.xB the basic
// values.
func (rv *revised) factorize(cols []int) bool {
	_, sp := obs.Start(rv.sctx, "lp.refactorize")
	defer sp.End()
	rv.stats.Refactorizations++
	slots, ok := rv.eng.Factorize(rv.f, cols)
	if !ok {
		return false
	}
	copy(rv.basis, slots)
	for j := range rv.isBasic {
		rv.isBasic[j] = false
	}
	for _, j := range rv.basis {
		rv.isBasic[j] = true
	}
	rv.factorEpoch++ // pricer refreshes (and resets its γ framework) lazily
	rv.computeXB()
	return true
}

// computeXB recomputes the basic values xB = B⁻¹ b.
func (rv *revised) computeXB() {
	copy(rv.xB, rv.f.b)
	rv.ftran(rv.xB)
}

// refactorIfDue reinverts once the LU's update file outgrows its budget.
// A false return means the basis went singular — a numerical breakdown,
// recorded in numReason for the statusNumerical paths.
func (rv *revised) refactorIfDue() bool {
	if !rv.eng.Due() {
		return true
	}
	return rv.reinvert()
}

// reinvert rebuilds the basis inverse from the current basis columns,
// recording the singular-basis reason on failure.
func (rv *revised) reinvert() bool {
	if !rv.factorize(append([]int(nil), rv.basis...)) {
		rv.numReason = "singular basis at refactorization"
		return false
	}
	return true
}

// stateFinite reports whether the working state (basic values and phase
// objective) is numerically sound.
func (rv *revised) stateFinite() bool {
	return finiteAll(rv.xB) && finite(rv.phaseObjective())
}

// recoverNumerical attempts to repair non-finite working state by rebuilding
// the basis inverse from scratch: reinversion recomputes xB = B⁻¹b from the
// clean standard form, so a corrupted working vector or accumulated eta
// drift is genuinely repaired. Bounded by maxNaNRetries per solve.
func (rv *revised) recoverNumerical() bool {
	for rv.nanRetries < maxNaNRetries {
		rv.nanRetries++
		if !rv.factorize(append([]int(nil), rv.basis...)) {
			return false
		}
		if rv.stateFinite() {
			return true
		}
	}
	return false
}

// checkpoint runs the per-cancelCheckEvery guards shared by the primal and
// dual pivot loops. Cancellation is checked before anything else so a dead
// context always surfaces as Canceled — never as a numerical artifact. The
// returned status is meaningful only when ok is false.
func (rv *revised) checkpoint() (st Status, ok bool) {
	if rv.cancel != nil && rv.cancel() {
		return Canceled, false
	}
	if faultinject.Armed() {
		if faultinject.Fire(faultinject.LPStall) {
			return IterLimit, false
		}
		if faultinject.Fire(faultinject.LPNaN) {
			rv.xB[0] = math.NaN()
		}
	}
	if !rv.stateFinite() {
		if !rv.recoverNumerical() {
			if rv.numReason == "" {
				rv.numReason = "non-finite basic values or objective"
			}
			return statusNumerical, false
		}
	}
	return Optimal, true
}

// computeY fills rv.y with the current-phase duals y = B⁻ᵀ c_B.
func (rv *revised) computeY() {
	for i := range rv.y {
		rv.y[i] = rv.cost[rv.basis[i]]
	}
	rv.btran(rv.y)
}

// phaseObjective evaluates the current phase's objective at xB.
func (rv *revised) phaseObjective() float64 {
	obj := 0.0
	for i, bj := range rv.basis {
		obj += rv.cost[bj] * rv.xB[i]
	}
	return obj
}

// primal runs primal simplex pivots with the current costs, from the
// current factorized basis, until optimality, unboundedness, or the pivot
// budget runs out. iters is shared across phases via the pointer.
func (rv *revised) primal(iters *int) Status {
	f := rv.f
	bland := false
	stall := 0
	lastObj := rv.phaseObjective()
	// Pivot-count watchdog: a solve that has burned half its budget without
	// terminating is likely cycling or creeping; pin Bland's rule on for the
	// remainder, which guarantees finite termination.
	watchdog := rv.maxIters / 2
	rv.pr.invalidate() // phase costs changed (or eviction pivoted behind us)

	for ; *iters < rv.maxIters; *iters++ {
		if *iters%cancelCheckEvery == 0 {
			if st, ok := rv.checkpoint(); !ok {
				return st
			}
			// Refresh in case a NaN recovery rebuilt xB; bitwise a no-op
			// otherwise (same state, same deterministic sum).
			lastObj = rv.phaseObjective()
		}
		if *iters >= watchdog && !bland {
			bland = true
			rv.stats.BlandActivated = true
			rv.stats.BlandActivations++
		}
		enter := rv.pr.priceEntering(rv, bland)
		if enter < 0 {
			return Optimal
		}

		for i := range rv.alpha {
			rv.alpha[i] = 0
		}
		f.scatterCol(enter, rv.alpha)
		rv.ftran(rv.alpha)

		// Minimum-ratio test, taking the LARGEST pivot element among
		// near-tied ratios (a Harris-style second pass): steepest edge's
		// aggressive entering choices otherwise walk through strings of
		// barely-admissible ~epsPivot pivots whose accumulated
		// ill-conditioning the LU refactorization then rejects as singular.
		leave := -1
		bestRatio := math.Inf(1)
		for i := 0; i < f.m; i++ {
			a := rv.alpha[i]
			if a <= epsPivot {
				continue
			}
			if ratio := rv.xB[i] / a; ratio < bestRatio {
				bestRatio = ratio
			}
		}
		bestA := 0.0
		for i := 0; i < f.m; i++ {
			a := rv.alpha[i]
			if a <= epsPivot {
				continue
			}
			if rv.xB[i]/a <= bestRatio+epsPivot && a > bestA {
				bestA = a
				leave = i
			}
		}
		if leave < 0 {
			// The candidate came from incremental reduced costs; verify the
			// ray is genuinely improving before declaring the whole problem
			// unbounded.
			rv.pr.refresh(rv)
			if rv.pr.d[enter] >= -epsReduced {
				continue
			}
			return Unbounded
		}

		leaveCol := rv.basis[leave]
		rv.pr.preparePivotRow(rv, leave)
		rv.pivotUpdate(leave, enter)
		rv.pr.applyPivot(enter, leaveCol, rv.alpha[leave])
		if !rv.refactorIfDue() {
			return statusNumerical
		}

		obj := rv.phaseObjective()
		if lastObj-obj > epsImprove {
			stall = 0
			bland = false
		} else {
			stall++
			if stall >= rv.stallWindow {
				bland = true
				rv.stats.BlandActivated = true
				rv.stats.BlandActivations++
			}
		}
		lastObj = obj
	}
	return IterLimit
}

// pivotUpdate applies the pivot (leave row, enter column) to xB, the basis,
// and the LU's eta file. rv.alpha must hold B⁻¹·a_enter.
func (rv *revised) pivotUpdate(leave, enter int) {
	theta := rv.xB[leave] / rv.alpha[leave]
	for i := range rv.xB {
		if i == leave {
			continue
		}
		rv.xB[i] -= theta * rv.alpha[i]
		if rv.xB[i] < 0 && rv.xB[i] > -epsFeas {
			rv.xB[i] = 0
		}
	}
	rv.xB[leave] = theta
	rv.isBasic[rv.basis[leave]] = false
	rv.isBasic[enter] = true
	rv.eng.Update(leave, rv.alpha)
	rv.basis[leave] = enter
}

// evictArtificials pivots still-basic artificials (at value zero after a
// feasible phase 1) out wherever a real column has a usable pivot in their
// row; rows with none are redundant and keep the artificial basic at zero
// with its column blocked.
func (rv *revised) evictArtificials() bool {
	f := rv.f
	for r := 0; r < f.m; r++ {
		if !f.artificial[rv.basis[r]] {
			continue
		}
		for i := range rv.rho {
			rv.rho[i] = 0
		}
		rv.rho[r] = 1
		rv.btran(rv.rho)
		for j := 0; j < f.nReal; j++ {
			if rv.isBasic[j] {
				continue
			}
			if math.Abs(f.colDot(j, rv.rho)) <= epsPivot {
				continue
			}
			for i := range rv.alpha {
				rv.alpha[i] = 0
			}
			f.scatterCol(j, rv.alpha)
			rv.ftran(rv.alpha)
			if math.Abs(rv.alpha[r]) <= epsPivot {
				continue
			}
			rv.pivotUpdate(r, j)
			if !rv.refactorIfDue() {
				return false
			}
			break
		}
	}
	return true
}

// dual runs dual simplex pivots from a dual-feasible basis until primal
// feasibility (Optimal), proven primal infeasibility (Infeasible), or the
// budget runs out (IterLimit — callers fall back to a cold solve).
func (rv *revised) dual(iters *int) Status {
	f := rv.f
	bland := false
	stall := 0
	lastInfeas := rv.primalInfeasibility()
	watchdog := rv.maxIters / 2
	rv.pr.invalidate()

	for ; *iters < rv.maxIters; *iters++ {
		if *iters%cancelCheckEvery == 0 {
			if st, ok := rv.checkpoint(); !ok {
				return st
			}
			lastInfeas = rv.primalInfeasibility()
		}
		if *iters >= watchdog && !bland {
			bland = true
			rv.stats.BlandActivated = true
			rv.stats.BlandActivations++
		}
		// Leaving row: most negative basic value (smallest row index under
		// the anti-cycling fallback).
		leave := -1
		worst := -epsFeas
		for i := 0; i < f.m; i++ {
			if rv.xB[i] < worst {
				worst = rv.xB[i]
				leave = i
				if bland {
					break
				}
			}
		}
		if leave < 0 {
			return Optimal
		}
		rv.stats.DualIters++

		// Pivot row of B⁻¹A and reduced costs for the ratio test: the pricer
		// keeps d[] incrementally (exact on refactorize) and assembles only
		// the pivot row's touched columns.
		if bland {
			rv.pr.refresh(rv)
		} else {
			rv.pr.ensureFresh(rv)
		}
		enter := rv.dualRatioTest(leave)
		if enter < 0 {
			// The row demands Σ a_j x_j = xB[leave] < 0 with every usable
			// coefficient ≥ 0: primal infeasible. (The decision depends only
			// on the pivot row's signs, never on the maintained d[].)
			return Infeasible
		}
		switch rv.dualPivot(leave, enter) {
		case pivotRetry:
			continue
		case pivotFailed:
			return statusNumerical
		}

		infeas := rv.primalInfeasibility()
		if lastInfeas-infeas > epsImprove {
			stall = 0
			bland = false
		} else {
			stall++
			if stall >= rv.stallWindow {
				bland = true
				rv.stats.BlandActivated = true
				rv.stats.BlandActivations++
			}
		}
		lastInfeas = infeas
	}
	return IterLimit
}

// dualRatioTest picks the entering column of a dual simplex pivot on row
// leave: it assembles the pivot row of B⁻¹A from ρ = B⁻ᵀe_leave and takes
// the minimum ratio d_j/−α_rj over columns with α_rj < 0, then — the same
// Harris-style pivot-size protection as the primal loop — the largest
// |α_rj| among near-ties. The pricer's d[] must be fresh. It returns −1
// when no column has a usable negative entry: no basic solution can raise
// the row's basic variable, so the row cannot be made feasible.
func (rv *revised) dualRatioTest(leave int) int {
	for i := range rv.rho {
		rv.rho[i] = 0
	}
	rv.rho[leave] = 1
	rv.btran(rv.rho)

	enter := -1
	bestRatio := math.Inf(1)
	rv.pr.rowCombine(rv.f, rv.rho)
	for _, j := range rv.pr.accCols {
		if rv.isBasic[j] || rv.blocked[j] {
			continue
		}
		arj := rv.pr.accVal[j]
		if arj >= -epsPivot {
			continue
		}
		d := rv.pr.d[j]
		if d < 0 {
			d = 0 // dual feasibility holds up to drift; clamp
		}
		if ratio := d / -arj; ratio < bestRatio {
			bestRatio = ratio
		}
	}
	bestA := 0.0
	for _, j := range rv.pr.accCols {
		if rv.isBasic[j] || rv.blocked[j] {
			continue
		}
		arj := rv.pr.accVal[j]
		if arj >= -epsPivot {
			continue
		}
		d := rv.pr.d[j]
		if d < 0 {
			d = 0
		}
		if d/-arj <= bestRatio+epsReduced && -arj > bestA {
			bestA = -arj
			enter = j
		}
	}
	return enter
}

// Outcomes of dualPivot.
const (
	pivotDone   = iota // the pivot was applied
	pivotRetry         // the factorization was rebuilt; redo the iteration
	pivotFailed        // numerical breakdown, recorded in numReason
)

// dualPivot applies the dual simplex pivot (leave row, enter column) chosen
// by dualRatioTest, whose pivot row the pricer still holds: FTRAN of the
// entering column, the basis and reduced-cost updates, and a reinversion
// when one is due.
func (rv *revised) dualPivot(leave, enter int) int {
	for i := range rv.alpha {
		rv.alpha[i] = 0
	}
	rv.f.scatterCol(enter, rv.alpha)
	rv.ftran(rv.alpha)
	if math.Abs(rv.alpha[leave]) <= epsPivot {
		// The pivot row (BTRAN) and pivot column (FTRAN) disagree. On an
		// update-laden factorization that is almost always accumulated
		// update drift, which a reinversion genuinely repairs — rebuild and
		// retry the iteration. Disagreement on a fresh factorization is a
		// real breakdown.
		if rv.eng.Updates() > 0 && rv.reinvert() {
			return pivotRetry
		}
		if rv.numReason == "" {
			rv.numReason = "ftran/btran pivot mismatch"
		}
		return pivotFailed
	}
	leaveCol := rv.basis[leave]
	rv.pivotUpdate(leave, enter)
	rv.pr.applyPivot(enter, leaveCol, rv.alpha[leave])
	if !rv.refactorIfDue() {
		return pivotFailed
	}
	return pivotDone
}

// primalInfeasibility sums the magnitude of negative basic values.
func (rv *revised) primalInfeasibility() float64 {
	s := 0.0
	for _, v := range rv.xB {
		if v < 0 {
			s -= v
		}
	}
	return s
}

// extract builds the Solution from an optimal terminal state, in the form's
// space and the stated problem's sense; the caller unscales it and
// evaluates the objective.
func (rv *revised) extract(iters int) *Solution {
	f := rv.f
	sol := &Solution{Status: Optimal, Iters: iters, X: make([]float64, f.nOrig)}
	for i, bj := range rv.basis {
		if bj < f.nOrig {
			v := rv.xB[i]
			if v < 0 && v > -epsFeas {
				v = 0
			}
			sol.X[bj] = v
		}
	}
	// Duals y = c_Bᵀ B⁻¹ on the normalized rows, mapped back to the rows
	// as the caller stated them via rowSign, and to a maximization's sense
	// (the kernel minimizes its negated costs).
	rv.computeY()
	sol.Dual = make([]float64, f.m)
	for i := range sol.Dual {
		sol.Dual[i] = rv.y[i] * f.rowSign[i]
		if f.maximize {
			sol.Dual[i] = -sol.Dual[i]
		}
	}
	sol.Basis = make([]int, f.m)
	for i, bj := range rv.basis {
		if bj < f.nOrig {
			sol.Basis[i] = bj
		} else {
			sol.Basis[i] = f.nOrig + f.colOwner[bj]
		}
	}
	sol.Stats = rv.stats
	return sol
}

// Starts a solve can take, as the lp.solve span's start attribute reports
// them: the two-phase solve from the slack/artificial basis, or a supplied
// basis repaired by dual simplex or optimized by phase 2 directly.
const (
	startCold   = "cold"
	startDual   = "dual"
	startPrimal = "primal"
)

// markStart names the start the solve takes on its lp.solve span, which
// Solve opened in rv.sctx.
func (rv *revised) markStart(start string) { obs.SpanFrom(rv.sctx).SetAttr("start", start) }

// solveSparse runs the revised simplex on form f: the kernel behind Solve,
// for the scaled stated rows and for the rescue alike. The solution is in
// the form's space, its objective left for the caller. One pooled arena
// serves the whole call: a supplied basis the kernel cannot use resets the
// same scratch for the cold fallback instead of allocating a second
// working set, and the abandoned attempt's pivots and refactorizations
// stay in the returned stats.
func solveSparse(f *spForm, o *Options) (*Solution, error) {
	rv := newRevised(f, o)
	defer rv.release()
	var abandoned SolveStats
	if len(o.WarmBasis) > 0 {
		if sol, ok := rv.solveWarm(o.WarmBasis); ok {
			rv.harvestHealth(&sol.Stats)
			return sol, nil
		}
		abandoned = rv.stats
		rv.reset(f, o)
		rv.markStart(startCold)
	}
	sol := rv.solveCold()
	sol.Iters += abandoned.Pivots()
	sol.Stats.addEffort(abandoned)
	rv.harvestHealth(&sol.Stats)
	if sol.Status == statusNumerical {
		return nil, &NumericalError{Reason: rv.numReason, Pivots: sol.Iters}
	}
	return sol, nil
}

// harvestHealth folds the LU's health counters (cleared at reset,
// accumulated across every factorization and pivot of this solve) and the
// NaN-recovery count into a finished solution's stats. It runs after the
// terminal Solution exists so every exit path — extract, infeasible,
// iteration limit, cancellation — carries the same forensic counters.
func (rv *revised) harvestHealth(st *SolveStats) {
	h := rv.eng.Health()
	st.MaxEtaLen = h.MaxEtaLen
	st.PivotRejections = h.PivotRejections
	st.FactorTauRetries = h.TauRetries
	st.NaNRecoveries = rv.nanRetries
}

// solveCold runs two-phase primal simplex from the slack/artificial basis.
func (rv *revised) solveCold() *Solution {
	f := rv.f
	iters := 0
	if !rv.factorize(f.initBasis) {
		// The initial basis is triangular (±1 diagonals) and cannot be
		// singular; failure here means the inputs are numerically rotten.
		rv.numReason = "initial basis singular"
		return &Solution{Status: statusNumerical, Objective: math.NaN(), X: make([]float64, f.nOrig), Stats: rv.stats}
	}

	needPhase1 := false
	for _, bj := range rv.basis {
		if f.artificial[bj] {
			needPhase1 = true
			break
		}
	}

	if needPhase1 {
		for j := range rv.cost {
			if f.artificial[j] {
				rv.cost[j] = 1
			} else {
				rv.cost[j] = 0
			}
		}
		st := rv.phase("lp.phase1", &iters, func() Status { return rv.primal(&iters) })
		rv.stats.Phase1Iters = iters
		if st == IterLimit || st == Canceled || st == statusNumerical {
			return &Solution{Status: st, Objective: math.NaN(), Iters: iters, X: make([]float64, f.nOrig), Stats: rv.stats}
		}
		if rv.phaseObjective() > epsFeas {
			return &Solution{Status: Infeasible, Objective: math.NaN(), Iters: iters, X: make([]float64, f.nOrig), Stats: rv.stats}
		}
		if !rv.evictArtificials() {
			return &Solution{Status: statusNumerical, Objective: math.NaN(), Iters: iters, X: make([]float64, f.nOrig), Stats: rv.stats}
		}
		for j := range rv.blocked {
			if f.artificial[j] {
				rv.blocked[j] = true
			}
		}
	}

	copy(rv.cost, f.cost)
	st := rv.phase("lp.phase2", &iters, func() Status { return rv.primal(&iters) })
	rv.stats.Phase2Iters = iters - rv.stats.Phase1Iters
	if st != Optimal {
		return &Solution{Status: st, Objective: math.NaN(), Iters: iters, X: make([]float64, f.nOrig), Stats: rv.stats}
	}
	return rv.extract(iters)
}

// artificialOffZero reports whether a basic artificial sits away from zero,
// so the basis does not satisfy that artificial's row. The dual loop drives
// out only negative values and artificials never enter, so solveWarm
// rejects such a basis rather than repair it: after factorizing the warm
// basis, and again before extracting, since a pivot can move a basic
// artificial.
func (rv *revised) artificialOffZero() bool {
	for i, bj := range rv.basis {
		if rv.f.artificial[bj] && math.Abs(rv.xB[i]) > epsFeas {
			return true
		}
	}
	return false
}

// solveWarm attempts a solve from a supplied problem-space basis, either a
// previous solve's or one the caller built. After factorizing it, a basis
// with an artificial off zero is rejected; a dual-feasible basis is repaired
// by dual simplex (startDual); any other basis with x_B ≥ −epsFeas is
// primal feasible and phase 2 runs from it directly, with no phase 1
// (startPrimal). Returns ok=false when the basis is unusable (wrong shape,
// singular, neither dual nor primal feasible, or the repair exceeds the
// budget) — the caller then falls back to a cold solve. A returned solution
// is always a trustworthy terminal status (Optimal or Unbounded);
// infeasibility detected by the dual simplex is deliberately re-verified
// cold.
func (rv *revised) solveWarm(warm []int) (*Solution, bool) {
	f := rv.f
	if len(warm) > f.m {
		return nil, false
	}
	cols := make([]int, f.m)
	used := make([]bool, f.n)
	for r := 0; r < f.m; r++ {
		var col int
		if r < len(warm) {
			e := warm[r]
			switch {
			case e < 0 || e >= f.nOrig+f.m:
				return nil, false
			case e < f.nOrig:
				col = e
			default:
				col = f.auxCol[e-f.nOrig]
			}
		} else {
			// Rows appended after the basis was exported start with their
			// own canonical auxiliary basic (see the encoding notes).
			col = f.auxCol[r]
		}
		if used[col] {
			return nil, false
		}
		used[col] = true
		cols[r] = col
	}
	if !rv.factorize(cols) || rv.artificialOffZero() {
		return nil, false
	}

	copy(rv.cost, f.cost)
	for j := range rv.blocked {
		if f.artificial[j] {
			rv.blocked[j] = true
		}
	}

	// A previous optimum stays dual feasible after RHS-only changes and
	// row appends; arbitrary edits void it.
	rv.computeY()
	dualFeasible := true
	for j := 0; j < f.n; j++ {
		if rv.isBasic[j] || rv.blocked[j] {
			continue
		}
		if rv.cost[j]-f.colDot(j, rv.y) < -epsDualFeas {
			dualFeasible = false
			break
		}
	}
	iters := 0
	if !dualFeasible {
		// A primal-feasible basis, such as a crash basis built from a
		// known feasible point, needs no repair: phase 2 starts from it.
		for i, v := range rv.xB {
			if v < -epsFeas {
				return nil, false
			}
			if v < 0 {
				rv.xB[i] = 0
			}
		}
		rv.stats.WarmStarted = true
		rv.markStart(startPrimal)
		st := rv.phase("lp.phase2", &iters, func() Status { return rv.primal(&iters) })
		rv.stats.Phase2Iters = iters
		return rv.finishWarm(st, iters)
	}
	rv.stats.WarmStarted = true
	rv.markStart(startDual)

	switch rv.phase("lp.dual", &iters, func() Status { return rv.dual(&iters) }) {
	case Optimal:
		// Fall through to a primal polish (usually zero pivots).
	case Canceled:
		// Abandoned by the caller: falling back to a cold solve would burn
		// exactly the pivots cancellation is meant to save.
		return &Solution{Status: Canceled, Objective: math.NaN(), Iters: iters, X: make([]float64, f.nOrig), Stats: rv.stats}, true
	case Infeasible, IterLimit, statusNumerical:
		// Numerical trouble on a warm basis is not worth fighting: the cold
		// solve starts from a pristine triangular basis.
		return nil, false
	}
	st := rv.phase("lp.phase2", &iters, func() Status { return rv.primal(&iters) })
	rv.stats.Phase2Iters = iters - rv.stats.DualIters
	return rv.finishWarm(st, iters)
}

// finishWarm turns the terminal status of a solve from a supplied basis
// into its solution; ok=false sends the caller to a cold solve.
func (rv *revised) finishWarm(st Status, iters int) (*Solution, bool) {
	switch st {
	case Optimal:
		if rv.artificialOffZero() {
			return nil, false
		}
		return rv.extract(iters), true
	case Unbounded, Canceled:
		return &Solution{Status: st, Objective: math.NaN(), Iters: iters, X: make([]float64, rv.f.nOrig), Stats: rv.stats}, true
	default:
		return nil, false
	}
}
