// Package market implements the cluster power market: a site-wide power
// budget divided across N concurrent jobs, each an independent
// fixed-vertex-order LP (internal/core) exposing its power–time curve and
// its shadow price dT/dW. The paper's motivating setting is explicit —
// "total machine power will be divided across multiple simultaneous jobs" —
// and the LP duals are exactly the marginal information a divider needs:
// a job on a steep region of its curve buys more time per watt than a job
// on a flat one, so watts should flow from flat to steep until marginal
// values equalize. That is the runtime power-shifting idea of Medhat et
// al.'s "Power Redistribution for Optimizing Performance in MPI Clusters"
// (and the paper's Conductor baseline), lifted from sockets within a job to
// jobs within a cluster.
//
// Because each job's LP value function T_j(W) is convex and non-increasing
// in the cap (the cap enters only constraint right-hand sides), minimizing
// the cluster's total makespan Σ_j T_j(W_j) subject to Σ_j W_j ≤ B and
// per-job feasibility floors is a convex allocation problem whose KKT
// condition is equal marginal value across all jobs not pinned at a bound.
// The market policy reaches it by monotone improvement: repeated
// donor→receiver watt transfers, each accepted only if the summed makespan
// drops, with step halving on overshoot. Every probe of a job's curve is a
// warm dual-simplex re-solve on that job's core.CapSession — the LP is
// built once per job, and successive cap adjustments cost a handful of
// pivots, not cold solves.
package market

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"

	"powercap/internal/core"
	"powercap/internal/obs"
)

// Policy names a budget-splitting strategy.
type Policy string

const (
	// Uniform splits the budget into equal shares (clamped up to each
	// job's feasibility floor) — the site-wide analogue of the paper's
	// Static per-socket capping, and the baseline the market must beat.
	Uniform Policy = "uniform"
	// Proportional splits the budget in proportion to each job's power
	// demand (the saturation cap beyond which extra watts stop buying
	// time), clamped to floors.
	Proportional Policy = "proportional"
	// Market starts from the uniform split and iteratively moves watts
	// from the job with the flattest power–time curve to the job with the
	// steepest until marginal values equalize within tolerance or floors
	// bind. Transfers are accepted only when the total makespan drops, so
	// the market result is never worse than the uniform split.
	Market Policy = "market"
)

// Policies lists the accepted policy names.
func Policies() []Policy { return []Policy{Uniform, Proportional, Market} }

// ParsePolicy validates a policy name (case-insensitive).
func ParsePolicy(name string) (Policy, error) {
	p := Policy(strings.ToLower(strings.TrimSpace(name)))
	if p == "" {
		return Market, nil
	}
	for _, q := range Policies() {
		if p == q {
			return q, nil
		}
	}
	return "", fmt.Errorf("market: unknown policy %q (want one of %v)", name, Policies())
}

// Session is one job's re-solvable power–time curve: SolveAt probes the
// curve at a cap (warm-started; ErrInfeasible below the feasibility floor),
// FixedFloorW is a free lower bound on any feasible cap, and Stats reports
// accumulated solver effort. core.CapSession implements it.
type Session interface {
	SolveAt(ctx context.Context, capW float64) (*core.Schedule, error)
	FixedFloorW() float64
	Stats() core.Stats
}

// Job is one participant in the allocation.
type Job struct {
	// Name identifies the job in traces and errors; names must be unique
	// within one Allocate call.
	Name string
	// Session solves the job's LP at a given cap.
	Session Session
}

// Options tunes Allocate. The zero value uses the defaults documented per
// field.
type Options struct {
	// Policy selects the splitting strategy (default Market).
	Policy Policy
	// ToleranceSecPerW is the market's convergence tolerance: iteration
	// stops once the spread between the steepest job's marginal value and
	// the flattest donor's is at most this (default 1e-3 s/W).
	ToleranceSecPerW float64
	// MaxIterations bounds market iterations (default 64).
	MaxIterations int
	// FloorResolutionW is the bisection resolution for per-job feasibility
	// floors; the reported floor is the feasible end of the final bracket,
	// so every cap the allocator hands out is known-feasible (default 0.5).
	FloorResolutionW float64
	// MinTransferW is the smallest watt transfer the market attempts;
	// once step halving drops below it, iteration stops (default 0.05).
	MinTransferW float64
}

func (o Options) normalize() (Options, error) {
	p, err := ParsePolicy(string(o.Policy))
	if err != nil {
		return o, err
	}
	o.Policy = p
	if o.ToleranceSecPerW <= 0 {
		o.ToleranceSecPerW = 1e-3
	}
	if o.MaxIterations <= 0 {
		o.MaxIterations = 64
	}
	if o.FloorResolutionW <= 0 {
		o.FloorResolutionW = 0.5
	}
	if o.MinTransferW <= 0 {
		o.MinTransferW = 0.05
	}
	return o, nil
}

// BudgetError reports a budget below the sum of per-job feasibility floors:
// no split can schedule every job. Floors names each job's floor, largest
// first — the binding constraints an operator would shed load from.
type BudgetError struct {
	BudgetW   float64
	FloorSumW float64
	Floors    []JobFloor
}

// JobFloor is one job's discovered minimum feasible power.
type JobFloor struct {
	Name   string
	FloorW float64
}

func (e *BudgetError) Error() string {
	parts := make([]string, len(e.Floors))
	for i, f := range e.Floors {
		parts[i] = fmt.Sprintf("%s≥%.1fW", f.Name, f.FloorW)
	}
	return fmt.Sprintf("market: budget %.1f W below the %.1f W sum of per-job feasibility floors (%s)",
		e.BudgetW, e.FloorSumW, strings.Join(parts, ", "))
}

// JobAllocation is one job's final slice of the budget.
type JobAllocation struct {
	Name string
	// CapW is the job-level power cap this job was granted.
	CapW float64
	// FloorW is the discovered minimum feasible power (bisection over
	// ErrInfeasible, reported at the feasible end of the final bracket).
	FloorW float64
	// DemandW is the saturation cap: the (bisected) smallest cap at which
	// the job's marginal value is ≈ 0, i.e. the watts the job can actually
	// convert into time.
	DemandW float64
	// MakespanS and MarginalSecPerW are the job's LP bound and shadow
	// price at CapW.
	MakespanS       float64
	MarginalSecPerW float64
	// Schedule is the full LP schedule at CapW.
	Schedule *core.Schedule
	// Degraded marks a job whose session broke down mid-allocation; its
	// cap was frozen at the last successful solve and it was excluded from
	// further trading. Reason carries the failure.
	Degraded bool
	Reason   string
}

// Transfer is one market iteration's attempted watt movement, recorded for
// the allocation trace.
type Transfer struct {
	Iteration int
	From, To  string
	Watts     float64
	// SpreadSecPerW is the marginal-value spread before the transfer.
	SpreadSecPerW float64
	// TotalMakespanS is the summed makespan after the transfer (after
	// revert, when not accepted).
	TotalMakespanS float64
	Accepted       bool
}

// Allocation is a solved cluster split.
type Allocation struct {
	Policy  Policy
	BudgetW float64
	// Jobs is in input order.
	Jobs []JobAllocation
	// TotalMakespanS is the summed per-job makespan — the objective the
	// market minimizes (jobs occupy disjoint sockets, so the sum is the
	// cluster's aggregate time-to-solution). MaxMakespanS is the slowest
	// job, for operators who care about the batch tail.
	TotalMakespanS float64
	MaxMakespanS   float64
	// Iterations counts market rounds (0 for uniform and proportional).
	// Converged reports the market reached its marginal-spread tolerance;
	// FinalSpreadSecPerW is the spread at termination.
	Iterations         int
	Converged          bool
	FinalSpreadSecPerW float64
	// MovedW is the accepted watt-volume redistributed away from the
	// starting split. Transfers is the full trace.
	MovedW    float64
	Transfers []Transfer
	// Solves counts LP re-solves across the whole allocation (floor and
	// demand bisections included); Stats aggregates their solver effort.
	Solves int
	Stats  core.Stats
}

// state is the allocator's per-job working record.
type state struct {
	job    Job
	floorW float64
	demand float64
	capW   float64
	sched  *core.Schedule // last successful solve at capW
	bad    bool           // session broke down; frozen and excluded
	reason string
	solves int
}

// m is the job's marginal value of power in s/W: how much total time one
// more watt buys (non-negative; 0 once saturated).
func (st *state) m() float64 {
	if st.sched == nil {
		return 0
	}
	if v := -st.sched.MarginalSecPerW; v > 0 {
		return v
	}
	return 0
}

// Allocate divides budgetW across jobs under opts.Policy. Job names must be
// non-empty and unique. The error is reserved for structural problems
// (bad options, duplicate names, a *BudgetError budget below the floor sum,
// cancellation, or a job failing before any successful solve); per-job
// mid-allocation breakdowns degrade that job instead (JobAllocation.Degraded).
func Allocate(ctx context.Context, jobs []Job, budgetW float64, opts Options) (*Allocation, error) {
	opts, err := opts.normalize()
	if err != nil {
		return nil, err
	}
	if len(jobs) == 0 {
		return nil, errors.New("market: no jobs")
	}
	if budgetW <= 0 || math.IsNaN(budgetW) || math.IsInf(budgetW, 0) {
		return nil, fmt.Errorf("market: budget %g W must be positive and finite", budgetW)
	}
	seen := make(map[string]bool, len(jobs))
	for _, j := range jobs {
		if j.Name == "" {
			return nil, errors.New("market: job with empty name")
		}
		if seen[j.Name] {
			return nil, fmt.Errorf("market: duplicate job name %q", j.Name)
		}
		seen[j.Name] = true
		if j.Session == nil {
			return nil, fmt.Errorf("market: job %q has no session", j.Name)
		}
	}

	actx, span := obs.Start(ctx, "market.allocate")
	defer span.End()
	span.SetAttr("policy", string(opts.Policy))
	span.SetAttr("jobs", len(jobs))
	span.SetAttr("budget_w", budgetW)

	a := &Allocation{Policy: opts.Policy, BudgetW: budgetW}
	sts := make([]*state, len(jobs))
	for i, j := range jobs {
		sts[i] = &state{job: j}
	}

	// Phase 1: discover each job's feasibility floor and saturation demand
	// by bisection over its session. Every cap handed out later is at or
	// above the floor's feasible end, so allocation probes cannot go
	// infeasible except through numerical breakdown.
	if err := discoverCurves(actx, sts, budgetW, opts); err != nil {
		return nil, err
	}
	var floorSum float64
	for _, st := range sts {
		floorSum += st.floorW
	}
	if floorSum > budgetW {
		be := &BudgetError{BudgetW: budgetW, FloorSumW: floorSum}
		for _, st := range sts {
			be.Floors = append(be.Floors, JobFloor{Name: st.job.Name, FloorW: st.floorW})
		}
		sort.Slice(be.Floors, func(i, j int) bool {
			if be.Floors[i].FloorW != be.Floors[j].FloorW {
				return be.Floors[i].FloorW > be.Floors[j].FloorW
			}
			return be.Floors[i].Name < be.Floors[j].Name
		})
		return nil, be
	}

	// Phase 2: the policy's split.
	switch opts.Policy {
	case Uniform:
		assign(sts, waterFill(sts, budgetW, equalWeight))
	case Proportional:
		assign(sts, waterFill(sts, budgetW, demandWeight))
	case Market:
		assign(sts, waterFill(sts, budgetW, equalWeight))
		if err := solveAll(actx, sts); err != nil {
			return nil, err
		}
		if err := runMarket(actx, a, sts, opts); err != nil {
			return nil, err
		}
	}
	if err := solveAll(actx, sts); err != nil {
		return nil, err
	}

	// Phase 3: assemble.
	for _, st := range sts {
		ja := JobAllocation{
			Name:     st.job.Name,
			CapW:     st.capW,
			FloorW:   st.floorW,
			DemandW:  st.demand,
			Degraded: st.bad,
			Reason:   st.reason,
		}
		if st.sched != nil {
			ja.MakespanS = st.sched.MakespanS
			ja.MarginalSecPerW = st.sched.MarginalSecPerW
			ja.Schedule = st.sched
			a.TotalMakespanS += st.sched.MakespanS
			if st.sched.MakespanS > a.MaxMakespanS {
				a.MaxMakespanS = st.sched.MakespanS
			}
		}
		a.Jobs = append(a.Jobs, ja)
		a.Solves += st.solves
		a.Stats.Add(st.job.Session.Stats())
	}
	if opts.Policy == Uniform || opts.Policy == Proportional {
		a.Converged = true // nothing iterative to converge
		a.FinalSpreadSecPerW = spread(sts, opts)
	}
	span.SetAttr("iterations", a.Iterations)
	span.SetAttr("total_makespan_s", a.TotalMakespanS)
	return a, nil
}

// discoverCurves bisects each job's feasibility floor and saturation
// demand. Floors are mandatory; a job whose session cannot complete floor
// discovery fails the whole allocation (there is no last-good state to
// freeze yet).
func discoverCurves(ctx context.Context, sts []*state, budgetW float64, opts Options) error {
	for _, st := range sts {
		fctx, sp := obs.Start(ctx, "market.floor")
		sp.SetAttr("job", st.job.Name)
		err := discoverJob(fctx, st, budgetW, opts)
		sp.SetAttr("floor_w", st.floorW)
		sp.SetAttr("demand_w", st.demand)
		sp.End()
		if err != nil {
			return fmt.Errorf("market: job %q: %w", st.job.Name, err)
		}
	}
	return nil
}

func discoverJob(ctx context.Context, st *state, budgetW float64, opts Options) error {
	// Exponential search up from the fixed floor for any feasible cap.
	lo := st.job.Session.FixedFloorW()
	if lo < 0 {
		lo = 0
	}
	hi := lo + 8
	var hiSched *core.Schedule
	for range 24 {
		sched, err := st.job.Session.SolveAt(ctx, hi)
		st.solves++
		if err == nil {
			hiSched = sched
			break
		}
		if !errors.Is(err, core.ErrInfeasible) {
			return err
		}
		lo = hi
		hi *= 2
	}
	if hiSched == nil {
		return fmt.Errorf("no feasible cap found up to %.0f W", hi)
	}

	// Bisect the floor: lo infeasible (or the fixed floor), hi feasible.
	floorSched := hiSched
	floorW := hi
	for hi-lo > opts.FloorResolutionW {
		mid := (lo + hi) / 2
		sched, err := st.job.Session.SolveAt(ctx, mid)
		st.solves++
		switch {
		case err == nil:
			hi, floorW, floorSched = mid, mid, sched
		case errors.Is(err, core.ErrInfeasible):
			lo = mid
		default:
			return err
		}
	}
	st.floorW = floorW
	st.capW = floorW
	st.sched = floorSched

	// Bisect the saturation demand: the smallest cap with ≈ zero marginal.
	// |dT/dW| is non-increasing in the cap (T is convex), so the predicate
	// "marginal ≈ 0" is monotone. Search above the floor, doubling until
	// saturated.
	const satEps = 1e-9
	lo = floorW
	hi = math.Max(2*floorW, floorW+16)
	var hiM float64 = math.Inf(1)
	for range 24 {
		sched, err := st.job.Session.SolveAt(ctx, hi)
		st.solves++
		if err != nil {
			return err
		}
		hiM = -sched.MarginalSecPerW
		if hiM <= satEps {
			break
		}
		lo = hi
		hi *= 2
	}
	if hiM > satEps {
		st.demand = hi // never saturates in range; treat the cap as demand
		return nil
	}
	for hi-lo > math.Max(opts.FloorResolutionW, 1) {
		mid := (lo + hi) / 2
		sched, err := st.job.Session.SolveAt(ctx, mid)
		st.solves++
		if err != nil {
			if errors.Is(err, core.ErrInfeasible) {
				lo = mid // numerically brittle edge; keep the feasible side
				continue
			}
			return err
		}
		if -sched.MarginalSecPerW <= satEps {
			hi = mid
		} else {
			lo = mid
		}
	}
	st.demand = hi
	return nil
}

// waterFill divides the budget in proportion to each job's weight (equal
// shares when no unclamped job has weight), clamping any job whose share
// falls below its floor up to the floor and re-splitting the residue among
// the rest until no share does.
func waterFill(sts []*state, budgetW float64, weight func(*state) float64) []float64 {
	caps := make([]float64, len(sts))
	clamped := make([]bool, len(sts))
	for {
		var fixed, wsum float64
		free := 0
		for i, st := range sts {
			if clamped[i] {
				fixed += st.floorW
			} else {
				wsum += weight(st)
				free++
			}
		}
		if free == 0 {
			break
		}
		again := false
		for i, st := range sts {
			if clamped[i] {
				continue
			}
			share := (budgetW - fixed) / float64(free)
			if wsum > 0 {
				share = (budgetW - fixed) * weight(st) / wsum
			}
			if share < st.floorW {
				clamped[i] = true
				again = true
			} else {
				caps[i] = share
			}
		}
		if !again {
			for i, st := range sts {
				if clamped[i] {
					caps[i] = st.floorW
				}
			}
			break
		}
	}
	return caps
}

// equalWeight makes waterFill a uniform split; demandWeight makes it
// proportional to saturation demand.
func equalWeight(*state) float64     { return 1 }
func demandWeight(st *state) float64 { return st.demand }

func assign(sts []*state, caps []float64) {
	for i, st := range sts {
		st.capW = caps[i]
	}
}

// solveAll brings every non-degraded job's schedule up to date with its
// cap. Jobs already solved at their cap are skipped (the market leaves most
// jobs' schedules current).
func solveAll(ctx context.Context, sts []*state) error {
	for _, st := range sts {
		if st.bad || (st.sched != nil && st.sched.CapW == st.capW) {
			continue
		}
		sched, err := st.job.Session.SolveAt(ctx, st.capW)
		st.solves++
		if err != nil {
			if degradeJob(st, err) {
				continue
			}
			return fmt.Errorf("market: job %q at %.1f W: %w", st.job.Name, st.capW, err)
		}
		st.sched = sched
	}
	return nil
}

// degradeJob freezes a job at its last successful solve after a session
// breakdown, excluding it from further trading. Cancellation is never
// degraded — it must surface. Returns false when there is no last-good
// state to freeze (the caller fails the allocation).
func degradeJob(st *state, err error) bool {
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	if st.sched == nil {
		return false
	}
	st.bad = true
	st.reason = err.Error()
	st.capW = st.sched.CapW
	return true
}

// spread is the current marginal-value spread: the steepest job's marginal
// minus the flattest *donor*'s (a job pinned at its floor cannot give, so
// its flatness is irrelevant). 0 when no transfer is possible.
func spread(sts []*state, opts Options) float64 {
	maxM := math.Inf(-1)
	minDonor := math.Inf(1)
	for _, st := range sts {
		if st.bad {
			continue
		}
		maxM = math.Max(maxM, st.m())
		if st.capW-st.floorW > opts.MinTransferW {
			minDonor = math.Min(minDonor, st.m())
		}
	}
	if math.IsInf(maxM, -1) || math.IsInf(minDonor, 1) {
		return 0
	}
	if s := maxM - minDonor; s > 0 {
		return s
	}
	return 0
}

// runMarket iterates donor→receiver transfers from the current (uniform)
// split until the marginal spread is within tolerance, floors bind, or the
// iteration budget runs out. Each accepted transfer strictly reduces the
// summed makespan, so the market never finishes worse than its start.
func runMarket(ctx context.Context, a *Allocation, sts []*state, opts Options) error {
	total := func() float64 {
		var t float64
		for _, st := range sts {
			if st.sched != nil {
				t += st.sched.MakespanS
			}
		}
		return t
	}

	// Initial step: a healthy fraction of the tradeable watts.
	var tradeable float64
	for _, st := range sts {
		tradeable += st.capW - st.floorW
	}
	step := tradeable / float64(4*len(sts))
	if step < opts.MinTransferW {
		step = opts.MinTransferW
	}
	maxStep := step * 4

	cur := total()
	for a.Iterations < opts.MaxIterations {
		sp := spread(sts, opts)
		a.FinalSpreadSecPerW = sp
		if sp <= opts.ToleranceSecPerW {
			a.Converged = true
			return nil
		}

		// Pick the steepest receiver and the flattest donor able to give.
		var donor, recv *state
		for _, st := range sts {
			if st.bad {
				continue
			}
			if recv == nil || st.m() > recv.m() {
				recv = st
			}
			if st.capW-st.floorW > opts.MinTransferW && (donor == nil || st.m() < donor.m()) {
				donor = st
			}
		}
		if donor == nil || recv == nil || donor == recv {
			a.Converged = sp <= opts.ToleranceSecPerW
			return nil
		}

		a.Iterations++
		ictx, span := obs.Start(ctx, "market.iteration")
		span.SetAttr("iter", a.Iterations)
		span.SetAttr("from", donor.job.Name)
		span.SetAttr("to", recv.job.Name)
		d := math.Min(step, donor.capW-donor.floorW)
		accepted, newTotal, err := tryTransfer(ictx, donor, recv, d, cur)
		span.SetAttr("watts", d)
		span.SetAttr("accepted", accepted)
		span.End()
		if err != nil {
			// A breakdown mid-transfer degrades the failing job (frozen at
			// its last-good cap and schedule) and the market trades on.
			if !degradeJob(donor, err) && !degradeJob(recv, err) {
				return fmt.Errorf("market: transfer %s→%s: %w", donor.job.Name, recv.job.Name, err)
			}
			continue
		}
		a.Transfers = append(a.Transfers, Transfer{
			Iteration:      a.Iterations,
			From:           donor.job.Name,
			To:             recv.job.Name,
			Watts:          d,
			SpreadSecPerW:  sp,
			TotalMakespanS: newTotal,
			Accepted:       accepted,
		})
		if accepted {
			a.MovedW += d
			cur = newTotal
			if step *= 1.5; step > maxStep {
				step = maxStep
			}
		} else {
			if step /= 2; step < opts.MinTransferW {
				a.FinalSpreadSecPerW = spread(sts, opts)
				a.Converged = a.FinalSpreadSecPerW <= opts.ToleranceSecPerW
				return nil
			}
		}
	}
	a.FinalSpreadSecPerW = spread(sts, opts)
	a.Converged = a.FinalSpreadSecPerW <= opts.ToleranceSecPerW
	return nil
}

// tryTransfer moves d watts from donor to recv, re-solves both, and keeps
// the move only if the summed makespan dropped; otherwise both jobs revert
// to their previous caps and schedules (no re-solve needed — the old
// Schedule values are still valid for the old caps).
func tryTransfer(ctx context.Context, donor, recv *state, d, curTotal float64) (accepted bool, newTotal float64, err error) {
	oldDonor, oldRecv := *donor, *recv
	donor.capW -= d
	recv.capW += d

	dSched, err := donor.job.Session.SolveAt(ctx, donor.capW)
	if err != nil {
		*donor, *recv = oldDonor, oldRecv
		donor.solves++
		return false, curTotal, err
	}
	rSched, err := recv.job.Session.SolveAt(ctx, recv.capW)
	if err != nil {
		*donor, *recv = oldDonor, oldRecv
		donor.solves++
		recv.solves++
		return false, curTotal, err
	}

	delta := (dSched.MakespanS + rSched.MakespanS) - (oldDonor.sched.MakespanS + oldRecv.sched.MakespanS)
	if delta < -1e-12 {
		donor.sched, recv.sched = dSched, rSched
		donor.solves++
		recv.solves++
		return true, curTotal + delta, nil
	}
	*donor, *recv = oldDonor, oldRecv
	donor.solves++ // keep the probe solves counted on the reverted states
	recv.solves++
	return false, curTotal, nil
}
