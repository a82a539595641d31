// Package market implements the cluster power market: a site-wide power
// budget divided across N concurrent jobs, each an independent
// fixed-vertex-order LP (internal/core) exposing its power–time curve. The
// paper's motivating setting is explicit — "total machine power will be
// divided across multiple simultaneous jobs" — and the curve's slope dT/dW
// is exactly the marginal information a divider needs: a job on a steep
// region of its curve buys more time per watt than a job on a flat one, so
// watts should flow from flat to steep until marginal values equalize. That
// is the runtime power-shifting idea of Medhat et al.'s "Power
// Redistribution for Optimizing Performance in MPI Clusters" (and the
// paper's Conductor baseline), lifted from sockets within a job to jobs
// within a cluster.
//
// Each job's LP value function T_j(W) is convex, non-increasing and
// piecewise linear in the cap (the cap enters only constraint right-hand
// sides). The job LP decomposes exactly at the job's MPI_Pcontrol
// boundaries into per-iteration LPs whose values add up, so a job walk
// (core.JobWalk) traces T_j one piece at a time, from a saturating cap down
// toward the job's feasibility floor, which is known in closed form: one
// parametric walk per iteration slice, moved in lock step, each crossing a
// breakpoint on a basis about a quarter the whole graph's size. Minimizing
// Σ_j T_j(W_j) subject to Σ_j W_j ≤ B and the floors is then a separable
// convex program whose optimum the market policy reaches top down: every
// job starts at its saturation demand, and while the caps exceed the
// budget the job whose next piece down is flattest is lowered — the
// equal-marginal (KKT) split, walking each job only as far as its granted
// cap. Each job's schedule is then read off its walk at that cap, each
// slice's part checked by a certificate on its LP, with no further solve.
package market

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sort"
	"strings"

	"powercap/internal/core"
	"powercap/internal/fanout"
	"powercap/internal/lp"
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
	// Market starts every job at its saturation demand and lowers the job
	// whose next curve piece down is flattest until the caps fit the
	// budget: the exact equal-marginal split of the summed makespan, so
	// never worse than uniform.
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

// Session is one job's re-solvable LP: FloorW is its closed-form
// feasibility floor, Walk opens a walk down its power–time curve, SolveAt
// solves it at one cap, and Stats reports the accumulated solver effort.
// core.JobSession implements it.
type Session interface {
	FloorW() float64
	Walk(ctx context.Context) (*core.JobWalk, error)
	SolveAt(ctx context.Context, capW float64) (*core.Schedule, error)
	Stats() core.Stats
}

// Job is one participant in the allocation.
type Job struct {
	// Name identifies the job in traces and errors; names must be unique
	// within one Allocate call.
	Name string
	// Session solves the job's LP.
	Session Session
}

// Options tunes Allocate.
type Options struct {
	// Policy selects the splitting strategy (default Market).
	Policy Policy
}

// BudgetError reports a budget below the sum of per-job feasibility floors:
// no split can schedule every job. Floors names each job's floor, largest
// first — the binding constraints an operator would shed load from.
type BudgetError struct {
	BudgetW   float64
	FloorSumW float64
	Floors    []JobFloor
}

// JobFloor is one job's minimum feasible power.
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
	// FloorW is the exact minimum feasible power, in closed form.
	FloorW float64
	// DemandW is the saturation cap: the highest breakpoint of the curve
	// below which its slope is nonzero, i.e. the watts the job can
	// actually convert into time.
	DemandW float64
	// MakespanS and MarginalSecPerW are the job's LP bound and shadow
	// price at CapW.
	MakespanS       float64
	MarginalSecPerW float64
	// Schedule is the full LP schedule at CapW.
	Schedule *core.Schedule
	// Degraded marks a job whose schedule could be read neither off its
	// walk (the capture failed or its certificate did not hold) nor from a
	// fallback solve at CapW that agrees with the walk. It keeps its cap,
	// its makespan and shadow price are the walk's, it has no Schedule, and
	// Reason carries the failures.
	Degraded bool
	Reason   string
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
	// Iterations counts the market's lowering steps from the demands down
	// to the budget (0 for uniform and proportional).
	Iterations int
	// MovedW is the watt volume the split moved away from the uniform
	// split: half the L1 distance between the two.
	MovedW float64
	// Solves counts LP solves across the whole allocation: one walk per
	// job, plus any fallback solve. Stats aggregates their solver effort.
	Solves int
	Stats  core.Stats
}

// state is the allocator's per-job working record.
type state struct {
	job    Job
	walk   *core.JobWalk
	floorW float64
	demand float64
	capW   float64
	sched  *core.Schedule // read at capW
	solves int
	// A degraded job has no schedule: the walk's makespan and slope at its
	// cap stand in, and reason says why.
	bad       bool
	reason    string
	makespanS float64
	slope     float64
}

// Allocate divides budgetW across jobs under opts.Policy. Job names must be
// non-empty and unique. The error is reserved for structural problems
// (bad options, duplicate names, a *BudgetError budget below the floor sum,
// cancellation, or a job whose walk cannot be opened or lowered); a job
// whose schedule cannot be read degrades instead (JobAllocation.Degraded).
func Allocate(ctx context.Context, jobs []Job, budgetW float64, opts Options) (*Allocation, error) {
	policy, err := ParsePolicy(string(opts.Policy))
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
	span.SetAttr("policy", string(policy))
	span.SetAttr("jobs", len(jobs))
	span.SetAttr("budget_w", budgetW)

	a := &Allocation{Policy: policy, BudgetW: budgetW}
	sts := make([]*state, len(jobs))
	var floorSum float64
	for i, j := range jobs {
		sts[i] = &state{job: j, floorW: j.Session.FloorW()}
		floorSum += sts[i].floorW
	}
	// Phase 1: the closed-form floors. A budget below their sum costs no LP.
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
	defer closeWalks(sts)

	// Phase 2: one walk per job, lowered through its flat top to its
	// demand.
	if err := openWalks(actx, sts); err != nil {
		return nil, err
	}

	// Phase 3: the policy's split. The market lowers the walks as it goes;
	// the other policies lower them to their caps with the schedules.
	uniform := waterFill(sts, budgetW, equalWeight)
	switch policy {
	case Uniform:
		assign(sts, uniform)
	case Proportional:
		assign(sts, waterFill(sts, budgetW, demandWeight))
	case Market:
		ictx, isp := obs.Start(actx, "market.iteration")
		a.Iterations, err = lowerToBudget(ictx, sts, budgetW)
		isp.SetAttr("steps", a.Iterations)
		isp.End()
		if err != nil {
			return nil, err
		}
	}
	for i, st := range sts {
		a.MovedW += math.Max(st.capW-uniform[i], 0)
	}

	// Phase 4: each job's schedule, read off its walk at its cap.
	if err := readSchedules(actx, sts); err != nil {
		return nil, err
	}
	closeWalks(sts)
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
		} else {
			ja.MakespanS, ja.MarginalSecPerW = st.makespanS, st.slope
		}
		a.TotalMakespanS += ja.MakespanS
		a.MaxMakespanS = math.Max(a.MaxMakespanS, ja.MakespanS)
		a.Jobs = append(a.Jobs, ja)
		a.Solves += st.solves
		a.Stats.Add(st.job.Session.Stats())
	}
	span.SetAttr("iterations", a.Iterations)
	span.SetAttr("total_makespan_s", a.TotalMakespanS)
	return a, nil
}

// openWalks opens each job's walk and lowers it to its demand, the jobs
// side by side. A job whose walk cannot be opened fails the whole
// allocation: without its demand no split is known. The first such job in
// input order is the one named.
func openWalks(ctx context.Context, sts []*state) error {
	return fanout.Run(ctx, len(sts), runtime.GOMAXPROCS(0), func(ctx context.Context, i int) error {
		st := sts[i]
		fctx, sp := obs.Start(ctx, "market.floor")
		sp.SetAttr("job", st.job.Name)
		w, err := st.job.Session.Walk(fctx)
		if err == nil {
			st.walk = w
			st.solves++
			st.demand, err = w.Demand(fctx)
			st.capW = st.demand
			sp.SetAttr("floor_w", st.floorW)
			sp.SetAttr("demand_w", st.demand)
		}
		sp.End()
		if err != nil {
			return fmt.Errorf("market: job %q: %w", st.job.Name, err)
		}
		return nil
	})
}

// closeWalks closes every open walk, which counts it in its session's
// Stats.
func closeWalks(sts []*state) {
	for _, st := range sts {
		if st.walk != nil {
			st.walk.Close()
			st.walk = nil
		}
	}
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

// lowerToBudget is the market split, taken top down from the demands.
// Budget left over at the demands is spread equally. Otherwise, while the
// caps sum above the budget, the job whose piece below its cap is flattest
// — whose last watt buys the least time — is lowered by the rest of that
// piece or by the excess, whichever is smaller, never below its floor;
// ties go to the later job. This takes back, flattest first, exactly the
// pieces a grant from the floors up, steepest first and ties to the
// earlier job, would grant last, so it ends at the same equal-marginal
// split: no job's next watt is worth more than any job's last. It returns
// the number of lowering steps.
//
// A step's breakpoint crossing happens when the next step asks the lowered
// job for its piece, so the crossings of a run of steps that lower one job
// are recorded under one lp.dual span (lp.GroupCrossings), opened when the
// run starts and ended when another job is lowered: a traced lowering
// keeps one span per run, not one per step.
func lowerToBudget(ctx context.Context, sts []*state, budgetW float64) (int, error) {
	excess := -budgetW
	for _, st := range sts {
		excess += st.capW
	}
	if excess < 0 {
		for _, st := range sts {
			st.capW -= excess / float64(len(sts))
		}
		return 0, nil
	}
	run, rctx, rsp := -1, ctx, (*obs.Span)(nil)
	defer func() { rsp.End() }()
	steps := 0
	for excess > 0 {
		best, bestLo, bestSlope := -1, 0.0, 0.0
		for i, st := range sts {
			if st.capW <= st.floorW {
				continue
			}
			sctx := ctx
			if i == run {
				sctx = rctx
			}
			lo, slope, err := st.walk.Piece(sctx)
			if err != nil {
				return steps, fmt.Errorf("market: job %q: %w", st.job.Name, err)
			}
			if lo >= st.capW {
				continue
			}
			if best < 0 || slope >= bestSlope {
				best, bestLo, bestSlope = i, math.Max(lo, st.floorW), slope
			}
		}
		if best < 0 {
			break
		}
		if best != run {
			rsp.End()
			run = best
			rctx, rsp = lp.GroupCrossings(ctx)
		}
		st := sts[best]
		if rest := st.capW - bestLo; rest <= excess {
			st.capW, excess = bestLo, excess-rest
		} else {
			st.capW, excess = st.capW-excess, 0
		}
		if err := st.walk.Lower(rctx, st.capW); err != nil {
			return steps, fmt.Errorf("market: job %q: %w", st.job.Name, err)
		}
		steps++
	}
	return steps, nil
}

// capture reads a job's schedule off its walk; tests replace it to fail
// captures.
var capture = (*core.JobWalk).Schedule

// curveTol is the relative agreement required between a fallback solve's
// objective and its job's walk at the granted cap.
const curveTol = 1e-9

// readSchedules lowers each job's walk to its cap, if it is not there
// already, and reads the job's schedule off it. A cap at or above the
// demand is read at the demand, on the flat piece: that schedule is
// optimal at any higher cap. A failed capture falls back to one solve at
// the cap, checked against the walk's objective; when that fails too the
// job degrades, keeping the walk's makespan and slope. Cancellation fails
// the allocation.
func readSchedules(ctx context.Context, sts []*state) error {
	canceled := func(err error) bool {
		return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
	}
	for _, st := range sts {
		lctx, lsp := ctx, (*obs.Span)(nil)
		if st.walk.CapW() > st.capW {
			// A policy that did not lower the walks as it split walks each
			// down here, its crossings under one span.
			lctx, lsp = lp.GroupCrossings(ctx)
		}
		err := st.walk.Lower(lctx, st.capW)
		lsp.End()
		if err == nil {
			var sched *core.Schedule
			if sched, err = capture(st.walk, ctx); err == nil {
				sched.CapW = st.capW
				st.sched = sched
				continue
			}
		}
		if canceled(err) {
			return fmt.Errorf("market: job %q at %.1f W: %w", st.job.Name, st.capW, err)
		}
		want, makespanS, slope := st.walk.At()
		sched, ferr := st.job.Session.SolveAt(ctx, st.capW)
		st.solves++
		switch {
		case ferr != nil && canceled(ferr):
			return fmt.Errorf("market: job %q at %.1f W: %w", st.job.Name, st.capW, ferr)
		case ferr == nil && math.Abs(sched.Objective-want) > curveTol*math.Max(1, math.Abs(want)):
			ferr = fmt.Errorf("solve at %.3f W has objective %.12g, its walk %.12g", st.capW, sched.Objective, want)
		case ferr == nil:
			st.sched = sched
			continue
		}
		st.bad, st.makespanS, st.slope = true, makespanS, slope
		st.reason = fmt.Sprintf("capture: %v; fallback: %v", err, ferr)
	}
	return nil
}
