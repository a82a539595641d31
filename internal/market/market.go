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
// sides), and one parametric walk (core.CapSession.Curve) returns all of it:
// the exact feasibility floor, the saturation demand, and every breakpoint.
// Minimizing Σ_j T_j(W_j) subject to Σ_j W_j ≤ B and the floors is then a
// separable convex program whose optimum the market policy computes in
// closed form: start every job at its floor and grant curve pieces in order
// of steepest slope until the budget is spent — the equal-marginal (KKT)
// split. One solve per job at its granted cap then produces the schedule
// and checks it against the curve.
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
	// Market starts every job at its floor and grants curve pieces in
	// order of steepest slope until the budget is spent: the exact
	// equal-marginal split of the summed makespan, so never worse than
	// uniform.
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

// Session is one job's re-solvable LP: Curve walks its whole power–time
// curve, SolveAt solves it at one cap, and Stats reports the accumulated
// solver effort. core.CapSession implements it.
type Session interface {
	Curve(ctx context.Context) (*core.Curve, error)
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
	// FloorW is the exact minimum feasible power, from the job's curve.
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
	// Degraded marks a job whose final solve at CapW failed or disagreed
	// with its curve. It keeps its cap, its makespan and shadow price are
	// the curve's, it has no Schedule, and Reason carries the failure.
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
	// Iterations counts the curve pieces the market granted (0 for
	// uniform and proportional).
	Iterations int
	// MovedW is the watt volume the split moved away from the uniform
	// split: half the L1 distance between the two.
	MovedW float64
	// Solves counts LP solves across the whole allocation (a curve walk
	// counts as one); Stats aggregates their solver effort.
	Solves int
	Stats  core.Stats
}

// state is the allocator's per-job working record.
type state struct {
	job    Job
	curve  *core.Curve
	floorW float64
	demand float64
	capW   float64
	sched  *core.Schedule // the final solve at capW
	bad    bool           // final solve failed or disagreed with the curve
	reason string
	solves int
}

// Allocate divides budgetW across jobs under opts.Policy. Job names must be
// non-empty and unique. The error is reserved for structural problems
// (bad options, duplicate names, a *BudgetError budget below the floor sum,
// cancellation, or a job whose curve cannot be built); a job whose final
// solve fails degrades instead (JobAllocation.Degraded).
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
	for i, j := range jobs {
		sts[i] = &state{job: j}
	}

	// Phase 1: each job's exact curve, floor and demand in one walk.
	if err := buildCurves(actx, sts); err != nil {
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
	uniform := waterFill(sts, budgetW, equalWeight)
	switch policy {
	case Uniform:
		assign(sts, uniform)
	case Proportional:
		assign(sts, waterFill(sts, budgetW, demandWeight))
	case Market:
		a.Iterations = grantPieces(sts, budgetW)
	}
	for i, st := range sts {
		a.MovedW += math.Max(st.capW-uniform[i], 0)
	}

	// Phase 3: one solve per job at its cap, checked against the curve.
	if err := solveAll(actx, sts); err != nil {
		return nil, err
	}
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
			_, ja.MakespanS, ja.MarginalSecPerW, _ = st.curve.At(st.capW)
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

// buildCurves walks each job's curve. A job whose curve cannot be built
// fails the whole allocation: without its floor no split is known safe.
func buildCurves(ctx context.Context, sts []*state) error {
	for _, st := range sts {
		fctx, sp := obs.Start(ctx, "market.floor")
		sp.SetAttr("job", st.job.Name)
		c, err := st.job.Session.Curve(fctx)
		st.solves++
		if err == nil {
			st.curve, st.floorW, st.demand = c, c.FloorW, c.DemandW
			sp.SetAttr("floor_w", st.floorW)
			sp.SetAttr("demand_w", st.demand)
			sp.SetAttr("breakpoints", len(c.Points))
		}
		sp.End()
		if err != nil {
			return fmt.Errorf("market: job %q: %w", st.job.Name, err)
		}
	}
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

// grantPieces is the market split. Every job starts at its floor; the
// budget then buys curve pieces, steepest first, each job's pieces in cap
// order, ties to the earlier job — so at the end no job's next watt is
// worth more than any job's last granted watt, the KKT condition of the
// separable convex program. The last piece may be granted in part. Budget
// left once every job reaches its demand is spread equally. It returns the
// number of pieces granted.
func grantPieces(sts []*state, budgetW float64) int {
	left := budgetW
	next := make([]int, len(sts)) // each job's next piece; its floor is point 0
	for _, st := range sts {
		st.capW = st.floorW
		left -= st.floorW
	}
	granted := 0
	for left > 0 {
		// The curve's slopes are exactly zero from the demand up.
		best, bestSlope := -1, 0.0
		for i, st := range sts {
			pts := st.curve.Points
			if next[i] >= len(pts)-1 {
				continue
			}
			if s := pts[next[i]].SlopeSecPerW; s < bestSlope {
				best, bestSlope = i, s
			}
		}
		if best < 0 {
			break
		}
		st := sts[best]
		grant := math.Min(st.curve.Points[next[best]+1].CapW-st.capW, left)
		st.capW += grant
		left -= grant
		next[best]++
		granted++
	}
	if left > 0 {
		for _, st := range sts {
			st.capW += left / float64(len(sts))
		}
	}
	return granted
}

// curveTol is the relative agreement required between a final solve's
// objective and its job's curve at the granted cap.
const curveTol = 1e-9

// solveAll solves every job once at its cap and checks the LP objective
// against the job's curve. A failed solve or a failed check degrades the
// job; cancellation fails the allocation.
func solveAll(ctx context.Context, sts []*state) error {
	for _, st := range sts {
		sched, err := st.job.Session.SolveAt(ctx, st.capW)
		st.solves++
		if err != nil {
			if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
				return fmt.Errorf("market: job %q at %.1f W: %w", st.job.Name, st.capW, err)
			}
			st.bad, st.reason = true, err.Error()
			continue
		}
		want, _, _, _ := st.curve.At(st.capW)
		if d := math.Abs(sched.Objective - want); d > curveTol*math.Max(1, math.Abs(want)) {
			st.bad = true
			st.reason = fmt.Sprintf("solve at %.3f W has objective %.12g, its curve %.12g", st.capW, sched.Objective, want)
			continue
		}
		st.sched = sched
	}
	return nil
}
