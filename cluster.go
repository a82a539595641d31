package powercap

// Cluster power market facade. The paper's motivating setting — "total
// machine power will be divided across multiple simultaneous jobs" — is
// served by internal/market: each job's LP, cut at its Pcontrol boundaries
// into per-iteration LPs whose curves add up, is walked down the cap axis
// along its exact power–time curve, one walk per iteration slice in lock
// step (core.JobSession.Walk), and AllocateCluster splits one site-wide
// budget across the jobs on those curves under a pluggable policy (the same
// sessions MarginalCurve walks and SolveSweep re-solves). See DESIGN.md §13.

import (
	"context"
	"fmt"
	"runtime"

	"powercap/internal/core"
	"powercap/internal/fanout"
	"powercap/internal/market"
)

// Cluster allocation types re-exported from internal/market.
type (
	// ClusterPolicy names a budget-splitting strategy: PolicyUniform,
	// PolicyProportional, or PolicyMarket.
	ClusterPolicy = market.Policy
	// ClusterAllocation is a solved cluster split: per-job caps and
	// schedules, the summed makespan the market minimizes, and the
	// market's lowering steps.
	ClusterAllocation = market.Allocation
	// ClusterJobAllocation is one job's slice of the budget.
	ClusterJobAllocation = market.JobAllocation
	// ClusterOptions tunes AllocateCluster: its one field is the policy.
	ClusterOptions = market.Options
	// BudgetError reports a site budget below the sum of per-job
	// feasibility floors, naming each binding job (errors.As target).
	BudgetError = market.BudgetError
)

// The budget-splitting policies.
const (
	// PolicyUniform splits the budget equally (clamped to floors) — the
	// site-wide analogue of Static capping, and the baseline to beat.
	PolicyUniform = market.Uniform
	// PolicyProportional splits in proportion to each job's saturation
	// demand.
	PolicyProportional = market.Proportional
	// PolicyMarket equalizes the marginal value of power across jobs: the
	// exact split of the summed curves, so never worse than PolicyUniform.
	PolicyMarket = market.Market
)

// ParseClusterPolicy validates a policy name ("" defaults to the market).
func ParseClusterPolicy(name string) (ClusterPolicy, error) { return market.ParsePolicy(name) }

// JobSession is one job's cap axis: a warm re-solve session per iteration
// slice, walked in lock step (Walk) or solved at one cap as a decomposed
// solve (SolveAt, each cap of SolveSweep), with the whole graph's FloorW.
// It implements market.Session and is NOT safe for concurrent use.
type JobSession = core.JobSession

// NewJobSession cuts g at its Pcontrol boundaries and builds one session
// per iteration slice on this System's shared solver, reusing its
// problem-IR and frontier caches.
func (s *System) NewJobSession(ctx context.Context, g *Graph) (*JobSession, error) {
	return s.solver().NewJobSession(ctx, g)
}

// ClusterJob is one participant in a cluster allocation: a named graph plus
// the per-socket efficiency variation of the machine partition it runs on.
// Jobs occupy disjoint sockets, so each carries its own efficiency scales
// (nil = 1.0 everywhere); the socket model is shared and set per call.
type ClusterJob struct {
	Name     string
	Graph    *Graph
	EffScale []float64
}

// AllocateCluster divides one site-wide power budget across jobs. Each
// job's LP is cut at its Pcontrol boundaries into per-iteration LPs, built
// once, its feasibility floor taken in closed form (the largest slice
// floor), and walked down its exact power–time curve from saturation to its
// demand, one walk per iteration slice in lock step, the jobs and their
// slices side by side on GOMAXPROCS workers; the policy splits the budget
// on the curves — for PolicyMarket, lowering the job whose next piece down
// is flattest until the caps fit — and each walk goes only as deep as its
// job's cap. Each job's schedule is read off its slices' walks there, each
// slice checked by an optimality certificate, and merged as a decomposed
// solve merges its slices, with no further solve. model nil means
// DefaultModel. A budget below the sum of per-job feasibility floors fails
// with a *BudgetError naming the binding jobs, before any LP runs; a job
// whose schedule cannot be read off its walk falls back to one decomposed
// solve at its cap, and if that fails too it keeps its cap and its walk's
// values and is marked Degraded instead of failing the cluster. Jobs in the
// result are in input order.
func AllocateCluster(ctx context.Context, jobs []ClusterJob, budgetW float64, model *Model, opts ClusterOptions) (*ClusterAllocation, error) {
	return AllocateClusterOn(ctx, jobs, func(effScale []float64) *System {
		s := NewSystem(model)
		s.EffScale = effScale
		return s
	}, budgetW, opts)
}

// AllocateClusterOn is AllocateCluster with each job's session built on the
// System that systemFor returns for the job's efficiency scales, so a
// daemon's pooled Systems reuse their cached problem IRs across requests.
// pcsched -cluster (through AllocateCluster) and pcschedd's /v1/cluster
// both build their jobs here, so both answer a request alike.
func AllocateClusterOn(ctx context.Context, jobs []ClusterJob, systemFor func(effScale []float64) *System, budgetW float64, opts ClusterOptions) (*ClusterAllocation, error) {
	mjobs := make([]market.Job, len(jobs))
	err := fanout.Run(ctx, len(jobs), runtime.GOMAXPROCS(0), func(ctx context.Context, i int) error {
		j := jobs[i]
		if j.Graph == nil {
			return fmt.Errorf("powercap: cluster job %q has no graph", j.Name)
		}
		js, err := systemFor(j.EffScale).NewJobSession(ctx, j.Graph)
		if err != nil {
			return fmt.Errorf("powercap: cluster job %q: %w", j.Name, err)
		}
		mjobs[i] = market.Job{Name: j.Name, Session: js}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return market.Allocate(ctx, mjobs, budgetW, opts)
}
