package powercap

// Cluster power market facade. The paper's motivating setting — "total
// machine power will be divided across multiple simultaneous jobs" — is
// served by internal/market: each job's whole-graph LP is walked down the
// cap axis along its exact power–time curve (core.CapSession.Walk), and
// AllocateCluster splits one site-wide budget across the jobs on those
// curves under a pluggable policy. See DESIGN.md §13.

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

// CapSession is a re-solvable whole-graph LP for cap-only changes: built
// once, re-aimed at arbitrary caps with dual-simplex warm starts, walked
// down the cap axis a piece at a time (Walk), or walked into the job's
// whole power–time curve (Curve). Its closed-form FloorW answers caps below
// it without an LP. It implements market.Session and is NOT safe for
// concurrent use.
type CapSession = core.CapSession

// NewCapSession builds a warm re-solve session for g on this System's
// shared solver, so the session reuses the digest-keyed problem-IR and
// frontier caches (a graph the System has already solved costs no rebuild).
func (s *System) NewCapSession(ctx context.Context, g *Graph) (*CapSession, error) {
	return s.solver().NewCapSession(ctx, g)
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
// job's whole-graph LP is built once, its feasibility floor taken in closed
// form, and walked down its exact power–time curve from saturation to its
// demand, the jobs side by side on GOMAXPROCS workers; the policy splits
// the budget on the curves — for PolicyMarket, lowering the job whose next
// piece down is flattest until the caps fit — and each walk goes only as
// deep as its job's cap. Each job's schedule is read off its walk there
// and checked by an optimality certificate, with no further solve. model
// nil means DefaultModel. A budget below the sum of
// per-job feasibility floors fails with a *BudgetError naming the binding
// jobs, before any LP runs; a job whose schedule cannot be read off its
// walk falls back to one solve at its cap, and if that fails too it keeps
// its cap and its walk's values and is marked Degraded instead of failing
// the cluster. Jobs in the result are in input order.
func AllocateCluster(ctx context.Context, jobs []ClusterJob, budgetW float64, model *Model, opts ClusterOptions) (*ClusterAllocation, error) {
	if model == nil {
		model = DefaultModel()
	}
	mjobs := make([]market.Job, len(jobs))
	err := fanout.Run(ctx, len(jobs), runtime.GOMAXPROCS(0), func(ctx context.Context, i int) error {
		j := jobs[i]
		if j.Graph == nil {
			return fmt.Errorf("powercap: cluster job %q has no graph", j.Name)
		}
		cs, err := core.NewSolver(model, j.EffScale).NewCapSession(ctx, j.Graph)
		if err != nil {
			return fmt.Errorf("powercap: cluster job %q: %w", j.Name, err)
		}
		mjobs[i] = market.Job{Name: j.Name, Session: cs}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return market.Allocate(ctx, mjobs, budgetW, opts)
}
