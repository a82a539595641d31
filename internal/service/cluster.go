package service

// /v1/cluster: the cluster power market over HTTP. A batch request names N
// jobs and one site-wide power budget; the response carries each job's
// granted cap, exact floor and demand, and schedule summary, plus how many
// lowering steps the market took and how far the split moved from
// uniform. The handler threads the allocator
// through the same machinery every other endpoint uses — pooled Systems
// (so each job's problem IR is cached across requests), the worker-slot
// semaphore (one slot for the whole allocation, though its sessions are
// built and its walks opened side by side: slots bound requests, not
// CPUs), the content-addressed
// cache (cluster-level entry plus per-job Put of the final schedules, so a
// later /v1/solve at a granted cap is a hit), and obs tracing (the
// market.allocate/market.floor spans land in the stage
// histograms).
//
// Response JSON is deterministic: jobs render in request order, floors
// sorted largest-first — no map iteration anywhere in the schema.

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"time"

	"powercap"
	"powercap/internal/obs"
	"powercap/internal/trace"
)

// ClusterJobSpec names one job in a cluster request: inline trace JSON or a
// workload proxy (exactly one), plus a cluster-unique name.
type ClusterJobSpec struct {
	Name     string        `json:"name"`
	Trace    *trace.File   `json:"trace,omitempty"`
	Workload *WorkloadSpec `json:"workload,omitempty"`
}

// ClusterRequest asks for one site-wide budget split across jobs. Exactly
// one of BudgetW or BudgetPerSocketW (scaled by the total rank count across
// jobs) must be positive.
type ClusterRequest struct {
	Jobs             []ClusterJobSpec `json:"jobs"`
	BudgetW          float64          `json:"budget_w,omitempty"`
	BudgetPerSocketW float64          `json:"budget_per_socket_w,omitempty"`
	// Policy is uniform, proportional, or market ("" = market).
	Policy    string  `json:"policy,omitempty"`
	TimeoutMS float64 `json:"timeout_ms,omitempty"`
}

// ClusterJobJSON is one job's slice of the budget in a response.
type ClusterJobJSON struct {
	Name            string  `json:"name"`
	Workload        string  `json:"workload,omitempty"`
	GraphDigest     string  `json:"graph_digest"`
	CapW            float64 `json:"cap_w"`
	FloorW          float64 `json:"floor_w"`
	DemandW         float64 `json:"demand_w"`
	MakespanS       float64 `json:"makespan_s"`
	MarginalSecPerW float64 `json:"marginal_s_per_w"`
	// ScheduleKey is the content-addressed cache key the job's final
	// schedule was stored under; a /v1/solve at cap_w (the default,
	// decomposed solve) returns it without a backend solve.
	ScheduleKey    string `json:"schedule_key,omitempty"`
	Degraded       bool   `json:"degraded,omitempty"`
	DegradedReason string `json:"degraded_reason,omitempty"`
}

// ClusterFloorJSON names one job's feasibility floor in an infeasible
// response (largest floor first — the jobs an operator would shed).
type ClusterFloorJSON struct {
	Name   string  `json:"name"`
	FloorW float64 `json:"floor_w"`
}

// ClusterResponse reports a solved cluster allocation, or — with Infeasible
// set — the proof that no split can schedule every job (the budget is below
// the sum of per-job feasibility floors).
type ClusterResponse struct {
	RequestID string  `json:"request_id,omitempty"`
	Policy    string  `json:"policy"`
	BudgetW   float64 `json:"budget_w"`

	Infeasible bool               `json:"infeasible,omitempty"`
	FloorSumW  float64            `json:"floor_sum_w,omitempty"`
	Floors     []ClusterFloorJSON `json:"floors,omitempty"`

	Jobs           []ClusterJobJSON `json:"jobs,omitempty"`
	TotalMakespanS float64          `json:"total_makespan_s,omitempty"`
	MaxMakespanS   float64          `json:"max_makespan_s,omitempty"`

	// Iterations counts the curve pieces the market granted (0 for uniform
	// and proportional); MovedW is the watt volume moved away from the
	// uniform split.
	Iterations int     `json:"iterations"`
	MovedW     float64 `json:"moved_w"`

	Solves int        `json:"solves,omitempty"`
	Stats  *StatsJSON `json:"stats,omitempty"`

	Cached    bool    `json:"cached"`
	ElapsedMS float64 `json:"elapsed_ms"`
	// Trace is inlined for ?trace=1 requests (see SolveResponse.Trace).
	Trace *obs.Document `json:"trace,omitempty"`
}

// clusterJob is one resolved job's identity: its name, its graph's digest,
// and the pooled System that solves it, which key its cache entries.
type clusterJob struct {
	name   string
	digest powercap.Digest
	sys    *powercap.System
}

// clusterOutcome is the cached value for a cluster key: a finished
// allocation (with the per-job schedule cache keys the response needs) or a
// budget infeasibility proof. Allocations containing degraded jobs are
// served but never cached, matching solveOutcome.
type clusterOutcome struct {
	alloc     *powercap.ClusterAllocation
	keys      []string // per-job schedule cache keys, "" for degraded jobs
	budgetErr *powercap.BudgetError
}

// ClusterInput is a cluster request resolved into the facade's inputs —
// the jobs (name + graph + efficiency scales), the site budget in watts and
// the allocator options — with each job's workload display name and graph
// digest, which the response reports.
type ClusterInput struct {
	Jobs      []powercap.ClusterJob
	Workloads []string
	Digests   []powercap.Digest
	BudgetW   float64
	Opts      powercap.ClusterOptions
}

// ResolveCluster validates a cluster request and resolves it into the
// facade's inputs. It is the shared front half of POST /v1/cluster, also
// used by pcsched -cluster to run the same request schema without a
// daemon.
func ResolveCluster(ctx context.Context, req *ClusterRequest) (*ClusterInput, error) {
	return resolveCluster(ctx, req, generate)
}

// resolveCluster is ResolveCluster with workload specs resolved by named.
func resolveCluster(ctx context.Context, req *ClusterRequest, named func(WorkloadSpec) (graphRef, error)) (*ClusterInput, error) {
	if len(req.Jobs) == 0 {
		return nil, errors.New("cluster needs at least one job")
	}
	policy, err := powercap.ParseClusterPolicy(req.Policy)
	if err != nil {
		return nil, err
	}
	in := &ClusterInput{
		Jobs:      make([]powercap.ClusterJob, len(req.Jobs)),
		Workloads: make([]string, len(req.Jobs)),
		Digests:   make([]powercap.Digest, len(req.Jobs)),
		Opts:      powercap.ClusterOptions{Policy: policy},
	}
	totalRanks := 0
	seen := make(map[string]bool, len(req.Jobs))
	for i, spec := range req.Jobs {
		if spec.Name == "" {
			return nil, fmt.Errorf("cluster job %d has no name", i)
		}
		if seen[spec.Name] {
			return nil, fmt.Errorf("duplicate cluster job name %q", spec.Name)
		}
		seen[spec.Name] = true
		ref, rerr := resolveGraph(ctx, spec.Trace, spec.Workload, named)
		if rerr != nil {
			return nil, fmt.Errorf("job %q: %w", spec.Name, rerr)
		}
		in.Jobs[i] = powercap.ClusterJob{Name: spec.Name, Graph: ref.wl.Graph, EffScale: ref.wl.EffScale}
		in.Workloads[i] = ref.wl.Name
		in.Digests[i] = ref.digest
		totalRanks += ref.wl.Graph.NumRanks
	}
	in.BudgetW, err = resolveClusterBudget(req.BudgetW, req.BudgetPerSocketW, totalRanks)
	if err != nil {
		return nil, err
	}
	return in, nil
}

// NewClusterResponse renders the allocation of a resolved request — or,
// with budgetErr set, the budget-infeasibility proof — in the /v1/cluster
// response schema. keys, if non-nil, carries each job's
// schedule cache key. The handler and pcsched -cluster share this renderer
// so CLI and service emit identical JSON for identical requests.
func NewClusterResponse(in *ClusterInput, alloc *powercap.ClusterAllocation, budgetErr *powercap.BudgetError, keys []string) *ClusterResponse {
	resp := &ClusterResponse{
		Policy:  string(in.Opts.Policy),
		BudgetW: in.BudgetW,
	}
	if budgetErr != nil {
		resp.Infeasible = true
		resp.FloorSumW = budgetErr.FloorSumW
		for _, f := range budgetErr.Floors {
			resp.Floors = append(resp.Floors, ClusterFloorJSON{Name: f.Name, FloorW: f.FloorW})
		}
		return resp
	}
	resp.TotalMakespanS = alloc.TotalMakespanS
	resp.MaxMakespanS = alloc.MaxMakespanS
	resp.Iterations = alloc.Iterations
	resp.MovedW = alloc.MovedW
	resp.Solves = alloc.Solves
	resp.Stats = NewStatsJSON(alloc.Stats)
	for i, ja := range alloc.Jobs {
		jj := ClusterJobJSON{
			Name:            ja.Name,
			Workload:        in.Workloads[i],
			GraphDigest:     in.Digests[i].String(),
			CapW:            ja.CapW,
			FloorW:          ja.FloorW,
			DemandW:         ja.DemandW,
			MakespanS:       ja.MakespanS,
			MarginalSecPerW: ja.MarginalSecPerW,
			Degraded:        ja.Degraded,
			DegradedReason:  ja.Reason,
		}
		if keys != nil {
			jj.ScheduleKey = keys[i]
		}
		resp.Jobs = append(resp.Jobs, jj)
	}
	return resp
}

func (s *Server) handleCluster(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	var req ClusterRequest
	if err := decodeJSON(r, &req); err != nil {
		badRequest(w, err)
		return
	}
	in, err := resolveCluster(r.Context(), &req, s.named)
	if err != nil {
		badRequest(w, err)
		return
	}
	jobs := make([]clusterJob, len(in.Jobs))
	for i, cj := range in.Jobs {
		jobs[i] = clusterJob{name: cj.Name, digest: in.Digests[i], sys: s.systemFor(cj.EffScale)}
	}
	key := s.clusterKey(jobs, in.BudgetW, in.Opts)

	ctx, cancel := s.requestCtx(r, req.TimeoutMS)
	defer cancel()

	ev := wideEventFrom(r.Context())
	fn := func() (any, bool, error) {
		out, ferr := s.clusterWorker(ctx, ev, in, jobs)
		if ferr != nil {
			return nil, false, ferr
		}
		degraded := false
		if out.alloc != nil {
			for _, j := range out.alloc.Jobs {
				if j.Degraded {
					degraded = true
					break
				}
			}
		}
		return out, !degraded, nil
	}
	ev.Workload = fmt.Sprintf("cluster[%d]", len(jobs))
	ev.CapW = in.BudgetW
	ev.CacheKey = key
	if dl, ok := ctx.Deadline(); ok {
		ev.DeadlineMS = float64(time.Until(dl)) / float64(time.Millisecond)
	}

	tSolve := time.Now()
	val, how, err := s.cache.DoMaybe(ctx, key, fn)
	ev.SolveMS = msSince(tSolve)
	ev.Cache = hitKindString(how, false)
	if err != nil {
		ev.Err = err.Error()
		s.solveError(w, err)
		return
	}

	out := val.(*clusterOutcome)
	resp := NewClusterResponse(in, out.alloc, out.budgetErr, out.keys)
	resp.RequestID = RequestIDFrom(r.Context())
	resp.Cached = how != hitMiss
	resp.ElapsedMS = msSince(start)
	resp.Trace = inlineTrace(r)
	writeJSON(w, http.StatusOK, resp)
}

// clusterWorker runs one allocation on a worker slot, building its jobs
// as pcsched -cluster does (powercap.AllocateClusterOn) on the pooled
// Systems: the jobs' sessions side by side on GOMAXPROCS workers, failing
// with the lowest failing job's error as a serial loop would; the
// allocator then opens their walks side by side and lowers them
// interleaved on one goroutine. Either way the whole batch occupies a
// single slot, which bounds requests, not CPUs. Budget infeasibility is an
// in-band outcome (a pure function of the request), not an error. The
// run's facts go on ev, the event of the request that ran it.
func (s *Server) clusterWorker(ctx context.Context, ev *obs.WideEvent, in *ClusterInput, jobs []clusterJob) (*clusterOutcome, error) {
	release, err := s.acquire(ctx)
	if err != nil {
		return nil, err
	}
	defer release()

	t0 := time.Now()
	alloc, err := powercap.AllocateClusterOn(ctx, in.Jobs, s.systemFor, in.BudgetW, in.Opts)
	s.metrics.SolveLatency.Observe(time.Since(t0))
	if err != nil {
		var be *powercap.BudgetError
		if errors.As(err, &be) {
			ev.BudgetInfeasible = true
			return &clusterOutcome{budgetErr: be}, nil
		}
		return nil, err
	}

	out := &clusterOutcome{alloc: alloc, keys: make([]string, len(jobs))}
	for i, ja := range alloc.Jobs {
		if ja.Degraded {
			ev.DegradedJobs++
			continue
		}
		if ja.Schedule == nil {
			continue
		}
		// The job's final schedule is what a default (decomposed) /v1/solve
		// at the granted cap computes: the slices' schedules merged. Park it
		// under that key so the follow-up solve (a client fetching its
		// job's full schedule) is a cache hit. The parked entry remembers
		// which allocation produced it, so the follow-up's response and
		// wide event carry the cluster request ID — the correlation
		// forensics needs.
		k := jobs[i].sys.ScheduleKeyFor(jobs[i].digest, ja.CapW, false, "", 0, 0)
		s.cache.Put(k, &solveOutcome{sched: ja.Schedule, clusterOrigin: RequestIDFrom(ctx)})
		out.keys[i] = k
	}
	ev.Jobs = len(jobs)
	ev.MovedW = alloc.MovedW
	ev.Solves = alloc.Solves
	ev.Kernel = *NewStatsJSON(alloc.Stats)
	return out, nil
}

// clusterKey derives the content-addressed cache key of one cluster
// request: the per-job identities (name + the job's cap-independent
// ScheduleKey at cap 0 — graph digest, model fingerprint, efficiency
// scales) joined with the budget and the policy, the one allocator option.
func (s *Server) clusterKey(jobs []clusterJob, budget float64, opts powercap.ClusterOptions) string {
	parts := make([]string, 0, len(jobs)+1)
	for _, j := range jobs {
		parts = append(parts, j.name+"="+j.sys.ScheduleKeyFor(j.digest, 0, true, "", 0, 0))
	}
	parts = append(parts, fmt.Sprintf("b=%g|p=%s", budget, opts.Policy))
	return "cluster|" + strings.Join(parts, "|")
}

// resolveClusterBudget picks the site budget from the two ways a request
// may state it.
func resolveClusterBudget(budgetW, perSocketW float64, totalRanks int) (float64, error) {
	switch {
	case budgetW > 0 && perSocketW > 0:
		return 0, errors.New("give either budget_w or budget_per_socket_w, not both")
	case budgetW > 0:
		return budgetW, nil
	case perSocketW > 0:
		return perSocketW * float64(totalRanks), nil
	default:
		return 0, errors.New("cluster needs a positive budget_w or budget_per_socket_w")
	}
}
