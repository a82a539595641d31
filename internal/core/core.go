// Package core implements the paper's primary contribution: the
// fixed-vertex-order linear programming formulation of the power-constrained
// performance optimization problem for hybrid MPI + OpenMP applications
// (Sec. 3.1–3.3).
//
// Given an application DAG (internal/dag), a machine model
// (internal/machine), and a job-level power constraint PC, the solver builds
// and solves the LP of Figures 4–6:
//
//	minimize  vM                                        (1)
//	v_Init = 0                                          (2)
//	s_j − s_i ≥ d_i              ∀ (i,j) ∈ E            (3)
//	s_i = v_src(i)                                      (4)
//	0 ≤ c_{i,j} ≤ 1                                     (6)  continuous configs
//	d_i = Σ_j d_{i,j} c_{i,j}                           (7)
//	p_i = Σ_j p_{i,j} c_{i,j}                           (8)
//	Σ_j c_{i,j} = 1                                     (9)
//	P_j ≥ Σ_{i∈R_j} p_i                                 (10)
//	P_j ≤ PC                                            (11)
//	v_i ≤ v_j  when event(v_i) < event(v_j)             (12)
//	v_i = v_j  when event(v_i) = event(v_j)             (13)
//
// with the derived quantities s, d, p, and P substituted away so the solved
// LP contains only the vertex times v and the configuration fractions c
// (substitution preserves the optimum exactly and keeps instances at
// simplex-friendly sizes; see DESIGN.md).
//
// The problem skeleton — initial schedule, event order, activity sets R_j,
// and per-task frontier columns — is not assembled here: internal/problem
// builds it once, cap-independently, as an IR shared by every formulation
// (the LP here, its windowed decomposition, SolveSlackAware, SolveDiscrete,
// and internal/flowilp) and cached per graph digest on the Solver, so cap
// sweeps and repeated service requests pay for one build.
package core

import (
	"context"
	"fmt"
	"sync"

	"powercap/internal/dag"
	"powercap/internal/lp"
	"powercap/internal/machine"
	"powercap/internal/obs"
	"powercap/internal/problem"
)

// ErrInfeasible reports that no schedule exists under the given power
// constraint: even the lowest-power configuration of every co-scheduled
// task exceeds PC at some event. The paper hits the same wall ("Some
// benchmarks were not able to be scheduled at the lowest average per-socket
// power constraint", Figs. 9–10). It wraps lp.ErrInfeasible, so
// errors.Is(err, lp.ErrInfeasible) also holds for every error chain that
// matches this sentinel.
var ErrInfeasible = fmt.Errorf("core: power constraint infeasible: %w", lp.ErrInfeasible)

// MixEntry is one frontier configuration participating in a task's convex
// mix, with the duration and power the task would have if run entirely in
// that configuration.
type MixEntry struct {
	Config    machine.Config
	Frac      float64
	DurationS float64
	PowerW    float64
}

// TaskChoice is the LP's decision for one compute task.
type TaskChoice struct {
	// Mix is the continuous solution: fractions over frontier
	// configurations (at most two adjacent ones in a nondegenerate basic
	// solution).
	Mix []MixEntry
	// DurationS and PowerW are the mixed duration (Eq. 7) and
	// time-weighted average power (Eq. 8).
	DurationS float64
	PowerW    float64
	// Discrete is the rounded single configuration — "the configuration
	// closest to the optimal point on the Pareto frontier" (Sec. 3.2) —
	// with its duration and power.
	Discrete          machine.Config
	DiscreteDurationS float64
	DiscretePowerW    float64
}

// Schedule is a solved LP schedule.
type Schedule struct {
	// CapW is the job-level power constraint PC the schedule respects.
	CapW float64
	// MakespanS is the LP objective vM: the theoretical lower bound on
	// time to solution under PC (and thus the upper bound on performance).
	MakespanS float64
	// Choices is indexed by dag.TaskID; message and zero-work tasks have
	// an empty Mix.
	Choices []TaskChoice
	// VertexTimeS gives each vertex's LP-scheduled time. For per-iteration
	// solves, times are local to each iteration's origin.
	VertexTimeS []float64
	// IterationMakespans, for SolveIterations, records each slice's
	// contribution (prologue first).
	IterationMakespans []float64
	// MarginalSecPerW is the shadow price of the power constraint:
	// d(makespan)/d(PC), summed over the binding event-power rows
	// (non-positive — more power can only help). It quantifies what one
	// more watt of job budget would buy, the marginal information a
	// power-aware job scheduler needs.
	MarginalSecPerW float64
	// Stats aggregates solver effort.
	Stats Stats
}

// Stats summarizes LP solver effort for a schedule, including the kernel's
// numerical-health counters (DESIGN.md §16): effort fields accumulate,
// MaxEtaLen and RowNormRatio keep the worst instance seen.
type Stats struct {
	Solves      int // LP instances solved
	Vars        int // total variables across instances
	Rows        int // total constraint rows across instances
	SimplexIter int // total simplex pivots (primal + dual)

	DualIter         int // dual simplex pivots spent repairing warm starts
	WarmStarts       int // solves that actually reused a prior basis
	Refactorizations int // basis reinversions

	MaxEtaLen        int     // peak basis-update file length across solves
	PivotRejections  int     // LU threshold-pivoting row rejections
	FactorTauRetries int     // factorizations retried under strict pivoting
	NaNRecoveries    int     // refactorize-and-retry repairs of NaN/Inf state
	Rescues          int     // solves rescued by a cold unpresolved re-solve
	BlandActivations int     // anti-cycling fallback engagements
	PresolveRows     int     // rows eliminated by presolve
	PresolveCols     int     // columns eliminated by presolve
	RowNormRatio     float64 // worst max/min row-norm ratio (scaling proxy)
}

// Add accumulates other into s (used when merging sweep-point stats).
func (s *Stats) Add(other Stats) {
	s.Solves += other.Solves
	s.Vars += other.Vars
	s.Rows += other.Rows
	s.SimplexIter += other.SimplexIter
	s.DualIter += other.DualIter
	s.WarmStarts += other.WarmStarts
	s.Refactorizations += other.Refactorizations
	if other.MaxEtaLen > s.MaxEtaLen {
		s.MaxEtaLen = other.MaxEtaLen
	}
	s.PivotRejections += other.PivotRejections
	s.FactorTauRetries += other.FactorTauRetries
	s.NaNRecoveries += other.NaNRecoveries
	s.Rescues += other.Rescues
	s.BlandActivations += other.BlandActivations
	s.PresolveRows += other.PresolveRows
	s.PresolveCols += other.PresolveCols
	if other.RowNormRatio > s.RowNormRatio {
		s.RowNormRatio = other.RowNormRatio
	}
}

// AddSolve folds one LP solution — effort and health counters — into s.
// The two solve paths (whole-problem and windowed) share this so a counter
// added to SolveStats cannot reach one path and silently miss the other.
func (s *Stats) AddSolve(vars, rows int, sol *lp.Solution) {
	s.Solves++
	s.Vars += vars
	s.Rows += rows
	s.SimplexIter += sol.Iters
	s.DualIter += sol.Stats.DualIters
	s.Refactorizations += sol.Stats.Refactorizations
	if sol.Stats.WarmStarted {
		s.WarmStarts++
	}
	if sol.Stats.MaxEtaLen > s.MaxEtaLen {
		s.MaxEtaLen = sol.Stats.MaxEtaLen
	}
	s.PivotRejections += sol.Stats.PivotRejections
	s.FactorTauRetries += sol.Stats.FactorTauRetries
	s.NaNRecoveries += sol.Stats.NaNRecoveries
	s.Rescues += sol.Stats.Rescues
	s.BlandActivations += sol.Stats.BlandActivations
	s.PresolveRows += sol.Stats.PresolveRows
	s.PresolveCols += sol.Stats.PresolveCols
	if r := sol.Stats.RowNormRatio(); r > s.RowNormRatio {
		s.RowNormRatio = r
	}
}

// Solver builds and solves fixed-vertex-order LPs against a machine model.
type Solver struct {
	Model *machine.Model
	// EffScale is the per-rank socket power-efficiency multiplier
	// (manufacturing variation); nil means 1.0 everywhere.
	EffScale []float64
	// PowerTiebreak is a tiny objective weight on total task power that
	// resolves the degeneracy among off-critical-path tasks in favor of
	// low power, mirroring the paper's initial-schedule modification that
	// "slows tasks off the critical path as much as possible". It
	// perturbs the reported makespan by < 1e-4 relative.
	PowerTiebreak float64

	// mu guards fs, irCache, and planCache: SweepParallel and the
	// scheduling service share one Solver across goroutines.
	mu        sync.Mutex
	fs        *problem.FrontierSet
	irCache   map[[32]byte]*problem.IR
	planCache map[planKey]*problem.Plan
}

// NewSolver returns a Solver over the given model. effScale may be nil.
func NewSolver(model *machine.Model, effScale []float64) *Solver {
	return &Solver{
		Model:         model,
		EffScale:      effScale,
		PowerTiebreak: 1e-7,
	}
}

func (s *Solver) eff(rank int) float64 {
	if s.EffScale == nil || rank < 0 || rank >= len(s.EffScale) {
		return 1
	}
	return s.EffScale[rank]
}

// Frontiers returns the Solver's shared frontier cache (lazily created so a
// zero-value Solver still works).
func (s *Solver) Frontiers() *problem.FrontierSet {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.fs == nil {
		s.fs = problem.NewFrontierSet(s.Model, s.EffScale)
	}
	return s.fs
}

// Frontier returns the convex Pareto frontier for a task shape on a rank's
// socket, cached per (shape, rank). Safe for concurrent use: parallel sweep
// workers share one Solver and race benignly on the cache.
func (s *Solver) Frontier(shape machine.Shape, rank int) *problem.Frontier {
	return s.Frontiers().For(shape, rank)
}

// IR returns the cap-independent problem IR for graph g, built on first use
// and cached by graph digest — so a cap sweep, the rounding/realization
// layer, and repeated service requests against the same graph share one
// build (initial schedule, activity sets, event order, frontier columns).
func (s *Solver) IR(g *dag.Graph) (*problem.IR, error) {
	return s.IRCtx(context.Background(), g)
}

// IRCtx is IR with obs span parentage: a cache miss records the IR build
// (problem.build and its children) under the caller's span.
func (s *Solver) IRCtx(ctx context.Context, g *dag.Graph) (*problem.IR, error) {
	key := dag.Digest(g)
	s.mu.Lock()
	if ir, ok := s.irCache[key]; ok {
		s.mu.Unlock()
		_, sp := obs.Start(ctx, "problem.ir")
		sp.SetAttr("cached", true)
		sp.End()
		return ir, nil
	}
	s.mu.Unlock()

	ictx, sp := obs.Start(ctx, "problem.ir")
	sp.SetAttr("cached", false)
	ir, err := problem.BuildWithCtx(ictx, s.Frontiers(), g)
	sp.End()
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	if s.irCache == nil {
		s.irCache = make(map[[32]byte]*problem.IR)
	}
	// A racing builder may have stored an equivalent IR first; keep the
	// stored one so callers share pointers.
	if prior, ok := s.irCache[key]; ok {
		ir = prior
	} else {
		s.irCache[key] = ir
	}
	s.mu.Unlock()
	return ir, nil
}

// Solve solves the fixed-vertex-order LP for the whole graph under the
// job-level power constraint capW (watts across all sockets).
func (s *Solver) Solve(g *dag.Graph, capW float64) (*Schedule, error) {
	return s.solve(context.Background(), g, capW, false)
}

// SolveCtx is Solve with a cancellation context threaded into the simplex
// pivot loops: once ctx is done the solve stops within a few pivots and
// returns an error wrapping ctx.Err().
func (s *Solver) SolveCtx(ctx context.Context, g *dag.Graph, capW float64) (*Schedule, error) {
	return s.solve(ctx, g, capW, false)
}

// SolveIterations decomposes the graph at its MPI_Pcontrol boundaries
// (global synchronization points in the paper's instrumented benchmarks),
// solves each iteration's LP independently, and recombines: the job
// makespan is the sum of iteration makespans, and task choices are mapped
// back to the original task IDs.
func (s *Solver) SolveIterations(g *dag.Graph, capW float64) (*Schedule, error) {
	return s.solve(context.Background(), g, capW, true)
}

// SolveIterationsCtx is SolveIterations with per-request cancellation; the
// context is checked inside every slice's pivot loops, so a canceled
// request stops mid-decomposition instead of finishing remaining slices.
func (s *Solver) SolveIterationsCtx(ctx context.Context, g *dag.Graph, capW float64) (*Schedule, error) {
	return s.solve(ctx, g, capW, true)
}

// solve is the single entry point behind the four exported wrappers: one
// ctx-aware path that either solves the whole graph or decomposes it at
// iteration boundaries. A decomposing solve of a graph without Pcontrol
// boundaries degrades to the whole-graph solve.
func (s *Solver) solve(ctx context.Context, g *dag.Graph, capW float64, decompose bool) (*Schedule, error) {
	ctx, span := obs.Start(ctx, "core.solve")
	defer span.End()
	span.SetAttr("cap_w", capW)
	span.SetAttr("decompose", decompose)

	if decompose {
		_, sp := obs.Start(ctx, "dag.slice")
		slices, err := dag.SliceAll(g)
		sp.SetAttr("slices", len(slices))
		sp.End()
		if err != nil {
			return nil, err
		}
		if len(slices) > 0 {
			sched := &Schedule{
				CapW:        capW,
				Choices:     make([]TaskChoice, len(g.Tasks)),
				VertexTimeS: nil, // per-iteration local times are not global
			}
			for si, sl := range slices {
				ictx, isp := obs.Start(ctx, "core.iteration")
				isp.SetAttr("slice", si)
				vt := make([]float64, len(sl.Graph.Vertices))
				err := s.solveInto(ictx, sl.Graph, capW, sched, sl.TaskMap, vt)
				isp.End()
				if err != nil {
					return nil, fmt.Errorf("iteration slice: %w", err)
				}
				m := finalizeTime(sl.Graph, vt)
				sched.IterationMakespans = append(sched.IterationMakespans, m)
				sched.MakespanS += m
			}
			return sched, nil
		}
	}
	sched := &Schedule{
		CapW:        capW,
		Choices:     make([]TaskChoice, len(g.Tasks)),
		VertexTimeS: make([]float64, len(g.Vertices)),
	}
	if err := s.solveInto(ctx, g, capW, sched, identityTaskMap(len(g.Tasks)), sched.VertexTimeS); err != nil {
		return nil, err
	}
	sched.MakespanS = finalizeTime(g, sched.VertexTimeS)
	return sched, nil
}

func identityTaskMap(n int) []dag.TaskID {
	m := make([]dag.TaskID, n)
	for i := range m {
		m[i] = dag.TaskID(i)
	}
	return m
}

func finalizeTime(g *dag.Graph, vt []float64) float64 {
	for i := range g.Vertices {
		if g.Vertices[i].Kind == dag.VFinalize {
			return vt[i]
		}
	}
	return 0
}
