// Package powercap finds the limits of power-constrained application
// performance, reproducing Bailey et al., "Finding the Limits of
// Power-Constrained Application Performance" (SC 2015).
//
// The library models hybrid MPI + OpenMP applications as task DAGs, solves
// the paper's fixed-vertex-order linear program to obtain a near-optimal
// schedule of (DVFS frequency, OpenMP thread count) configurations under a
// job-level power bound, and compares that theoretical bound against two
// contemporary power-allocation policies: uniform Static capping and the
// adaptive Conductor runtime.
//
// # Quick start
//
//	sys := powercap.NewSystem(nil)                     // default E5-2670-like sockets
//	w := powercap.NewWorkload("LULESH", powercap.WorkloadParams{Ranks: 8, Iterations: 6})
//	cmp, err := sys.Compare(w, 50)                     // 50 W per socket
//	// cmp.LPvsStaticPct is the paper's "potential improvement"
//
// Lower-level building blocks live in the internal packages; everything a
// downstream user needs — trace construction (TraceBuilder), the LP bound
// (UpperBound), the flow ILP (FlowILP), policy runs, and schedule replay —
// is exposed here.
package powercap

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"math"
	"sync"

	"powercap/internal/conductor"
	"powercap/internal/core"
	"powercap/internal/dag"
	"powercap/internal/flowilp"
	"powercap/internal/machine"
	"powercap/internal/policy"
	"powercap/internal/replay"
	"powercap/internal/resilience"
	"powercap/internal/sim"
	"powercap/internal/trace"
	"powercap/internal/workloads"
)

// Re-exported core types. These aliases are the public names; the internal
// packages are implementation detail.
type (
	// Model is the socket power/performance model (DVFS ladder, thread
	// counts, power calibration).
	Model = machine.Model
	// Config is one (frequency, threads) operating configuration.
	Config = machine.Config
	// Shape describes how a task's time and power respond to
	// configuration changes.
	Shape = machine.Shape
	// Graph is an application task DAG (vertices = MPI calls, edges =
	// computation tasks or messages).
	Graph = dag.Graph
	// TraceBuilder constructs Graphs by replaying an MPI call sequence.
	TraceBuilder = dag.Builder
	// Schedule is a solved LP schedule: per-task configuration mixes,
	// rounded discrete configurations, and the bound makespan.
	Schedule = core.Schedule
	// TaskChoice is the LP's decision for one task.
	TaskChoice = core.TaskChoice
	// FlowResult is a solved flow-ILP schedule.
	FlowResult = flowilp.Result
	// SimResult is a simulated execution (timeline + power profile).
	SimResult = sim.Result
	// ConductorResult is the outcome of a Conductor run.
	ConductorResult = conductor.RunResult
	// ReplayReport is the outcome of replaying an LP schedule.
	ReplayReport = replay.Report
	// Workload is a generated benchmark instance.
	Workload = workloads.Workload
	// WorkloadParams sizes a workload.
	WorkloadParams = workloads.Params
	// WindowedOptions tunes the windowed large-trace decomposition behind
	// SolveWindowed: window count, event overlap, coarsening epsilon, and
	// speculative-solve parallelism.
	WindowedOptions = core.WindowedOptions
	// WindowedSchedule is a stitched windowed solve — a Schedule plus the
	// decomposition's bookkeeping (window/coarsening sizes, warm-start and
	// escalation counts, seam and simulator validation).
	WindowedSchedule = core.WindowedSchedule
	// SynthParams sizes a synthetic Zipf-tailed large trace (Synthetic).
	SynthParams = workloads.SynthParams
)

// Sentinel errors re-exported for errors.Is checks.
var (
	// ErrInfeasible: no schedule exists under the power constraint.
	ErrInfeasible = core.ErrInfeasible
	// ErrFlowInfeasible: the flow ILP found no schedule under the cap.
	ErrFlowInfeasible = flowilp.ErrInfeasible
	// ErrFlowTooLarge: the instance exceeds the flow ILP's size limit.
	ErrFlowTooLarge = flowilp.ErrTooLarge
	// ErrDiscreteTooLarge: the instance exceeds the discrete (ILP)
	// formulation's size limit.
	ErrDiscreteTooLarge = core.ErrDiscreteTooLarge
)

// WriteTrace serializes an application graph (and optional per-socket
// efficiency metadata) to JSON — the artifact an MPI tracing library would
// produce.
func WriteTrace(w io.Writer, name string, g *Graph, effScale []float64) error {
	return trace.Write(w, name, g, effScale)
}

// ReadTrace parses a JSON trace back into a validated graph.
func ReadTrace(r io.Reader) (*Graph, []float64, error) {
	return trace.Read(r)
}

// NewTrace starts a trace/DAG builder for numRanks MPI processes.
func NewTrace(numRanks int) *TraceBuilder { return dag.NewBuilder(numRanks) }

// GraphDigest returns the canonical SHA-256 content hash of an application
// graph, hex-encoded. Two graphs with equal digests generate identical
// fixed-vertex-order LPs under the same machine model and efficiency
// scales; the schedule cache in pcschedd is keyed on it (see ScheduleKey
// and DESIGN.md §8).
func GraphDigest(g *Graph) string {
	d := dag.Digest(g)
	return hex.EncodeToString(d[:])
}

// ScheduleKey derives the content-addressed cache key identifying one solve
// on this System: the graph digest plus everything else the resulting
// Schedule depends on — the machine model calibration, the per-socket
// efficiency scales (they re-shape every Pareto frontier), the job-level
// cap, whether the solve decomposes at iteration boundaries, which
// realization strategy (if any, "" for none) converts the LP solution into
// a realizable schedule, and the windowed-decomposition parameters
// (windows ≤ 1 and coarsenEps 0 mean the monolithic path; a windowed solve
// with different window counts or coarsening epsilons is a different
// schedule, so it gets a different key). Equal keys imply byte-for-byte
// interchangeable results.
func (s *System) ScheduleKey(g *Graph, jobCapW float64, whole bool, realize string, windows int, coarsenEps float64) string {
	h := sha256.New()
	d := dag.Digest(g)
	h.Write(d[:])
	io.WriteString(h, s.Model.Fingerprint())
	binary.Write(h, binary.LittleEndian, uint64(len(s.EffScale)))
	for _, e := range s.EffScale {
		binary.Write(h, binary.LittleEndian, math.Float64bits(e))
	}
	binary.Write(h, binary.LittleEndian, math.Float64bits(jobCapW))
	if whole {
		h.Write([]byte{1})
	} else {
		h.Write([]byte{0})
	}
	binary.Write(h, binary.LittleEndian, uint64(len(realize)))
	io.WriteString(h, realize)
	if windows <= 1 {
		windows = 0 // 0 and 1 are both the monolithic formulation
	}
	binary.Write(h, binary.LittleEndian, uint64(windows))
	binary.Write(h, binary.LittleEndian, math.Float64bits(coarsenEps))
	return hex.EncodeToString(h.Sum(nil))
}

// DefaultModel returns the calibrated Xeon-E5-2670-like socket model used
// throughout the reproduction.
func DefaultModel() *Model { return machine.Default() }

// DefaultShape returns a generic compute-heavy task shape.
func DefaultShape() Shape { return machine.DefaultShape() }

// NewWorkload builds one of the benchmark proxies: the paper's "CoMD",
// "LULESH", "SP", or "BT", or the additional "CG" and "FT" NAS kernels
// (case-insensitive). It panics on unknown names; use WorkloadByName for
// error handling.
func NewWorkload(name string, p WorkloadParams) *Workload {
	w, err := workloads.ByName(name, p)
	if err != nil {
		panic(err)
	}
	return w
}

// WorkloadByName is NewWorkload with an error return.
func WorkloadByName(name string, p WorkloadParams) (*Workload, error) {
	return workloads.ByName(name, p)
}

// WorkloadNames lists the available benchmark proxies.
func WorkloadNames() []string { return workloads.Names() }

// SyntheticWorkload generates a seeded synthetic trace with Zipf-tailed
// phase work and mergeable fragment chains — the scaling substrate for
// SolveWindowed (the benchmark proxies top out at a few thousand events).
func SyntheticWorkload(p SynthParams) *Workload { return workloads.Synthetic(p) }

// System bundles a socket model with the per-socket efficiency variation
// of a concrete machine, and exposes the paper's solvers and policies.
//
// All solve entry points share one lazily created LP solver, whose
// digest-keyed problem-IR cache and frontier cache make repeated solves of
// the same graph (sweeps, realization after a solve, repeated service
// requests) pay for one problem build. Consequently Model and EffScale must
// not be mutated once the first solve has run.
type System struct {
	Model *Model
	// EffScale is the per-rank socket power-efficiency multiplier;
	// nil means 1.0 everywhere.
	EffScale []float64
	// ExploreIters is how many leading iterations are treated as
	// Conductor's configuration-exploration phase and excluded from
	// policy comparisons (the paper discards three).
	ExploreIters int
	// Resilience tunes the degradation ladder behind
	// UpperBoundResilientCtx (zero value = defaults). Like Model and EffScale, it must not be
	// mutated after the first resilient solve.
	Resilience ResilienceConfig

	mu     sync.Mutex
	lp     *core.Solver
	ladder *resilience.Ladder
}

// solver returns the System's shared LP solver, creating it on first use.
// core.Solver is safe for concurrent use, so every caller shares its IR and
// frontier caches.
func (s *System) solver() *core.Solver {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.lp == nil {
		s.lp = core.NewSolver(s.Model, s.EffScale)
	}
	return s.lp
}

// NewSystem creates a System over the given model (nil = DefaultModel).
func NewSystem(model *Model) *System {
	if model == nil {
		model = machine.Default()
	}
	return &System{Model: model, ExploreIters: 3}
}

// SystemFor creates a System matched to a workload instance (its
// efficiency scales).
func SystemFor(w *Workload, model *Model) *System {
	s := NewSystem(model)
	s.EffScale = w.EffScale
	return s
}

// UpperBound solves the fixed-vertex-order LP per iteration (decomposing
// at MPI_Pcontrol boundaries) under a job-level power cap and returns the
// near-optimal schedule whose makespan is the paper's theoretical bound.
func (s *System) UpperBound(g *Graph, jobCapW float64) (*Schedule, error) {
	return s.UpperBoundCtx(context.Background(), g, jobCapW)
}

// UpperBoundCtx is UpperBound with per-request cancellation: the context is
// polled inside the simplex pivot loops, so an abandoned caller (a timed-out
// service request, a shutdown) stops the solve within a few pivots. The
// returned error wraps ctx.Err() when the solve was canceled.
func (s *System) UpperBoundCtx(ctx context.Context, g *Graph, jobCapW float64) (*Schedule, error) {
	return s.solver().SolveIterationsCtx(ctx, g, jobCapW)
}

// UpperBoundWhole solves one LP over the entire graph (no iteration
// decomposition); use for graphs without Pcontrol boundaries.
func (s *System) UpperBoundWhole(g *Graph, jobCapW float64) (*Schedule, error) {
	return s.solver().Solve(g, jobCapW)
}

// UpperBoundWholeCtx is UpperBoundWhole with per-request cancellation.
func (s *System) UpperBoundWholeCtx(ctx context.Context, g *Graph, jobCapW float64) (*Schedule, error) {
	return s.solver().SolveCtx(ctx, g, jobCapW)
}

// SolveWindowed solves the fixed-vertex-order LP by windowed decomposition:
// the event order is split into overlapping windows, each window's LP is
// solved speculatively in parallel and then committed left-to-right with
// dual-simplex warm starts, and the per-window solutions are stitched into
// one schedule via canonical replay and validated on the simulator. With
// opts.CoarsenEps > 0 the graph is first coarsened by ε-bounded chain
// merging and the solution expanded back to the original tasks. This is the
// scalable path for 100k+-event traces the monolithic LP cannot hold in
// memory; with Windows ≤ 1 and CoarsenEps 0 it reproduces UpperBoundWhole's
// objective to solver tolerance (see DESIGN.md §12).
func (s *System) SolveWindowed(g *Graph, jobCapW float64, opts WindowedOptions) (*WindowedSchedule, error) {
	return s.solver().SolveWindowed(g, jobCapW, opts)
}

// SolveWindowedCtx is SolveWindowed with per-request cancellation, threaded
// through every speculative and commit solve.
func (s *System) SolveWindowedCtx(ctx context.Context, g *Graph, jobCapW float64, opts WindowedOptions) (*WindowedSchedule, error) {
	return s.solver().SolveWindowedCtx(ctx, g, jobCapW, opts)
}

// UpperBoundDiscrete solves the fixed-vertex-order formulation with true
// configuration integrality (Eq. 5 — one configuration per task) by branch
// and bound. Only small instances are accepted (ErrDiscreteTooLarge
// otherwise); its purpose is quantifying the continuous relaxation's
// rounding gap exactly.
func (s *System) UpperBoundDiscrete(g *Graph, jobCapW float64) (*Schedule, error) {
	return s.solver().SolveDiscrete(g, jobCapW)
}

// FlowILP solves the appendix's flow-based integer-linear formulation,
// which optimizes event order as well; it only accepts small instances.
func (s *System) FlowILP(g *Graph, jobCapW float64) (*FlowResult, error) {
	return flowilp.NewSolver(s.Model, s.EffScale).Solve(g, jobCapW)
}

// RunStatic executes the graph under the uniform Static baseline at a
// per-socket cap.
func (s *System) RunStatic(g *Graph, perSocketCapW float64) (*SimResult, error) {
	return policy.NewStatic(s.Model, s.EffScale).Run(g, perSocketCapW)
}

// RunConductor executes the graph under the adaptive Conductor runtime at
// a job-level cap.
func (s *System) RunConductor(g *Graph, jobCapW float64) (*ConductorResult, error) {
	c := conductor.New(s.Model, s.EffScale)
	c.ExploreIters = s.ExploreIters
	return c.Run(g, jobCapW)
}

// Replay validates a solved schedule by replaying it on the simulator with
// the paper's switch overheads and short-task threshold (Sec. 6.1).
func (s *System) Replay(g *Graph, sched *Schedule, continuous bool) (*ReplayReport, error) {
	opts := replay.DefaultOptions(s.Model, s.EffScale)
	if continuous {
		opts.Mode = replay.Continuous
	}
	return replay.Run(g, sched, opts)
}

// Comparison holds one power point of the paper's headline experiment:
// the LP bound vs Static vs Conductor, measured over the post-exploration
// iterations.
type Comparison struct {
	Workload   string
	PerSocketW float64
	JobCapW    float64

	// Times over the measured iterations (exploration excluded).
	StaticS    float64
	ConductorS float64
	LPBoundS   float64

	// LPInfeasible marks caps the LP could not schedule ("Some benchmarks
	// were not able to be scheduled at the lowest average per-socket
	// power constraint").
	LPInfeasible bool

	// Potential improvements, as the figures report them:
	// improvement = (t_policy / t_reference − 1) · 100.
	LPvsStaticPct        float64
	LPvsConductorPct     float64
	ConductorVsStaticPct float64
}

// Compare evaluates the three approaches on a workload at a per-socket
// power cap, skipping the exploration iterations exactly as Sec. 5.3
// prescribes ("we discard the first three iterations of every
// application").
func (s *System) Compare(w *Workload, perSocketW float64) (*Comparison, error) {
	return s.CompareCtx(context.Background(), w, perSocketW)
}

// CompareCtx is Compare with per-request cancellation, threaded into the LP
// solves (the dominant cost) and checked between the policy simulations.
func (s *System) CompareCtx(ctx context.Context, w *Workload, perSocketW float64) (*Comparison, error) {
	g := w.Graph
	jobCap := perSocketW * float64(g.NumRanks)
	cmp := &Comparison{Workload: w.Name, PerSocketW: perSocketW, JobCapW: jobCap}

	slices, err := dag.SliceAll(g)
	if err != nil {
		return nil, err
	}
	if len(slices) <= s.ExploreIters {
		return nil, fmt.Errorf("powercap: workload has %d iterations, need more than the %d exploration iterations", len(slices), s.ExploreIters)
	}

	// Static, summed over measured slices.
	st := policy.NewStatic(s.Model, s.EffScale)
	for i := s.ExploreIters; i < len(slices); i++ {
		r, err := st.Run(slices[i].Graph, perSocketW)
		if err != nil {
			return nil, err
		}
		cmp.StaticS += r.Makespan
	}

	// Conductor over the whole run; MeasuredS already excludes
	// exploration.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	c := conductor.New(s.Model, s.EffScale)
	c.ExploreIters = s.ExploreIters
	cres, err := c.Run(g, jobCap)
	if err != nil {
		return nil, err
	}
	cmp.ConductorS = cres.MeasuredS

	// LP bound per measured slice.
	lps := s.solver()
	for i := s.ExploreIters; i < len(slices); i++ {
		sched, err := lps.SolveCtx(ctx, slices[i].Graph, jobCap)
		if err != nil {
			if errors.Is(err, core.ErrInfeasible) {
				cmp.LPInfeasible = true
				break
			}
			return nil, err
		}
		cmp.LPBoundS += sched.MakespanS
	}

	if !cmp.LPInfeasible && cmp.LPBoundS > 0 {
		cmp.LPvsStaticPct = (cmp.StaticS/cmp.LPBoundS - 1) * 100
		cmp.LPvsConductorPct = (cmp.ConductorS/cmp.LPBoundS - 1) * 100
	}
	if cmp.ConductorS > 0 {
		cmp.ConductorVsStaticPct = (cmp.StaticS/cmp.ConductorS - 1) * 100
	}
	return cmp, nil
}
