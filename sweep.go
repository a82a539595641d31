package powercap

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"powercap/internal/core"
	"powercap/internal/lp"
)

// Power-cap sweep orchestration. The paper's headline figures evaluate the
// LP bound across a family of power constraints; this file provides the
// warm-started sweep (SolveSweep, the job's iteration slices re-solved at
// each cap) and the job's power–time curve (MarginalCurve, read off its walk).

// SweepPoint is the result of one cap in a sweep: a Schedule, or the error
// that cap produced (match with errors.Is(pt.Err, powercap.ErrInfeasible)),
// with the solver effort the cap cost either way in Stats.
type SweepPoint = core.SweepPoint

// SolverStats aggregates LP solver effort (warm starts, pivots,
// refactorizations) across the solves behind a Schedule or sweep.
type SolverStats = core.Stats

// SolveSweep solves the LP bound at every cap in jobCapsW, in order, as
// UpperBound does, but builds each iteration slice's LP once and re-solves
// it at each cap from its own optimal basis at the cap before, the slices
// side by side. Each point's Stats is what its cap cost. Per-cap
// infeasibility lands in SweepPoint.Err; the returned error is reserved for
// problems with the graph itself. Monotonic cap orders maximize basis
// reuse, but any order is correct.
func (s *System) SolveSweep(g *Graph, jobCapsW []float64) ([]SweepPoint, error) {
	return s.solver().SolveSweep(g, jobCapsW)
}

// SolveSweepCtx is SolveSweep with per-request cancellation threaded into
// every cap's pivot loop; after ctx is done the remaining caps carry the
// cancellation error without being attempted.
func (s *System) SolveSweepCtx(ctx context.Context, g *Graph, jobCapsW []float64) ([]SweepPoint, error) {
	return s.solver().SolveSweepCtx(ctx, g, jobCapsW)
}

// MaxSweepPoints bounds how many caps a single "hi:lo:step" spec may
// expand to; beyond it the spec is almost certainly a typo (e.g. a
// milliwatt step) and would pin a solver for hours.
const MaxSweepPoints = 10000

// ParseSweepSpec parses and validates a per-socket power sweep spec
// "hi:lo:step" (watts) into a descending cap list: hi, hi−step, …, down to
// the last value ≥ lo (within a 1e-9 tolerance so "70:30:5" includes 30).
// Descending order maximizes warm-start reuse — the feasible region only
// shrinks as the cap drops, so each basis repairs cheaply into the next.
//
// Malformed specs are rejected with a descriptive error rather than being
// reinterpreted: all three fields must be finite numbers, step must be
// positive, hi must be ≥ lo (no silent swapping), lo must be positive (a
// zero-or-negative power cap is meaningless), and the expansion must stay
// within MaxSweepPoints.
func ParseSweepSpec(spec string) ([]float64, error) {
	parts := strings.Split(spec, ":")
	if len(parts) != 3 {
		return nil, fmt.Errorf("sweep spec %q: want hi:lo:step (W per socket)", spec)
	}
	names := [3]string{"hi", "lo", "step"}
	var vals [3]float64
	for i, p := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return nil, fmt.Errorf("sweep spec %q: %s field %q is not a number", spec, names[i], p)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("sweep spec %q: %s field must be finite, got %v", spec, names[i], v)
		}
		vals[i] = v
	}
	hi, lo, step := vals[0], vals[1], vals[2]
	if step <= 0 {
		return nil, fmt.Errorf("sweep spec %q: step must be positive, got %g", spec, step)
	}
	if hi < lo {
		return nil, fmt.Errorf("sweep spec %q: hi (%g) must be ≥ lo (%g); sweeps run high to low", spec, hi, lo)
	}
	if lo <= 0 {
		return nil, fmt.Errorf("sweep spec %q: lo must be positive, got %g", spec, lo)
	}
	if n := (hi-lo)/step + 1; n > MaxSweepPoints {
		return nil, fmt.Errorf("sweep spec %q: expands to %.0f caps (max %d)", spec, n, MaxSweepPoints)
	}
	var caps []float64
	for c := hi; c >= lo-1e-9; c -= step {
		caps = append(caps, c)
	}
	return caps, nil
}

// MarginalPoint is one cap on a job's power–time curve: the LP bound and
// the shadow price of power (d makespan / d cap, ≤ 0) at that cap, or the
// infeasibility marker below the feasibility floor.
type MarginalPoint struct {
	CapW            float64
	MakespanS       float64
	MarginalSecPerW float64
	Infeasible      bool
}

// MarginalCurve reads a job's power–time curve at the caps in jobCapsW off
// the walk the cluster market takes (core.JobSession.Walk): the graph is
// cut at its Pcontrol boundaries, each iteration slice's LP is built once,
// and the slices are walked down the cap axis in lock step. The caps are
// visited from the highest down, so each breakpoint is crossed once, and
// each reports the makespan bound at the cap together with the power
// constraint's shadow price — the slope of the curve's piece above the cap,
// the value of the next watt. The duals are the marginal information a
// cluster-level allocator needs (see AllocateCluster): a steep point buys
// more time per watt than a flat one, and by LP convexity |MarginalSecPerW|
// is non-increasing as the cap grows, decaying to 0 once the job saturates.
// Points come back in the order of jobCapsW. Caps below the job's
// closed-form floor set Infeasible rather than failing the curve; the
// returned error is reserved for problems with the graph itself and for
// cancellation. The walk's breakpoint crossings are traced under one
// lp.dual span.
func (s *System) MarginalCurve(ctx context.Context, g *Graph, jobCapsW []float64) ([]MarginalPoint, error) {
	js, err := s.solver().NewJobSession(ctx, g)
	if err != nil {
		return nil, err
	}
	w, err := js.Walk(ctx)
	if err != nil {
		return nil, fmt.Errorf("powercap: marginal curve: %w", err)
	}
	defer w.Close()
	gctx, sp := lp.GroupCrossings(ctx)
	defer sp.End()
	order := make([]int, len(jobCapsW))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return jobCapsW[order[a]] > jobCapsW[order[b]] })
	floorW := js.FloorW()
	curve := make([]MarginalPoint, len(jobCapsW))
	for _, i := range order {
		capW := jobCapsW[i]
		curve[i] = MarginalPoint{CapW: capW}
		if capW < floorW {
			curve[i].Infeasible = true
			continue
		}
		if err := w.Lower(gctx, capW); err != nil {
			return nil, fmt.Errorf("powercap: marginal curve at %g W: %w", capW, err)
		}
		_, curve[i].MakespanS, curve[i].MarginalSecPerW = w.At()
	}
	return curve, nil
}
