package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"

	"powercap/internal/coarsen"
	"powercap/internal/dag"
	"powercap/internal/fanout"
	"powercap/internal/lp"
	"powercap/internal/machine"
	"powercap/internal/obs"
	"powercap/internal/problem"
	"powercap/internal/sim"
)

// Windowed LP decomposition (DESIGN.md §12). The monolithic fixed-vertex-
// order LP couples every event to every other only through (a) the event-
// order chain and (b) each task's precedence row — both of which cross a
// window boundary as a *single committed time or duration*, i.e. as a
// right-hand-side constant of the successor window. SolveWindowed exploits
// that: it slices the event order into cores (problem.Plan), solves every
// window speculatively in parallel against estimated boundary constants,
// then commits windows left to right, re-aiming each window's boundary RHS
// at the true committed values and repairing the speculative basis with
// dual simplex pivots — the same warm-start machinery cap sweeps use,
// pointed across space instead of across caps.
//
// Committed vertex times never come from the window LP's (degenerate)
// vertex values: after each commit the canonical earliest event times are
// recomputed by a forward replay of the committed durations under both
// precedence and the event-order chain. The replayed times are the
// component-wise minimal feasible times for the committed configuration
// mix, so the stitched schedule is feasible for the monolithic LP and its
// makespan is a true upper bound on (i.e. never below) the monolithic
// optimum — the decomposition gap reported by the scale exhibit.

// WindowedOptions tunes SolveWindowed.
type WindowedOptions struct {
	// Windows is the target number of event-order cores; <= 1 solves a
	// single window (the monolithic formulation run through the windowed
	// path — used by the equivalence harness). The actual count may come
	// back lower when simultaneous-event groups limit cut positions.
	Windows int
	// OverlapEvents extends each window's program past its core by this
	// many lookahead events (re-optimized and committed by the successor);
	// negative selects a quarter of the mean core size.
	OverlapEvents int
	// CoarsenEps merges same-rank compute chains whose cumulative work is
	// below this many seconds before the problem is built (0 disables; see
	// internal/coarsen).
	CoarsenEps float64
	// Parallel bounds the speculative solve workers; <= 0 uses GOMAXPROCS.
	Parallel int
}

// WindowedSchedule is a stitched windowed solve: a Schedule on the
// original (pre-coarsening) graph plus decomposition diagnostics.
type WindowedSchedule struct {
	*Schedule

	// Windows is the realized window count; CoarsenEps echoes the option.
	Windows    int
	CoarsenEps float64
	// CoarseVertices/CoarseTasks size the problem the LPs actually saw;
	// MergedTasks counts original tasks eliminated by coarsening.
	CoarseVertices int
	CoarseTasks    int
	MergedTasks    int

	// SpeculativeSolves counts phase-A LPs attempted; CommitSolves the
	// phase-B re-solves (windows whose boundary constants were exact reuse
	// the speculative solution and appear in neither); WarmStartHits the
	// commit solves that successfully repaired a speculative basis.
	SpeculativeSolves int
	CommitSolves      int
	WarmStartHits     int
	// Escalations counts infeasible commit windows that were widened (the
	// ladder re-solves [earlier core start, window end] with commitments
	// revoked; the terminal rung is the whole remaining order).
	Escalations int

	// SeamViolationW is the largest LP-semantic cap excess at any window
	// seam event: the committed powers of the tasks active at the first
	// event of each window, summed against the cap. Boundary coupling is
	// exact, so this is floating-point noise unless stitching is broken.
	SeamViolationW float64
	// SimMakespanS is the simulator's makespan for the stitched choices
	// (precedence-only, so at most MakespanS, which also enforces the
	// event-order chain).
	SimMakespanS float64
}

// NumericalFallbacks reports how many window solves broke down numerically
// and completed through lp.Solve's rescue (a cold unscaled re-solve):
// Stats.Rescues, summed over speculative, commit, and escalation solves.
func (w *WindowedSchedule) NumericalFallbacks() int { return w.Stats.Rescues }

// WarmStartRate is WarmStartHits / CommitSolves (1 when every commit
// reused a speculative basis; 0 when none did or no commit solves ran).
func (w *WindowedSchedule) WarmStartRate() float64 {
	if w.CommitSolves == 0 {
		return 0
	}
	return float64(w.WarmStartHits) / float64(w.CommitSolves)
}

// SolveWindowed solves the fixed-vertex-order problem by windowed
// decomposition under the job-level power constraint capW.
func (s *Solver) SolveWindowed(g *dag.Graph, capW float64, opts WindowedOptions) (*WindowedSchedule, error) {
	return s.SolveWindowedCtx(context.Background(), g, capW, opts)
}

// SolveWindowedCtx is SolveWindowed with per-request cancellation and obs
// span parentage (window builds, speculative and commit solves, and the
// stitch all record as spans under ctx).
func (s *Solver) SolveWindowedCtx(ctx context.Context, g *dag.Graph, capW float64, opts WindowedOptions) (*WindowedSchedule, error) {
	ctx, span := obs.Start(ctx, "core.windowed")
	defer span.End()
	span.SetAttr("cap_w", capW)
	span.SetAttr("windows_req", opts.Windows)

	_, csp := obs.Start(ctx, "dag.coarsen")
	cg, mapping, err := coarsen.Coarsen(g, opts.CoarsenEps)
	csp.SetAttr("eps_s", opts.CoarsenEps)
	if err != nil {
		csp.End()
		return nil, err
	}
	csp.SetAttr("merged_tasks", mapping.MergedTasks)
	csp.End()

	ir, err := s.IRCtx(ctx, cg)
	if err != nil {
		return nil, err
	}
	plan := s.planCtx(ctx, cg, ir, opts.Windows, opts.OverlapEvents)
	span.SetAttr("windows", len(plan.Windows))
	span.SetAttr("coarse_tasks", len(cg.Tasks))

	ws := &WindowedSchedule{
		Windows:        len(plan.Windows),
		CoarsenEps:     opts.CoarsenEps,
		CoarseVertices: len(cg.Vertices),
		CoarseTasks:    len(cg.Tasks),
		MergedTasks:    mapping.MergedTasks,
	}
	coarse := &Schedule{
		CapW:        capW,
		Choices:     make([]TaskChoice, len(cg.Tasks)),
		VertexTimeS: make([]float64, len(cg.Vertices)),
	}

	if err := s.solveWindows(ctx, plan, capW, opts, ws, coarse); err != nil {
		return nil, err
	}

	_, ssp := obs.Start(ctx, "window.stitch")
	sched := s.expandSchedule(mapping, coarse)
	ws.Schedule = sched
	ws.SeamViolationW = seamViolation(plan, capW, coarse)
	ssp.SetAttr("seam_violation_w", ws.SeamViolationW)
	ssp.End()

	// Simulator validation of the stitched schedule on the original graph.
	pts := sim.Points(g)
	for i, t := range g.Tasks {
		if t.Kind != dag.Compute {
			continue
		}
		pts[i] = sim.TaskPoint{Duration: sched.Choices[i].DurationS, PowerW: sched.Choices[i].PowerW}
	}
	res, err := sim.EvaluateCtx(ctx, g, pts, sim.SlackHoldsTaskPower, 0)
	if err != nil {
		return nil, fmt.Errorf("core: stitched schedule failed simulation: %w", err)
	}
	ws.SimMakespanS = res.Makespan
	if res.Makespan > sched.MakespanS*(1+1e-6)+1e-9 {
		return nil, fmt.Errorf("core: stitched makespan %v below simulated %v (stitch bug)", sched.MakespanS, res.Makespan)
	}
	return ws, nil
}

// planKey keys the window-plan cache: same graph, same slicing. A
// defaulted overlap request is normalized to −1 so equivalent requests
// share an entry.
type planKey struct {
	digest  [32]byte
	windows int
	overlap int
}

// planCtx returns the (digest, windows, overlap)-cached window plan,
// building it on first use. A defaulted overlap (< 0) resolves to a
// quarter of the mean core size.
func (s *Solver) planCtx(ctx context.Context, g *dag.Graph, ir *problem.IR, windows, overlap int) *problem.Plan {
	key := planKey{digest: dag.Digest(g), windows: windows, overlap: overlap}
	if overlap < 0 {
		key.overlap = -1
	}
	s.mu.Lock()
	if p, ok := s.planCache[key]; ok {
		s.mu.Unlock()
		_, sp := obs.Start(ctx, "window.plan")
		sp.SetAttr("cached", true)
		sp.End()
		return p
	}
	s.mu.Unlock()

	_, sp := obs.Start(ctx, "window.plan")
	sp.SetAttr("cached", false)
	if overlap < 0 {
		if windows < 1 {
			windows = 1
		}
		overlap = len(ir.EventOrder) / windows / 4
	}
	p := ir.Windowize(windows, overlap)
	sp.SetAttr("windows", len(p.Windows))
	sp.End()

	s.mu.Lock()
	if s.planCache == nil {
		s.planCache = make(map[planKey]*problem.Plan)
	}
	if prior, ok := s.planCache[key]; ok {
		p = prior
	} else {
		s.planCache[key] = p
	}
	s.mu.Unlock()
	return p
}

// committedState carries phase B's left-to-right commitments: canonical
// event times for every committed position, and the chosen duration and
// power of every committed task.
type committedState struct {
	T []float64 // per coarse vertex, valid for positions < commitPos
	D []float64 // per coarse task, valid when committed
	P []float64
}

// estimates are phase A's stand-ins for not-yet-committed boundary
// constants: initial-schedule times, and each task at the highest frontier
// point not exceeding a fair per-socket share of the cap (a far better
// guess of cap-constrained operating points than the max-configuration
// initial schedule).
func (s *Solver) windowEstimates(ir *problem.IR, capW float64) *committedState {
	g := ir.G
	est := &committedState{
		T: ir.Init.VertexTime,
		D: make([]float64, len(g.Tasks)),
		P: make([]float64, len(g.Tasks)),
	}
	fair := capW
	if g.NumRanks > 0 {
		fair = capW / float64(g.NumRanks)
	}
	for _, t := range g.Tasks {
		switch ir.Class[t.ID] {
		case problem.Message:
			est.D[t.ID] = t.FixedDur
		case problem.Fixed:
			est.P[t.ID] = ir.FixedPowerW[t.ID]
		case problem.Tunable:
			cols := ir.Cols[t.ID]
			k, ok := cols.F.Floor(fair)
			if !ok {
				k = 0
			}
			est.D[t.ID] = cols.Durs[k]
			est.P[t.ID] = cols.F.Pts[k].PowerW
		}
	}
	return est
}

// solveWindows runs phase A (parallel speculative solves) and phase B
// (sequential commits with warm-started repairs), filling the coarse
// schedule.
func (s *Solver) solveWindows(ctx context.Context, plan *problem.Plan, capW float64, opts WindowedOptions, ws *WindowedSchedule, out *Schedule) error {
	ir := plan.IR
	nW := len(plan.Windows)
	est := s.windowEstimates(ir, capW)

	// Phase A: build every window's LP and solve it speculatively against
	// estimated boundary constants, side by side. A window fails only once
	// ctx is done.
	workers := opts.Parallel
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	built := make([]*windowLP, nW)
	specSol := make([]*lp.Solution, nW)
	specStats := make([]Stats, nW)
	err := fanout.Run(ctx, nW, workers, func(ctx context.Context, w int) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		_, bsp := obs.Start(ctx, "window.build")
		bsp.SetAttr("window", w)
		b := s.buildWindowLP(plan, plan.Windows[w])
		bsp.End()
		built[w] = b
		b.aim(ir, capW, est)
		if b.constExcess(capW, est) > feasTol {
			return nil // speculative estimates already over the cap; commit solve decides
		}
		sctx, ssp := obs.Start(ctx, "window.solve")
		ssp.SetAttr("window", w)
		ssp.SetAttr("speculative", true)
		sol, err := solveLP(sctx, b.prob, b.crash(), &specStats[w], b)
		ssp.End()
		if err == nil {
			specSol[w] = sol
		}
		return nil
	})
	if err == nil {
		err = ctx.Err()
	}
	if err != nil {
		return fmt.Errorf("core: windowed solve canceled: %w", err)
	}
	for _, st := range specStats {
		ws.SpeculativeSolves += st.Solves
		out.Stats.Add(st)
	}

	// Phase B: commit left to right.
	st := &committedState{
		T: make([]float64, len(ir.G.Vertices)),
		D: make([]float64, len(ir.G.Tasks)),
		P: make([]float64, len(ir.G.Tasks)),
	}
	for w := 0; w < nW; w++ {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("core: windowed solve canceled: %w", err)
		}
		b := built[w]
		var sol *lp.Solution
		if !b.boundaryCoupled() && specSol[w] != nil {
			// Boundary-free window (the first one, or a single-window
			// plan): the speculative solution is already exact.
			sol = specSol[w]
		} else {
			b.aim(ir, capW, st)
			infeasible := b.constExcess(capW, st) > feasTol
			if !infeasible {
				var basis []int
				if specSol[w] != nil {
					basis = specSol[w].Basis
				}
				sctx, ssp := obs.Start(ctx, "window.solve")
				ssp.SetAttr("window", w)
				ssp.SetAttr("speculative", false)
				var err error
				preWarm := out.Stats.WarmStarts
				ws.CommitSolves++
				sol, err = solveLP(sctx, b.prob, basis, &out.Stats, b)
				ssp.End()
				if err != nil {
					if !errors.Is(err, ErrInfeasible) {
						return err
					}
					infeasible = true
				} else if out.Stats.WarmStarts > preWarm {
					ws.WarmStartHits++
				}
			}
			if infeasible {
				var err error
				sol, b, err = s.escalate(ctx, plan, capW, st, w, ws, out)
				if err != nil {
					return err
				}
			}
		}
		s.commitWindow(plan, b, sol, st, out)
	}

	for i := range ir.G.Vertices {
		out.VertexTimeS[i] = st.T[i]
	}
	out.MakespanS = finalizeTime(ir.G, out.VertexTimeS)
	return nil
}

// escalate handles an infeasible commit window: earlier commitments are
// progressively revoked by widening the window's core start back across
// previously committed windows (doubling the span each rung), rebuilding
// and re-solving cold. The terminal rung spans the whole event order and
// is exactly the monolithic program over the remaining decisions, so a
// genuinely feasible cap always terminates here; a genuinely infeasible
// one surfaces as ErrInfeasible.
func (s *Solver) escalate(ctx context.Context, plan *problem.Plan, capW float64, st *committedState, w int, ws *WindowedSchedule, out *Schedule) (*lp.Solution, *windowLP, error) {
	ir := plan.IR
	win := plan.Windows[w]
	back := 1
	for {
		prev := w - back
		if prev < 0 {
			prev = 0
		}
		wide := problem.Window{
			Index:     win.Index,
			CoreStart: plan.Windows[prev].CoreStart,
			CoreEnd:   win.CoreEnd,
			ExtEnd:    win.ExtEnd,
		}
		ws.Escalations++
		_, bsp := obs.Start(ctx, "window.build")
		bsp.SetAttr("window", w)
		bsp.SetAttr("escalated_from", wide.CoreStart)
		b := s.buildWindowLP(plan, wide)
		bsp.End()
		b.aim(ir, capW, st)
		if b.constExcess(capW, st) <= feasTol {
			sctx, ssp := obs.Start(ctx, "window.solve")
			ssp.SetAttr("window", w)
			ssp.SetAttr("escalated", true)
			ws.CommitSolves++
			sol, err := solveLP(sctx, b.prob, b.crash(), &out.Stats, b)
			ssp.End()
			if err == nil {
				return sol, b, nil
			}
			if !errors.Is(err, ErrInfeasible) {
				return nil, nil, err
			}
		}
		if wide.CoreStart == 0 && wide.ExtEnd == len(ir.EventOrder) {
			return nil, nil, fmt.Errorf("%w: cap %.1f W (windowed, after full escalation)", ErrInfeasible, capW)
		}
		if wide.CoreStart == 0 {
			// Out of history to revoke: take the rest of the order too.
			win.ExtEnd = len(ir.EventOrder)
			win.CoreEnd = win.ExtEnd
			continue
		}
		back *= 2
	}
}

// commitWindow extracts the solved window's decisions for its core-owned
// tasks into the committed state and the coarse schedule, then replays the
// canonical event times across the committed span.
func (s *Solver) commitWindow(plan *problem.Plan, b *windowLP, sol *lp.Solution, st *committedState, out *Schedule) {
	ir := plan.IR
	for _, tid := range plan.TasksWithSrcIn(b.win.CoreStart, b.win.CoreEnd) {
		choice := s.choiceOf(ir, &ir.G.Tasks[tid], b.tv, sol)
		out.Choices[tid] = choice
		st.D[tid] = choice.DurationS
		st.P[tid] = choice.PowerW
	}
	// Makespan sensitivity: duals of the committed core's power rows.
	for _, pr := range b.powerRefs {
		if pr.pos >= b.win.CoreStart && pr.pos < b.win.CoreEnd {
			out.MarginalSecPerW += sol.DualOf(pr.row)
		}
	}
	replayRange(plan, st, b.win.CoreStart, b.win.CoreEnd)
}

// replayRange advances the canonical earliest event times over positions
// [from, to): each simultaneous group fires at the maximum of the previous
// event's time (the order chain) and its members' precedence completions
// under the committed durations. Both boundaries are core cuts, so no
// simultaneous group straddles them.
func replayRange(plan *problem.Plan, st *committedState, from, to int) {
	ir := plan.IR
	order := ir.EventOrder
	p := from
	for p < to {
		q := p + 1
		for q < to && ir.Simultaneous(order[q-1], order[q]) {
			q++
		}
		t := 0.0
		if p > 0 {
			t = st.T[order[p-1]]
		}
		for i := p; i < q; i++ {
			for _, tid := range ir.G.TasksInto(order[i]) {
				src := ir.G.Tasks[tid].Src
				if plan.Pos[src] >= p {
					continue // intra-group edges are zero-duration by construction
				}
				if c := st.T[src] + st.D[tid]; c > t {
					t = c
				}
			}
		}
		for i := p; i < q; i++ {
			st.T[order[i]] = t
		}
		p = q
	}
}

// seamViolation reports the largest cap excess at any window seam event
// under the committed task powers — the LP-semantic check the stitching
// property test pins near zero.
func seamViolation(plan *problem.Plan, capW float64, coarse *Schedule) float64 {
	ir := plan.IR
	worst := 0.0
	for _, w := range plan.Windows[1:] {
		vi := ir.EventOrder[w.CoreStart]
		total := 0.0
		for _, tid := range ir.Active[vi] {
			total += coarse.Choices[tid].PowerW
		}
		if ex := total - capW; ex > worst {
			worst = ex
		}
	}
	return worst
}

// expandSchedule maps a coarse schedule back to the original graph through
// the coarsening bookkeeping: merged choices split work-proportionally
// (exact — constituents share the frontier), interior vertex times are
// reconstructed from the chain source plus cumulative constituent
// durations, and degenerate constituents take the idle draw the monolithic
// extractor assigns Fixed tasks.
func (s *Solver) expandSchedule(m *coarsen.Mapping, coarse *Schedule) *Schedule {
	if m.Identity() {
		return coarse
	}
	g := m.Orig
	out := &Schedule{
		CapW:            coarse.CapW,
		MakespanS:       coarse.MakespanS,
		Choices:         make([]TaskChoice, len(g.Tasks)),
		MarginalSecPerW: coarse.MarginalSecPerW,
		Stats:           coarse.Stats,
	}
	coarseDur := make([]float64, len(m.Coarse.Tasks))
	for ct := range m.Coarse.Tasks {
		coarseDur[ct] = coarse.Choices[ct].DurationS
	}
	out.VertexTimeS = m.ExpandVertexTimes(coarse.VertexTimeS, coarseDur)

	for ct, group := range m.Groups {
		ch := coarse.Choices[ct]
		if len(group) == 1 {
			out.Choices[group[0]] = ch
			continue
		}
		fracs := m.Fractions(dag.TaskID(ct))
		for i, tid := range group {
			t := &g.Tasks[tid]
			if t.Work <= 0 {
				idle := s.Model.IdlePower(s.eff(t.Rank))
				out.Choices[tid] = TaskChoice{
					PowerW:         idle,
					DiscretePowerW: idle,
					Discrete:       machine.Config{FreqGHz: s.Model.FreqMinGHz, Threads: 1},
				}
				continue
			}
			scaled := TaskChoice{
				DurationS:         ch.DurationS * fracs[i],
				PowerW:            ch.PowerW,
				Discrete:          ch.Discrete,
				DiscreteDurationS: ch.DiscreteDurationS * fracs[i],
				DiscretePowerW:    ch.DiscretePowerW,
			}
			for _, e := range ch.Mix {
				scaled.Mix = append(scaled.Mix, MixEntry{
					Config:    e.Config,
					Frac:      e.Frac,
					DurationS: e.DurationS * fracs[i],
					PowerW:    e.PowerW,
				})
			}
			out.Choices[tid] = scaled
		}
	}
	return out
}
