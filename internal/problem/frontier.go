package problem

import (
	"context"
	"sync"

	"powercap/internal/machine"
	"powercap/internal/obs"
	"powercap/internal/pareto"
)

// Frontier is a work-normalized convex Pareto frontier for one (task shape,
// rank) class: Pts holds (power, time-per-unit-work) points sorted by
// increasing power and strictly decreasing time, and Cfgs the machine
// configuration behind each point. Durations scale linearly with task work
// while power does not depend on it, so one Frontier serves every task of
// the class.
type Frontier struct {
	Pts  []pareto.Point
	Cfgs []machine.Config
}

// IndexOf locates a pareto point within the frontier by its configuration
// index, defaulting to 0 when absent.
func (f *Frontier) IndexOf(p pareto.Point) int {
	for i := range f.Pts {
		if f.Pts[i].Index == p.Index {
			return i
		}
	}
	return 0
}

// Nearest returns the frontier position whose power is closest to targetW —
// the paper's discrete rounding rule ("the configuration closest to the
// optimal point on the Pareto frontier", Sec. 3.2).
func (f *Frontier) Nearest(targetW float64) (int, bool) {
	p, ok := pareto.NearestToMix(f.Pts, targetW)
	if !ok {
		return 0, false
	}
	return f.IndexOf(p), true
}

// Floor returns the highest-power frontier position whose power does not
// exceed targetW — the round-down-safe rule: a task realized at its floor
// point never draws more than its LP-mixed power. A target marginally below
// the frontier minimum (floating-point residue of a convex mix) clamps to
// position 0.
func (f *Frontier) Floor(targetW float64) (int, bool) {
	if len(f.Pts) == 0 {
		return 0, false
	}
	k := 0
	for i, p := range f.Pts {
		if p.PowerW <= targetW+1e-9 {
			k = i
		}
	}
	return k, true
}

// FrontierSet computes and caches Frontiers per (shape, rank) against one
// machine model and per-rank efficiency-scale vector. It is safe for
// concurrent use: iteration slices built side by side and concurrent
// service requests share one set and race benignly to populate it.
type FrontierSet struct {
	model *machine.Model
	eff   []float64

	mu    sync.Mutex
	cache map[frontierKey]*Frontier
}

type frontierKey struct {
	shape machine.Shape
	rank  int
}

// NewFrontierSet returns an empty frontier cache over model. effScale may be
// nil (1.0 everywhere).
func NewFrontierSet(model *machine.Model, effScale []float64) *FrontierSet {
	return &FrontierSet{
		model: model,
		eff:   effScale,
		cache: make(map[frontierKey]*Frontier),
	}
}

// Model returns the machine model the set computes against.
func (fs *FrontierSet) Model() *machine.Model { return fs.model }

// Eff returns the efficiency multiplier for a rank's socket (1.0 when
// unspecified or out of range).
func (fs *FrontierSet) Eff(rank int) float64 {
	if fs.eff == nil || rank < 0 || rank >= len(fs.eff) {
		return 1
	}
	return fs.eff[rank]
}

// EffScale returns the raw per-rank efficiency vector (may be nil).
func (fs *FrontierSet) EffScale() []float64 { return fs.eff }

// For returns the convex Pareto frontier for a task shape on a rank's
// socket, computing and caching it on first use.
func (fs *FrontierSet) For(shape machine.Shape, rank int) *Frontier {
	return fs.ForCtx(context.Background(), shape, rank)
}

// ForCtx is For with obs span parentage: a cache miss records the cloud
// construction and hull computation as a pareto.frontier span under ctx.
func (fs *FrontierSet) ForCtx(ctx context.Context, shape machine.Shape, rank int) *Frontier {
	key := frontierKey{shape: shape, rank: rank}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if f, ok := fs.cache[key]; ok {
		return f
	}
	_, span := obs.Start(ctx, "pareto.frontier")
	defer span.End()
	span.SetAttr("rank", rank)
	cfgs := fs.model.Configs()
	cloud := make([]pareto.Point, len(cfgs))
	for i, c := range cfgs {
		cloud[i] = pareto.Point{
			PowerW: fs.model.Power(shape, c, fs.Eff(rank)),
			TimeS:  fs.model.Duration(1.0, shape, c),
			Index:  i,
		}
	}
	hull := pareto.ConvexFrontier(cloud)
	f := &Frontier{Pts: hull, Cfgs: make([]machine.Config, len(hull))}
	for i, p := range hull {
		f.Cfgs[i] = cfgs[p.Index]
	}
	fs.cache[key] = f
	return f
}
