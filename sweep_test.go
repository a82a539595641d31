package powercap_test

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"powercap"
	"powercap/internal/lp"
)

func sweepCaps(w *powercap.Workload) []float64 {
	// Per-socket 70 → 10 W, stepping down into the infeasible regime.
	caps := make([]float64, 0, 13)
	for per := 70.0; per >= 10; per -= 5 {
		caps = append(caps, per*float64(w.Graph.NumRanks))
	}
	return caps
}

// serially runs f at GOMAXPROCS 1, where a sweep's slices run inline, one
// after another.
func serially(f func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
}

// TestSolveSweepMatchesUpperBoundWhole: on every proxy the sweep, each
// cap's iteration slices re-solved from their bases at the cap before,
// agrees with fresh point solves, whole-graph and decomposed: the same
// infeasible caps, and the makespan and objective within 1e-9 relative.
// Its answers and per-point effort do not depend on the CPU count: a
// sweep at GOMAXPROCS 1 gives the same points bit for bit.
func TestSolveSweepMatchesUpperBoundWhole(t *testing.T) {
	rel := func(a, b float64) float64 { return math.Abs(a-b) / math.Abs(b) }
	for _, name := range powercap.WorkloadNames() {
		t.Run(name, func(t *testing.T) {
			w := smallWorkload(t, name)
			sys := powercap.SystemFor(w, nil)
			caps := sweepCaps(w)
			for per := 31.0; per < 70; per += 3.7 {
				caps = append(caps, per*float64(w.Graph.NumRanks))
			}

			pts, err := sys.SolveSweep(w.Graph, caps)
			if err != nil {
				t.Fatal(err)
			}
			var inline []powercap.SweepPoint
			serially(func() { inline, err = powercap.SystemFor(w, nil).SolveSweep(w.Graph, caps) })
			if err != nil {
				t.Fatal(err)
			}
			requireSameSweep(t, "GOMAXPROCS 1", inline, pts)
			infeasible := 0
			for i, pt := range pts {
				whole, werr := sys.UpperBoundWhole(w.Graph, caps[i])
				split, serr := sys.UpperBound(w.Graph, caps[i])
				if werr != nil || serr != nil {
					if !errors.Is(werr, powercap.ErrInfeasible) || !errors.Is(serr, powercap.ErrInfeasible) {
						t.Fatalf("cap %v: whole %v, decomposed %v", caps[i], werr, serr)
					}
					if !errors.Is(pt.Err, powercap.ErrInfeasible) {
						t.Fatalf("cap %v: sweep err %v, want infeasible", caps[i], pt.Err)
					}
					infeasible++
					continue
				}
				if pt.Err != nil {
					t.Fatalf("cap %v: %v", caps[i], pt.Err)
				}
				for _, ref := range []*powercap.Schedule{whole, split} {
					if rel(pt.Schedule.MakespanS, ref.MakespanS) > 1e-9 || rel(pt.Schedule.Objective, ref.Objective) > 1e-9 {
						t.Fatalf("cap %v: sweep makespan %.15g objective %.15g, point solve %.15g %.15g",
							caps[i], pt.Schedule.MakespanS, pt.Schedule.Objective, ref.MakespanS, ref.Objective)
					}
				}
			}
			if infeasible == 0 || infeasible == len(caps) {
				t.Errorf("%d of %d caps infeasible, want both kinds of point", infeasible, len(caps))
			}
		})
	}
}

// TestSolveSweepFreshGraph hands SolveSweep graphs nobody has read yet, so
// the slices fanned out at each cap are the first to solve their programs.
// Under -race they must not race, and every point must equal, bit for bit,
// the inline sweep of an identical graph.
func TestSolveSweepFreshGraph(t *testing.T) {
	for _, name := range []string{"SP", "LULESH", "CoMD"} {
		ref := smallWorkload(t, name)
		var serial []powercap.SweepPoint
		var err error
		serially(func() { serial, err = powercap.SystemFor(ref, nil).SolveSweep(ref.Graph, sweepCaps(ref)) })
		if err != nil {
			t.Fatalf("%s inline: %v", name, err)
		}
		w := smallWorkload(t, name)
		pts, err := powercap.SystemFor(w, nil).SolveSweep(w.Graph, sweepCaps(w))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		requireSameSweep(t, name, pts, serial)
	}
}

// requireSameSweep fails unless got has want's caps and, at each, the same
// error or the same makespan, objective, shadow price and per-iteration
// makespans bit for bit, and the same effort.
func requireSameSweep(t *testing.T, label string, got, want []powercap.SweepPoint) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d points, want %d", label, len(got), len(want))
	}
	bits := math.Float64bits
	for i := range got {
		g, w := got[i], want[i]
		if bits(g.CapW) != bits(w.CapW) || g.Stats != w.Stats {
			t.Fatalf("%s point %d: cap %v effort %+v, want %v %+v", label, i, g.CapW, g.Stats, w.CapW, w.Stats)
		}
		if (g.Err == nil) != (w.Err == nil) || (w.Err != nil && g.Err.Error() != w.Err.Error()) {
			t.Fatalf("%s cap %v: err %v, want %v", label, g.CapW, g.Err, w.Err)
		}
		if w.Err != nil {
			continue
		}
		a, b := g.Schedule, w.Schedule
		if bits(a.MakespanS) != bits(b.MakespanS) || bits(a.Objective) != bits(b.Objective) ||
			bits(a.MarginalSecPerW) != bits(b.MarginalSecPerW) || !reflect.DeepEqual(a.IterationMakespans, b.IterationMakespans) {
			t.Fatalf("%s cap %v: makespan %v objective %v marginal %v, want %v %v %v",
				label, g.CapW, a.MakespanS, a.Objective, a.MarginalSecPerW, b.MakespanS, b.Objective, b.MarginalSecPerW)
		}
	}
}

// TestInfeasibilityChains is the satellite acceptance: one sentinel chain
// from the public facade down to the LP layer, matchable at every level.
func TestInfeasibilityChains(t *testing.T) {
	w := smallWorkload(t, "CoMD")
	sys := powercap.SystemFor(w, nil)
	tiny := 2.0 * float64(w.Graph.NumRanks) // 2 W/socket: below idle floor

	for name, solve := range map[string]func() error{
		"UpperBound":      func() error { _, err := sys.UpperBound(w.Graph, tiny); return err },
		"UpperBoundWhole": func() error { _, err := sys.UpperBoundWhole(w.Graph, tiny); return err },
		"UpperBoundDiscrete": func() error {
			_, err := sys.UpperBoundDiscrete(w.Graph, tiny)
			if errors.Is(err, powercap.ErrDiscreteTooLarge) {
				return nil // size guard fired first; nothing to assert
			}
			return err
		},
	} {
		err := solve()
		if err == nil {
			continue // discrete may be skipped by the size guard
		}
		if !errors.Is(err, powercap.ErrInfeasible) {
			t.Fatalf("%s: error %v does not match powercap.ErrInfeasible", name, err)
		}
		if !errors.Is(err, lp.ErrInfeasible) {
			t.Fatalf("%s: error %v does not chain to lp.ErrInfeasible", name, err)
		}
	}

	// The flow ILP has its own sentinel; it must chain to lp too.
	if !errors.Is(powercap.ErrFlowInfeasible, lp.ErrInfeasible) {
		t.Fatal("ErrFlowInfeasible does not chain to lp.ErrInfeasible")
	}
	// And sweep points carry the same chain.
	pts, err := sys.SolveSweep(w.Graph, []float64{tiny})
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(pts[0].Err, powercap.ErrInfeasible) || !errors.Is(pts[0].Err, lp.ErrInfeasible) {
		t.Fatalf("sweep point error %v does not chain through both sentinels", pts[0].Err)
	}
}

// TestParseSweepSpec is the table-driven contract for "hi:lo:step" sweep
// specs: valid specs expand to descending, inclusive cap lists; malformed
// ones are rejected with errors naming the offending field.
func TestParseSweepSpec(t *testing.T) {
	t.Run("valid", func(t *testing.T) {
		cases := []struct {
			spec string
			want []float64
		}{
			{"70:30:5", []float64{70, 65, 60, 55, 50, 45, 40, 35, 30}},
			{"60:60:5", []float64{60}},
			{"50:49:0.5", []float64{50, 49.5, 49}},
			{" 60 : 50 : 5 ", []float64{60, 55, 50}},
			{"52:50:1.5", []float64{52, 50.5}}, // lo not hit exactly: stop above it
		}
		for _, c := range cases {
			got, err := powercap.ParseSweepSpec(c.spec)
			if err != nil {
				t.Errorf("spec %q: unexpected error %v", c.spec, err)
				continue
			}
			if len(got) != len(c.want) {
				t.Errorf("spec %q: got %v, want %v", c.spec, got, c.want)
				continue
			}
			for i := range got {
				if math.Abs(got[i]-c.want[i]) > 1e-9 {
					t.Errorf("spec %q: cap[%d] = %v, want %v", c.spec, i, got[i], c.want[i])
				}
			}
		}
	})

	t.Run("rejected", func(t *testing.T) {
		cases := []struct {
			spec    string
			wantSub string
		}{
			{"", "want hi:lo:step"},
			{"70:30", "want hi:lo:step"},
			{"70:30:5:2", "want hi:lo:step"},
			{"70:30:0", "step must be positive"},
			{"70:30:-1", "step must be positive"},
			{"30:70:5", "must be ≥ lo"}, // no silent swapping
			{"abc:30:5", "hi field"},    // errors name the field
			{"70:x:5", "lo field"},
			{"70:30:y", "step field"},
			{"NaN:30:5", "hi field"},
			{"Inf:30:5", "must be finite"},
			{"70:-5:5", "lo must be positive"},
			{"0:0:5", "lo must be positive"},
			{"1e9:1:1e-3", "caps (max"}, // MaxSweepPoints guard
		}
		for _, c := range cases {
			caps, err := powercap.ParseSweepSpec(c.spec)
			if err == nil {
				t.Errorf("spec %q accepted (%d caps), want error", c.spec, len(caps))
				continue
			}
			if !strings.Contains(err.Error(), c.wantSub) {
				t.Errorf("spec %q: error %q does not contain %q", c.spec, err, c.wantSub)
			}
		}
	})
}

// MarginalCurve pins the shadow price's two structural properties: it is
// never positive (an extra watt cannot hurt the LP bound), and by convexity
// its magnitude decays monotonically as the cap loosens, reaching ≈ 0 once
// the job saturates.
func TestMarginalCurveSignAndDecay(t *testing.T) {
	w := powercap.NewWorkload("BT", powercap.WorkloadParams{Ranks: 4, Iterations: 3, Seed: 2, WorkScale: 0.3})
	// Descending caps, from a saturating 500 W/socket head down into the
	// infeasible regime.
	caps := append([]float64{500 * float64(w.Graph.NumRanks)}, sweepCaps(w)...)
	curve, err := powercap.SystemFor(w, nil).MarginalCurve(context.Background(), w.Graph, caps)
	if err != nil {
		t.Fatal(err)
	}
	if len(curve) != len(caps) {
		t.Fatalf("curve has %d points for %d caps", len(curve), len(caps))
	}
	feasible, infeasible := 0, 0
	prevMag := 0.0 // caps descend, so |marginal| must never shrink
	for i, pt := range curve {
		if pt.CapW != caps[i] {
			t.Fatalf("point %d: CapW %.1f, want %.1f", i, pt.CapW, caps[i])
		}
		if pt.Infeasible {
			infeasible++
			continue
		}
		feasible++
		if pt.MarginalSecPerW > 1e-12 {
			t.Errorf("cap %.0f W: positive shadow price %g (extra watts cannot hurt)", pt.CapW, pt.MarginalSecPerW)
		}
		if mag := -pt.MarginalSecPerW; mag < prevMag-1e-9 {
			t.Errorf("cap %.0f W: |marginal| %.6g shrank from %.6g as the cap tightened — decay toward zero must be monotone in the cap",
				pt.CapW, mag, prevMag)
		} else {
			prevMag = mag
		}
	}
	if feasible == 0 || infeasible == 0 {
		t.Fatalf("sweep should cross the feasibility floor: %d feasible, %d infeasible", feasible, infeasible)
	}
	// At the saturating head cap, power stops mattering: ≈ zero price.
	if m := -curve[0].MarginalSecPerW; m > 1e-6 {
		t.Errorf("saturating cap %.0f W still prices power at %g s/W", curve[0].CapW, m)
	}
}

// MarginalCurve reads the job's walk instead of solving each cap, and on
// every proxy must agree with point solves: the same infeasible caps, the
// makespan within 1e-9 relative, and each point solve's shadow price
// between the slopes of the curve's pieces on either side of the cap. The
// walk only moves down, so the same caps shuffled, one of them repeated,
// return bit-identical points in the caller's order.
func TestMarginalCurveMatchesPointSolves(t *testing.T) {
	for _, name := range powercap.WorkloadNames() {
		t.Run(name, func(t *testing.T) {
			w := smallWorkload(t, name)
			sys := powercap.SystemFor(w, nil)
			caps := sweepCaps(w)
			for per := 31.0; per < 70; per += 3.7 {
				caps = append(caps, per*float64(w.Graph.NumRanks))
			}
			below := make([]float64, len(caps))
			for i, c := range caps {
				below[i] = c - 1e-6
			}
			ctx := context.Background()
			above, err := sys.MarginalCurve(ctx, w.Graph, caps)
			if err != nil {
				t.Fatal(err)
			}
			under, err := sys.MarginalCurve(ctx, w.Graph, below)
			if err != nil {
				t.Fatal(err)
			}
			pts, err := sys.SolveSweep(w.Graph, caps)
			if err != nil {
				t.Fatal(err)
			}
			for i, pt := range pts {
				cur := above[i]
				if pt.Err != nil {
					if !errors.Is(pt.Err, powercap.ErrInfeasible) {
						t.Fatalf("cap %g W: %v", caps[i], pt.Err)
					}
					if !cur.Infeasible {
						t.Errorf("cap %g W: point solve infeasible, curve feasible", caps[i])
					}
					continue
				}
				if cur.Infeasible {
					t.Errorf("cap %g W: curve infeasible, point solve feasible", caps[i])
					continue
				}
				if rel := math.Abs(cur.MakespanS-pt.Schedule.MakespanS) / pt.Schedule.MakespanS; rel > 1e-9 {
					t.Errorf("cap %g W: curve makespan %.12g, point solve %.12g", caps[i], cur.MakespanS, pt.Schedule.MakespanS)
				}
				lo, hi := under[i].MarginalSecPerW, cur.MarginalSecPerW
				if m := pt.Schedule.MarginalSecPerW; m < lo-1e-9 || m > hi+1e-9 {
					t.Errorf("cap %g W: shadow price %.12g outside the curve's slopes [%.12g, %.12g]", caps[i], m, lo, hi)
				}
			}

			// Each index k of shuffled names a cap of caps.
			shuffled := rand.New(rand.NewSource(1)).Perm(len(caps))
			shuffled = append(shuffled, shuffled[len(shuffled)/2])
			mixed := make([]float64, len(shuffled))
			for i, k := range shuffled {
				mixed[i] = caps[k]
			}
			again, err := sys.MarginalCurve(ctx, w.Graph, mixed)
			if err != nil {
				t.Fatal(err)
			}
			bits := math.Float64bits
			for i, k := range shuffled {
				a, b := again[i], above[k]
				if bits(a.CapW) != bits(b.CapW) || bits(a.MakespanS) != bits(b.MakespanS) ||
					bits(a.MarginalSecPerW) != bits(b.MarginalSecPerW) || a.Infeasible != b.Infeasible {
					t.Errorf("cap %g W shuffled: %+v, in the first call %+v", mixed[i], a, b)
				}
			}
		})
	}
}
