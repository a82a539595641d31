package powercap_test

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
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

func TestSolveSweepMatchesUpperBoundWhole(t *testing.T) {
	w := smallWorkload(t, "SP")
	sys := powercap.SystemFor(w, nil)
	caps := sweepCaps(w)

	pts, err := sys.SolveSweep(w.Graph, caps)
	if err != nil {
		t.Fatal(err)
	}
	for i, pt := range pts {
		whole, werr := sys.UpperBoundWhole(w.Graph, caps[i])
		if werr != nil {
			if !errors.Is(werr, powercap.ErrInfeasible) {
				t.Fatal(werr)
			}
			if !errors.Is(pt.Err, powercap.ErrInfeasible) {
				t.Fatalf("cap %v: sweep err %v, want infeasible", caps[i], pt.Err)
			}
			continue
		}
		if pt.Err != nil {
			t.Fatalf("cap %v: %v", caps[i], pt.Err)
		}
		if math.Abs(pt.Schedule.MakespanS-whole.MakespanS) > 1e-9*(1+whole.MakespanS) {
			t.Fatalf("cap %v: sweep %v, individual %v", caps[i], pt.Schedule.MakespanS, whole.MakespanS)
		}
	}
}

func TestSweepParallelMatchesSerial(t *testing.T) {
	w := smallWorkload(t, "LULESH")
	sys := powercap.SystemFor(w, nil)
	caps := sweepCaps(w)

	serial, err := sys.SolveSweep(w.Graph, caps)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, 32} {
		par, err := sys.SweepParallel(w.Graph, caps, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		requireSameSweep(t, fmt.Sprintf("workers=%d", workers), par, serial)
	}
}

// TestSweepParallelFreshGraph hands SweepParallel graphs nobody has read
// yet, so its workers are the first to need the adjacency lists. Under
// -race they must share them without a data race, and every point must
// match the serial sweep of an identical graph.
func TestSweepParallelFreshGraph(t *testing.T) {
	for _, name := range []string{"SP", "LULESH", "CoMD"} {
		ref := smallWorkload(t, name)
		serial, err := powercap.SystemFor(ref, nil).SolveSweep(ref.Graph, sweepCaps(ref))
		if err != nil {
			t.Fatalf("%s serial: %v", name, err)
		}
		for _, workers := range []int{2, 4} {
			w := smallWorkload(t, name)
			par, err := powercap.SystemFor(w, nil).SweepParallel(w.Graph, sweepCaps(w), workers)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", name, workers, err)
			}
			requireSameSweep(t, fmt.Sprintf("%s workers=%d", name, workers), par, serial)
		}
	}
}

// requireSameSweep fails unless par has serial's caps, the same infeasible
// points, and makespans within 1e-9 relative.
func requireSameSweep(t *testing.T, label string, par, serial []powercap.SweepPoint) {
	t.Helper()
	if len(par) != len(serial) {
		t.Fatalf("%s: %d points, want %d", label, len(par), len(serial))
	}
	for i := range par {
		if par[i].CapW != serial[i].CapW {
			t.Fatalf("%s point %d: cap %v, want %v", label, i, par[i].CapW, serial[i].CapW)
		}
		if (par[i].Err == nil) != (serial[i].Err == nil) {
			t.Fatalf("%s cap %v: err %v vs serial %v", label, par[i].CapW, par[i].Err, serial[i].Err)
		}
		if serial[i].Err != nil {
			if !errors.Is(par[i].Err, powercap.ErrInfeasible) {
				t.Fatalf("%s cap %v: err %v, want infeasible", label, par[i].CapW, par[i].Err)
			}
			continue
		}
		a, b := par[i].Schedule.MakespanS, serial[i].Schedule.MakespanS
		if math.Abs(a-b) > 1e-9*(1+b) {
			t.Fatalf("%s cap %v: makespan %v, serial %v", label, par[i].CapW, a, b)
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
			w := powercap.NewWorkload(name, powercap.WorkloadParams{Ranks: 4, Iterations: 3, Seed: 2, WorkScale: 0.3})
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
