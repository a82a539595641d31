package slo

import (
	"math"
	"testing"
	"time"
)

// win returns a 100s window of 10 buckets (10s each) for boundary tests.
func win() *window { return newWindow(100*time.Second, 10) }

func at(s float64) time.Time { return time.Unix(0, int64(s*float64(time.Second))) }

// TestWindowBoundaries drives the sliding ring across bucket and window
// edges with a deterministic clock.
func TestWindowBoundaries(t *testing.T) {
	cases := []struct {
		name     string
		observe  []float64 // observation times (seconds); even index good, odd bad
		query    float64   // query time (seconds)
		wantGood uint64
		wantTot  uint64
	}{
		{"empty", nil, 50, 0, 0},
		{"single in current bucket", []float64{5}, 5, 1, 1},
		{"exactly on bucket edge lands in the new bucket", []float64{10}, 10, 1, 1},
		{"all inside window", []float64{1, 11, 21, 31}, 35, 2, 4},
		{"oldest bucket still included at span-1", []float64{0}, 99, 1, 1},
		{"oldest bucket expires when its epoch leaves the ring", []float64{0}, 100, 0, 0},
		{"partial expiry keeps newer buckets", []float64{5, 55, 95}, 105, 1, 2},
		{"same bucket accumulates", []float64{42, 43, 44.9}, 45, 2, 3},
		{"query before any data", []float64{50}, 20, 0, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := win()
			for i, s := range tc.observe {
				w.observe(at(s), i%2 == 0)
			}
			good, tot := w.counts(at(tc.query))
			if good != tc.wantGood || tot != tc.wantTot {
				t.Fatalf("counts = (%d, %d), want (%d, %d)", good, tot, tc.wantGood, tc.wantTot)
			}
		})
	}
}

// TestWindowBucketReuse checks that a bucket slot is reset, not
// accumulated, when its epoch comes around again a full window later.
func TestWindowBucketReuse(t *testing.T) {
	w := win()
	w.observe(at(5), true)
	w.observe(at(5), true)
	// 100s later the same slot (epoch 0 -> epoch 10) is reused.
	w.observe(at(105), false)
	good, tot := w.counts(at(105))
	if good != 0 || tot != 1 {
		t.Fatalf("counts after slot reuse = (%d, %d), want (0, 1)", good, tot)
	}
}

func TestBurnMath(t *testing.T) {
	o := newObjective("avail", 0.99, 100*time.Second, 1000*time.Second, 10)
	cases := []struct {
		name string
		good int
		bad  int
		want float64
	}{
		{"empty window burns nothing", 0, 0, 0},
		{"all good", 100, 0, 0},
		{"burn exactly at budget", 99, 1, 1},
		{"10x budget", 90, 10, 10},
		{"everything failing saturates at 1/budget", 0, 50, 100},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := o.burn(uint64(tc.good), uint64(tc.good+tc.bad))
			if math.Abs(got-tc.want) > 1e-9 {
				t.Fatalf("burn = %g, want %g", got, tc.want)
			}
		})
	}
}

// TestBurnAcrossWindowBoundary checks the fast window forgets an incident
// while the slow window still reports it.
func TestBurnAcrossWindowBoundary(t *testing.T) {
	o := newObjective("avail", 0.99, 100*time.Second, 1000*time.Second, 10)
	for i := 0; i < 10; i++ {
		o.observe(at(float64(i)), false) // 10 failures in the first 10s
	}
	fast, slow := o.Burn(at(50))
	if math.Abs(fast-100) > 1e-6 || math.Abs(slow-100) > 1e-6 {
		t.Fatalf("mid-incident burn = (%g, %g), want (100, 100)", fast, slow)
	}
	// 200s in: the incident has left the 100s fast window entirely but
	// sits in the 1000s slow window; add successes so both have samples.
	for i := 150; i < 160; i++ {
		o.observe(at(float64(i)), true)
	}
	fast, slow = o.Burn(at(200))
	if fast != 0 {
		t.Fatalf("fast burn after incident left window = %g, want 0", fast)
	}
	if math.Abs(slow-50) > 1e-6 { // 10 bad of 20 total → 0.5/0.01
		t.Fatalf("slow burn = %g, want 50", slow)
	}
}

func TestEngineClassification(t *testing.T) {
	e := newEngine(100*time.Millisecond, 100*time.Second, 1000*time.Second, 10)
	now := at(10)
	e.Observe(now, 200, 50*time.Millisecond)  // good everywhere
	e.Observe(now, 200, 500*time.Millisecond) // slow success
	e.Observe(now, 500, 1*time.Millisecond)   // fast failure: bad avail, excluded from latency
	e.Observe(now, 429, 1*time.Millisecond)   // rejected: excluded everywhere

	as := e.Availability.Status(now)
	if as.FastTotal != 3 || as.FastGood != 2 {
		t.Fatalf("availability = %d/%d, want 2/3", as.FastGood, as.FastTotal)
	}
	ls := e.Latency.Status(now)
	if ls.FastTotal != 2 || ls.FastGood != 1 {
		t.Fatalf("latency = %d/%d, want 1/2", ls.FastGood, ls.FastTotal)
	}

	// latency: 1 bad of 2 with 5% budget → burn 10; availability: 1 bad
	// of 3 with 1% budget → burn 100/3 ≈ 33.3.
	if math.Abs(as.FastBurn-100.0/3) > 1e-9 || math.Abs(ls.FastBurn-10) > 1e-9 {
		t.Fatalf("fast burns = %g, %g, want %g, 10", as.FastBurn, ls.FastBurn, 100.0/3)
	}
}

func TestEngineDefaults(t *testing.T) {
	e := New(Config{})
	if e.Availability.Target != 0.99 || e.Latency.Target != 0.95 {
		t.Fatalf("default targets = %g, %g", e.Availability.Target, e.Latency.Target)
	}
	if e.LatencyThreshold() != 2*time.Second {
		t.Fatalf("default threshold = %v", e.LatencyThreshold())
	}
	st := e.Status(time.Now())
	if len(st) != 2 || st[0].Name != "availability" || st[1].Name != "latency" {
		t.Fatalf("Status = %+v", st)
	}
}

func TestEngineConcurrent(t *testing.T) {
	e := newEngine(0, time.Second, 10*time.Second, 4)
	done := make(chan struct{})
	for g := 0; g < 4; g++ {
		go func(g int) {
			defer func() { done <- struct{}{} }()
			base := time.Now()
			for i := 0; i < 500; i++ {
				e.Observe(base.Add(time.Duration(i)*time.Millisecond), 200+(i%2)*300, time.Millisecond)
				if i%31 == 0 {
					e.Status(base.Add(time.Duration(i) * time.Millisecond))
				}
			}
		}(g)
	}
	for g := 0; g < 4; g++ {
		<-done
	}
}
