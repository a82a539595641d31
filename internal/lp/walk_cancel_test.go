package lp

import (
	"context"
	"testing"

	"powercap/internal/obs"
)

// knapsackWalk is a fractional knapsack with unit weights: n items worth
// 1+j/n each, x_j ≤ 1, and a budget row Σx ≤ n that the walk lowers. Each
// unit of shift drops the least valuable item still held, so the walk
// crosses a breakpoint, and takes a dual pivot, at every integer shift.
func knapsackWalk(n int) (p *Problem, rows []int, maxShift float64) {
	p = NewProblem(Minimize)
	var budget Expr
	for j := 0; j < n; j++ {
		x := p.AddVar("", -(1 + float64(j)/float64(n)))
		p.MustConstraint("", Expr{}.Plus(x, 1), LE, 1)
		budget = budget.Plus(x, 1)
	}
	p.MustConstraint("budget", budget, LE, float64(n))
	return p, []int{n}, float64(n)
}

// crossAll steps the walk piece by piece until it ends or a step stops it.
func crossAll(t *testing.T, w *Walk, ctx context.Context) {
	t.Helper()
	for !w.Ended() {
		_, end, _ := w.Piece()
		w.Advance(end)
		if err := w.Cross(ctx); err != nil {
			t.Fatalf("cross at shift %g: %v", w.Shift(), err)
		}
	}
}

// TestWalkStepContext: a step is canceled by the context it is given, not
// by the one the walk was opened under. A walk whose opening context ends
// right after the open still lowers to its end through live step contexts,
// past several cancellation polls; a step given a canceled context stops
// as Canceled at its first poll.
func TestWalkStepContext(t *testing.T) {
	p, rows, maxShift := knapsackWalk(4 * cancelCheckEvery)

	t.Run("opening-context-ended", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		w, err := OpenWalk(p, rows, nil, maxShift, WithContext(ctx))
		cancel()
		if err != nil || w.Status() != Optimal {
			t.Fatalf("open: %v %v", err, w.Status())
		}
		defer w.Close()
		crossAll(t, w, context.Background())
		if w.Status() != Optimal {
			t.Fatalf("walk stopped at shift %g with status %v", w.Shift(), w.Status())
		}
		if got := w.Stats().DualIters; got <= 2*cancelCheckEvery {
			t.Fatalf("walk took %d dual pivots, want more than %d so the steps poll", got, 2*cancelCheckEvery)
		}
		if w.Shift() != maxShift {
			t.Fatalf("walk ended at shift %g, want %g", w.Shift(), maxShift)
		}
	})

	t.Run("step-context-canceled", func(t *testing.T) {
		w, err := OpenWalk(p, rows, nil, maxShift, WithContext(context.Background()))
		if err != nil || w.Status() != Optimal {
			t.Fatalf("open: %v %v", err, w.Status())
		}
		defer w.Close()
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		before := w.Stats().Pivots()
		crossAll(t, w, ctx)
		if w.Status() != Canceled {
			t.Fatalf("walk under a canceled step context ended with status %v at shift %g", w.Status(), w.Shift())
		}
		if got := w.Stats().Pivots() - before; got > cancelCheckEvery {
			t.Fatalf("canceled steps took %d pivots, want at most %d", got, cancelCheckEvery)
		}
	})
}

// TestGroupCrossings: a run of Cross steps given a GroupCrossings context
// records under that one lp.dual span, where ungrouped steps open one span
// per crossing, and the group's context still cancels its steps.
func TestGroupCrossings(t *testing.T) {
	const n = 20
	p, rows, maxShift := knapsackWalk(n)
	duals := func(grouped bool) int {
		tr := obs.NewTrace(0)
		defer tr.Release()
		ctx := obs.WithTrace(context.Background(), tr)
		w, err := OpenWalk(p, rows, nil, maxShift)
		if err != nil || w.Status() != Optimal {
			t.Fatalf("open: %v %v", err, w.Status())
		}
		defer w.Close()
		if grouped {
			gctx, sp := GroupCrossings(ctx)
			crossAll(t, w, gctx)
			sp.End()
		} else {
			crossAll(t, w, ctx)
		}
		if w.Shift() != maxShift || w.Stats().DualIters < n-1 {
			t.Fatalf("walk ended at shift %g after %d dual pivots", w.Shift(), w.Stats().DualIters)
		}
		count := 0
		for _, sp := range tr.Snapshot() {
			if sp.Name == "lp.dual" {
				count++
			}
		}
		return count
	}
	if got := duals(false); got < n-1 {
		t.Errorf("ungrouped crossings recorded %d lp.dual spans, want one per crossing (%d)", got, n-1)
	}
	if got := duals(true); got != 1 {
		t.Errorf("grouped crossings recorded %d lp.dual spans, want 1", got)
	}

	tr := obs.NewTrace(0)
	defer tr.Release()
	ctx, cancel := context.WithCancel(obs.WithTrace(context.Background(), tr))
	p, rows, maxShift = knapsackWalk(4 * cancelCheckEvery)
	w, err := OpenWalk(p, rows, nil, maxShift)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	gctx, sp := GroupCrossings(ctx)
	defer sp.End()
	cancel()
	crossAll(t, w, gctx)
	if w.Status() != Canceled {
		t.Errorf("grouped steps under a canceled context ended with status %v", w.Status())
	}
}
