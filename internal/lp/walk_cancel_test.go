package lp

import (
	"context"
	"testing"
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
