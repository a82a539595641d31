package fanout

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"powercap/internal/faultinject"
)

// settle waits for the goroutine count to fall back to at most base.
func settle(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines left running, %d before Run", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

// Every task runs once and writes its own slot, whatever the worker count.
func TestRunCoversEveryIndex(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 3, 8} {
		for _, n := range []int{0, 1, 2, 5, 9} {
			got := make([]int, n)
			err := Run(context.Background(), n, workers, func(_ context.Context, i int) error {
				got[i] += i + 1
				return nil
			})
			if err != nil {
				t.Fatalf("workers %d, n %d: %v", workers, n, err)
			}
			for i, v := range got {
				if v != i+1 {
					t.Fatalf("workers %d, n %d: slot %d holds %d, want %d", workers, n, i, v, i+1)
				}
			}
		}
	}
}

// A task's context stays live after the task returns, for work it hands
// on: only ctx, or a failure below the task, cancels it.
func TestRunContextOutlivesTask(t *testing.T) {
	ctxs := make([]context.Context, 6)
	err := Run(context.Background(), len(ctxs), 3, func(ctx context.Context, i int) error {
		ctxs[i] = ctx
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, ctx := range ctxs {
		if ctx.Err() != nil {
			t.Errorf("task %d: context %v once Run returned", i, ctx.Err())
		}
	}
}

// One worker runs inline: the tasks see the caller's context, run in
// order, and no goroutine starts.
func TestRunOneWorkerInline(t *testing.T) {
	ctx := context.WithValue(context.Background(), t, "caller")
	base := runtime.NumGoroutine()
	var order []int
	for _, workers := range []int{1, 4} {
		n := 6
		if workers > 1 {
			n = 1 // n = 1 is one worker too
		}
		order = order[:0]
		err := Run(ctx, n, workers, func(tctx context.Context, i int) error {
			if tctx != ctx {
				t.Errorf("workers %d: task %d got a derived context", workers, i)
			}
			if g := runtime.NumGoroutine(); g > base {
				t.Errorf("workers %d: %d goroutines inside a task, %d before Run", workers, g, base)
			}
			order = append(order, i)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if want := []int{0, 1, 2, 3, 4, 5}[:n]; !slices.Equal(order, want) {
			t.Errorf("workers %d: order %v, want %v", workers, order, want)
		}
	}
}

// Rule 1: the error of the lowest failing index wins, even when a later
// task fails first; the running tasks after it are canceled and the
// earlier ones finish with their contexts live.
func TestRunLowestFailingIndexWins(t *testing.T) {
	const n = 8
	base := runtime.NumGoroutine()
	errAt := func(i int) error { return fmt.Errorf("task %d failed", i) }
	sixCanceled := make(chan struct{})
	var canceled [n]atomic.Bool
	var allStarted sync.WaitGroup
	allStarted.Add(n)
	err := Run(context.Background(), n, n, func(ctx context.Context, i int) error {
		allStarted.Done()
		switch i {
		case 5:
			allStarted.Wait()
			return errAt(5) // fails first, with every task running
		case 2:
			<-sixCanceled // fails once 5's failure has reached 6
			return errAt(2)
		case 0, 1:
			<-sixCanceled
			if ctx.Err() != nil {
				t.Errorf("task %d canceled by a later failure", i)
			}
			return nil
		}
		<-ctx.Done()
		canceled[i].Store(true)
		if i == 6 {
			close(sixCanceled)
		}
		return ctx.Err()
	})
	if err == nil || err.Error() != errAt(2).Error() {
		t.Fatalf("got %v, want %v", err, errAt(2))
	}
	for _, i := range []int{3, 4, 6, 7} {
		if !canceled[i].Load() {
			t.Errorf("task %d after the failure was not canceled", i)
		}
	}
	settle(t, base)
}

// Rule 1: tasks after the lowest failing index are not started.
func TestRunStopsStartingAfterFailure(t *testing.T) {
	for _, workers := range []int{2, 3} {
		var mu sync.Mutex
		var started []int
		want := errors.New("task 0 failed")
		err := Run(context.Background(), 10, workers, func(ctx context.Context, i int) error {
			mu.Lock()
			started = append(started, i)
			mu.Unlock()
			if i == 0 {
				return want
			}
			<-ctx.Done() // only a failure below can end it
			return ctx.Err()
		})
		if !errors.Is(err, want) {
			t.Fatalf("workers %d: got %v, want %v", workers, err, want)
		}
		slices.Sort(started)
		if len(started) > workers || started[0] != 0 {
			t.Errorf("workers %d: started %v, want task 0 and at most the %d already running", workers, started, workers-1)
		}
	}
}

// Rule 2: a task's panic reaches the caller with its original value, after
// every other task has stopped, and no goroutine is left behind.
func TestRunPanicReachesCaller(t *testing.T) {
	type boom struct{ msg string }
	want := &boom{"window solve"}
	base := runtime.NumGoroutine()
	var running atomic.Int32
	got := func() (p any) {
		defer func() {
			p = recover()
			if r := running.Load(); r != 0 {
				t.Errorf("%d tasks still running when the panic reached the caller", r)
			}
		}()
		_ = Run(context.Background(), 8, 4, func(ctx context.Context, i int) error {
			running.Add(1)
			defer running.Add(-1)
			switch {
			case i == 2:
				panic(want)
			case i > 2:
				<-ctx.Done() // stopped by the panic below it
				return ctx.Err()
			}
			return nil
		})
		return nil
	}()
	if got != want {
		t.Fatalf("recovered %v, want the task's own value %v", got, want)
	}
	settle(t, base)
}

// A canceled ctx reaches every running task, and Run returns an error
// wrapping it.
func TestRunCanceled(t *testing.T) {
	base := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	var started atomic.Int32
	time.AfterFunc(5*time.Millisecond, cancel)
	err := Run(ctx, 16, 3, func(ctx context.Context, i int) error {
		started.Add(1)
		<-ctx.Done()
		return fmt.Errorf("task %d: %w", i, ctx.Err())
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled in the chain", err)
	}
	if s := started.Load(); s > 3 {
		t.Errorf("%d tasks started, want at most the 3 running at the cancel", s)
	}
	settle(t, base)
}

// Rule 4: while faultinject is armed the tasks run one at a time, in index
// order, so a seed draws its faults in one sequence.
func TestRunSerialWhileFaultsArmed(t *testing.T) {
	faultinject.Configure(1, map[faultinject.Class]float64{faultinject.LPNaN: 0.5})
	defer faultinject.Disable()
	ctx := context.Background()
	var order []int
	var running atomic.Int32
	err := Run(ctx, 8, 4, func(tctx context.Context, i int) error {
		if running.Add(1) > 1 {
			t.Errorf("task %d overlaps another", i)
		}
		defer running.Add(-1)
		if tctx != ctx {
			t.Errorf("task %d got a derived context", i)
		}
		order = append(order, i)
		time.Sleep(100 * time.Microsecond)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := []int{0, 1, 2, 3, 4, 5, 6, 7}; !slices.Equal(order, want) {
		t.Errorf("order %v, want %v", order, want)
	}
}
