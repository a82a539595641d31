// Package fanout runs independent tasks side by side: the iteration slices
// of a decomposed solve or of a sweep's cap, the market's per-job walk
// openings and session builds, and the speculative window solves. Run
// keeps a serial loop's answers and failure semantics, so a caller's
// results, errors and panics do not depend on how many CPUs ran them
// (DESIGN.md §7).
package fanout

import (
	"context"
	"sync"

	"powercap/internal/faultinject"
)

// Run runs task(ctx, i) for i = 0…n−1 on min(workers, n) goroutines,
// starting the tasks in index order. Each task writes its own results (by
// index) and the caller merges them after Run returns, in index order. Run
// keeps four rules:
//
//  1. It returns the error a serial loop would return: the error of the
//     lowest failing index. Once a task fails, the tasks after it are not
//     started, the running ones are canceled through their context, and
//     the earlier ones finish (one of them may still fail and take its
//     place). A task's context is canceled by ctx or by a failure below
//     it, and by nothing else: it stays live after the task returns, so
//     the task may hand it to work that outlives it.
//  2. A task's panic is raised again on the calling goroutine, with its
//     original value, once every other task has stopped. A panic counts
//     as a failure at its index, so rule 1 decides between a panic and an
//     error.
//  3. With one worker (workers ≤ 1, or n = 1) it runs the tasks inline, in
//     order, and starts no goroutine. With more, the calling goroutine is
//     one of the workers.
//  4. While faultinject is armed it runs inline as in rule 3, so a seed
//     reproduces its fault sequence: the faults a seed draws depend on the
//     order of the hooks that draw them.
func Run(ctx context.Context, n, workers int, task func(ctx context.Context, i int) error) error {
	if workers > n {
		workers = n
	}
	if workers <= 1 || faultinject.Armed() {
		for i := range n {
			if err := task(ctx, i); err != nil {
				return err
			}
		}
		return nil
	}
	r := &run{ctx: ctx, task: task, failed: n, cancel: make([]context.CancelFunc, n)}
	var wg sync.WaitGroup
	wg.Add(workers - 1)
	for range workers - 1 {
		go func() {
			defer wg.Done()
			r.work()
		}()
	}
	r.work()
	wg.Wait()
	if r.panicVal != nil {
		panic(r.panicVal)
	}
	return r.err
}

// run is one fanned-out Run.
type run struct {
	ctx  context.Context
	task func(context.Context, int) error

	mu       sync.Mutex
	next     int                  // the next index to start
	failed   int                  // the lowest failing index; n while none has failed
	err      error                // the failing task's error
	panicVal any                  // or its panic value
	cancel   []context.CancelFunc // per started task
}

// work starts tasks in index order until none is left to start.
func (r *run) work() {
	for {
		r.mu.Lock()
		i := r.next
		if i >= r.failed {
			r.mu.Unlock()
			return
		}
		r.next++
		// Only a failure below i cancels this context; otherwise it is
		// released with r.ctx (a context that can never be canceled
		// registers nothing).
		ctx, cancel := context.WithCancel(r.ctx)
		r.cancel[i] = cancel
		r.mu.Unlock()

		if panicVal, err := r.call(ctx, i); err != nil || panicVal != nil {
			r.fail(i, err, panicVal)
		}
	}
}

// call runs task i, turning a panic into its value.
func (r *run) call(ctx context.Context, i int) (panicVal any, err error) {
	defer func() { panicVal = recover() }()
	return nil, r.task(ctx, i)
}

// fail records task i's failure. A failure below every earlier one becomes
// the run's, and cancels every started task after it.
func (r *run) fail(i int, err error, panicVal any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if i >= r.failed {
		return
	}
	r.failed, r.err, r.panicVal = i, err, panicVal
	for _, cancel := range r.cancel[i+1 : r.next] {
		cancel()
	}
}
