// Package parallel is the small worker-pool library behind every
// concurrent hot path in the repository: the experiment harness runs
// independent repetitions through ForEach, and the two-phase batch
// assignment pipeline (core.Summarizer, bubble.Build, the OPTICS bubble
// space) fans read-only closest-seed searches out with ForEachWorker,
// giving each worker private scratch state that is merged back
// deterministically once the fan-out completes.
//
// Every fan-out takes a context and stops dispatching new items once it
// is cancelled. Cancellation is cooperative and per-item: running
// invocations finish, so callers that mutate shared state only in a
// serial phase after the fan-out (the repository's two-phase pattern)
// get all-or-nothing batches for free.
package parallel

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// Workers resolves a requested worker count for n items: w ≤ 0 selects
// GOMAXPROCS, and the result is capped to n (at most one worker per item)
// but never falls below 1.
func Workers(w, n int) int {
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// ChunkRange returns the half-open range [lo,hi) of the w-th of `workers`
// contiguous chunks of [0,n). Sizes differ by at most one, with the larger
// chunks first; boundaries depend only on (n, workers), never on
// scheduling, which is what lets chunked computations produce identical
// results for every worker count.
func ChunkRange(n, workers, w int) (lo, hi int) {
	size, rem := n/workers, n%workers
	lo = w * size
	if w < rem {
		lo += w
	} else {
		lo += rem
	}
	hi = lo + size
	if w < rem {
		hi++
	}
	return lo, hi
}

// PanicError reports a panic recovered from a worker function. The pool
// converts panics into errors instead of tearing down the process so that a
// fan-out over thousands of items fails like any other item error.
type PanicError struct {
	Index int    // index of the work item that panicked
	Value any    // the recovered panic value
	Stack []byte // stack captured at the recovery point
}

// Error implements the error interface.
func (e *PanicError) Error() string {
	return fmt.Sprintf("parallel: worker panicked on item %d: %v", e.Index, e.Value)
}

// call invokes fn(i), converting a panic into a *PanicError.
func call(i int, fn func(int) error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &PanicError{Index: i, Value: r, Stack: debug.Stack()}
		}
	}()
	return fn(i)
}

// ForEach invokes fn(i) for every i in [0,n), using at most workers
// goroutines (workers ≤ 0 selects GOMAXPROCS). The first failure cancels
// early: indices not yet handed to a worker are skipped, running
// invocations finish. ForEach waits for all started invocations and returns
// the first observed error in index order; a panicking fn surfaces as a
// *PanicError. Cancelling ctx also stops dispatch, and ctx.Err() is
// returned only when no item itself failed. fn must be safe to call
// concurrently for distinct i.
func ForEach(ctx context.Context, n, workers int, fn func(i int) error) error {
	if n <= 0 {
		return ctx.Err()
	}
	workers = Workers(workers, n)
	if workers == 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := call(i, fn); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, n)
	var failed atomic.Bool
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				if err := call(i, fn); err != nil {
					errs[i] = err
					failed.Store(true)
				}
			}
		}()
	}
	cancelled := false
	for i := 0; i < n && !failed.Load(); i++ {
		if ctx.Err() != nil {
			cancelled = true
			break
		}
		next <- i
	}
	close(next)
	//lint:allow ctxflow workers observe ctx and drain promptly after cancellation; Wait only joins already-stopping goroutines
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	if cancelled {
		return ctx.Err()
	}
	return nil
}

// ForEachWorker partitions [0,n) into contiguous chunks (ChunkRange), one
// per worker. Worker w first obtains private state from setup(w), then
// receives fn(state, i) for every index i of its chunk in ascending order.
// After all workers finish, merge(w, state) — if non-nil — runs serially in
// ascending worker order: the deterministic reduction point for per-worker
// scratch state such as distance tallies, RNGs and candidate buffers.
//
// Because chunk boundaries depend only on (n, workers) and merges run in
// worker order, a computation whose per-item work is independent of the
// worker that executes it produces identical results and identical merged
// totals for every worker count.
//
// Errors (panics included, reported as *PanicError) cancel early: the
// failing worker abandons the rest of its chunk and the other workers stop
// at their next index. Cancelling ctx stops every worker at its next index
// the same way. State from every worker whose setup succeeded is still
// merged, in order, so externally visible tallies stay exact even on the
// error path. The error of the lowest-indexed failing item wins; ctx.Err()
// is reported only when no item failed, and merge errors only when neither
// did.
func ForEachWorker[S any](ctx context.Context, n, workers int, setup func(w int) S, fn func(state S, i int) error, merge func(w int, state S) error) error {
	if n <= 0 {
		return ctx.Err()
	}
	workers = Workers(workers, n)
	states := make([]S, workers)
	ready := make([]bool, workers) // setup succeeded; state is mergeable
	errs := make([]error, workers) // lowest-index error of each chunk
	var failed atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo, hi := ChunkRange(n, workers, w)
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			if err := call(lo, func(int) error {
				states[w] = setup(w)
				return nil
			}); err != nil {
				errs[w] = err
				failed.Store(true)
				return
			}
			ready[w] = true
			for i := lo; i < hi && !failed.Load() && ctx.Err() == nil; i++ {
				if err := call(i, func(i int) error { return fn(states[w], i) }); err != nil {
					errs[w] = err
					failed.Store(true)
					return
				}
			}
		}(w, lo, hi)
	}
	//lint:allow ctxflow workers check ctx.Err() per item and drain promptly after cancellation; Wait only joins already-stopping goroutines
	wg.Wait()
	// Chunk w covers lower indices than chunk w+1, so the first per-worker
	// error in worker order is the lowest-indexed failing item.
	var firstErr error
	for _, err := range errs {
		if err != nil {
			firstErr = err
			break
		}
	}
	if firstErr == nil {
		firstErr = ctx.Err()
	}
	for w := 0; w < workers; w++ {
		if merge == nil || !ready[w] {
			continue
		}
		if err := merge(w, states[w]); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}
