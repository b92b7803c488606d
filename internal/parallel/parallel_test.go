package parallel

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
)

func TestForEachRunsAll(t *testing.T) {
	var count int64
	seen := make([]int64, 100)
	err := ForEach(context.Background(), 100, 8, func(i int) error {
		atomic.AddInt64(&count, 1)
		atomic.AddInt64(&seen[i], 1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if count != 100 {
		t.Fatalf("count=%d", count)
	}
	for i, s := range seen {
		if s != 1 {
			t.Fatalf("index %d visited %d times", i, s)
		}
	}
}

func TestForEachEmptyAndSerial(t *testing.T) {
	if err := ForEach(context.Background(), 0, 4, func(int) error { return errors.New("never") }); err != nil {
		t.Fatal(err)
	}
	order := []int{}
	err := ForEach(context.Background(), 5, 1, func(i int) error {
		order = append(order, i) // safe: workers=1 is serial
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("serial order broken: %v", order)
		}
	}
}

func TestForEachFirstErrorByIndex(t *testing.T) {
	e3 := errors.New("e3")
	e7 := errors.New("e7")
	err := ForEach(context.Background(), 10, 4, func(i int) error {
		switch i {
		case 3:
			return e3
		case 7:
			return e7
		}
		return nil
	})
	if err != e3 {
		t.Fatalf("err=%v want e3 (first in index order)", err)
	}
}

func TestForEachSerialStopsEarly(t *testing.T) {
	ran := 0
	boom := errors.New("boom")
	err := ForEach(context.Background(), 10, 1, func(i int) error {
		ran++
		if i == 2 {
			return boom
		}
		return nil
	})
	if err != boom || ran != 3 {
		t.Fatalf("ran=%d err=%v", ran, err)
	}
}

func TestForEachDefaultWorkers(t *testing.T) {
	var count int64
	if err := ForEach(context.Background(), 50, 0, func(int) error {
		atomic.AddInt64(&count, 1)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if count != 50 {
		t.Fatalf("count=%d", count)
	}
}

func TestForEachPanicRecovered(t *testing.T) {
	err := ForEach(context.Background(), 20, 4, func(i int) error {
		if i == 11 {
			panic("boom")
		}
		return nil
	})
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err=%v want *PanicError", err)
	}
	if pe.Index != 11 || pe.Value != "boom" || len(pe.Stack) == 0 {
		t.Fatalf("panic error=%+v", pe)
	}
}

func TestForEachSerialPanicRecovered(t *testing.T) {
	err := ForEach(context.Background(), 3, 1, func(i int) error {
		if i == 1 {
			panic(42)
		}
		return nil
	})
	var pe *PanicError
	if !errors.As(err, &pe) || pe.Index != 1 {
		t.Fatalf("err=%v", err)
	}
}

func TestForEachEarlyCancel(t *testing.T) {
	var ran int64
	boom := errors.New("boom")
	err := ForEach(context.Background(), 1000, 4, func(i int) error {
		atomic.AddInt64(&ran, 1)
		if i == 0 {
			return boom
		}
		time.Sleep(time.Millisecond)
		return nil
	})
	if err != boom {
		t.Fatalf("err=%v", err)
	}
	if got := atomic.LoadInt64(&ran); got >= 1000 {
		t.Fatalf("no early cancel: ran all %d items", got)
	}
}

func TestChunkRangeCoversAll(t *testing.T) {
	for n := 0; n <= 40; n++ {
		for workers := 1; workers <= 9; workers++ {
			want := 0
			for w := 0; w < workers; w++ {
				lo, hi := ChunkRange(n, workers, w)
				if lo != want {
					t.Fatalf("n=%d workers=%d w=%d lo=%d want %d", n, workers, w, lo, want)
				}
				if size := hi - lo; size < n/workers || size > n/workers+1 {
					t.Fatalf("n=%d workers=%d w=%d uneven size %d", n, workers, w, size)
				}
				want = hi
			}
			if want != n {
				t.Fatalf("n=%d workers=%d chunks end at %d", n, workers, want)
			}
		}
	}
}

func TestWorkersResolve(t *testing.T) {
	if got := Workers(0, 100); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("Workers(0,100)=%d", got)
	}
	if got := Workers(-3, 100); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("Workers(-3,100)=%d", got)
	}
	if got := Workers(8, 3); got != 3 {
		t.Fatalf("oversubscribed not capped: %d", got)
	}
	if got := Workers(5, 0); got != 1 {
		t.Fatalf("Workers(5,0)=%d", got)
	}
}

// TestForEachWorkerVisitsChunks checks that every index is visited exactly
// once, by the worker that owns its chunk, in ascending order within the
// chunk.
func TestForEachWorkerVisitsChunks(t *testing.T) {
	const n, workers = 103, 7
	owner := make([]int64, n)
	last := make([]int, workers)
	err := ForEachWorker(context.Background(), n, workers,
		func(w int) int { last[w] = -1; return w },
		func(w int, i int) error {
			atomic.AddInt64(&owner[i], int64(w+1))
			lo, hi := ChunkRange(n, workers, w)
			if i < lo || i >= hi {
				return fmt.Errorf("worker %d got index %d outside [%d,%d)", w, i, lo, hi)
			}
			if i <= last[w] {
				return fmt.Errorf("worker %d visited %d after %d", w, i, last[w])
			}
			last[w] = i
			return nil
		},
		nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, o := range owner {
		w := int(o) - 1
		lo, hi := ChunkRange(n, workers, w)
		if i < lo || i >= hi {
			t.Fatalf("index %d owned by worker %d (chunk [%d,%d)) or visited twice", i, w, lo, hi)
		}
	}
}

// TestForEachWorkerMergeOrdering checks the determinism contract of the
// reduction: merges run serially, after all item work, in ascending worker
// order.
func TestForEachWorkerMergeOrdering(t *testing.T) {
	const n, workers = 64, 5
	var itemsDone int64
	type state struct{ count int }
	var merged []int
	err := ForEachWorker(context.Background(), n, workers,
		func(int) *state { return &state{} },
		func(s *state, _ int) error {
			atomic.AddInt64(&itemsDone, 1)
			s.count++
			return nil
		},
		func(w int, s *state) error {
			if got := atomic.LoadInt64(&itemsDone); got != n {
				return fmt.Errorf("merge of worker %d ran before all items (%d/%d)", w, got, n)
			}
			lo, hi := ChunkRange(n, workers, w)
			if s.count != hi-lo {
				return fmt.Errorf("worker %d state has %d items, chunk is %d", w, s.count, hi-lo)
			}
			merged = append(merged, w) // serial by contract
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if len(merged) != workers {
		t.Fatalf("merged %v", merged)
	}
	for w, got := range merged {
		if got != w {
			t.Fatalf("merge order %v not ascending", merged)
		}
	}
}

func TestForEachWorkerEmptySerialOversubscribed(t *testing.T) {
	// Empty: neither setup nor merge must run.
	if err := ForEachWorker(context.Background(), 0, 4,
		func(int) int { t.Error("setup on empty input"); return 0 },
		func(int, int) error { return errors.New("never") },
		func(int, int) error { t.Error("merge on empty input"); return nil },
	); err != nil {
		t.Fatal(err)
	}
	// Serial (workers=1): indices in ascending order.
	var order []int
	if err := ForEachWorker(context.Background(), 9, 1,
		func(int) int { return 0 },
		func(_ int, i int) error { order = append(order, i); return nil },
		nil,
	); err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("serial order %v", order)
		}
	}
	// Oversubscribed: more workers than items — setup must run at most n
	// times and every item exactly once.
	var setups, items int64
	if err := ForEachWorker(context.Background(), 3, 16,
		func(int) int { atomic.AddInt64(&setups, 1); return 0 },
		func(int, int) error { atomic.AddInt64(&items, 1); return nil },
		nil,
	); err != nil {
		t.Fatal(err)
	}
	if setups != 3 || items != 3 {
		t.Fatalf("setups=%d items=%d", setups, items)
	}
}

// TestForEachWorkerErrorStillMerges checks the exactness contract on the
// error path: workers that were set up are merged even when an item fails,
// and the lowest-indexed failing item's error is returned.
func TestForEachWorkerErrorStillMerges(t *testing.T) {
	const n, workers = 40, 4
	e1 := errors.New("e1")
	var merged int64
	err := ForEachWorker(context.Background(), n, workers,
		func(int) int { return 0 },
		func(_ int, i int) error {
			if i == 13 || i == 27 {
				return e1
			}
			return nil
		},
		func(int, int) error { atomic.AddInt64(&merged, 1); return nil })
	if err != e1 {
		t.Fatalf("err=%v", err)
	}
	if merged != workers {
		t.Fatalf("merged %d of %d workers", merged, workers)
	}
}

func TestForEachWorkerPanicInSetupAndFn(t *testing.T) {
	var pe *PanicError
	err := ForEachWorker(context.Background(), 10, 2,
		func(w int) int {
			if w == 1 {
				panic("setup")
			}
			return 0
		},
		func(int, int) error { return nil },
		nil)
	if !errors.As(err, &pe) || pe.Value != "setup" {
		t.Fatalf("err=%v", err)
	}
	err = ForEachWorker(context.Background(), 10, 2,
		func(int) int { return 0 },
		func(_ int, i int) error {
			if i == 7 {
				panic("item")
			}
			return nil
		},
		nil)
	if !errors.As(err, &pe) || pe.Value != "item" || pe.Index != 7 {
		t.Fatalf("err=%v", err)
	}
}

func TestForEachWorkerMergeError(t *testing.T) {
	boom := errors.New("merge boom")
	err := ForEachWorker(context.Background(), 10, 2,
		func(int) int { return 0 },
		func(int, int) error { return nil },
		func(w int, _ int) error {
			if w == 1 {
				return boom
			}
			return nil
		})
	if err != boom {
		t.Fatalf("err=%v", err)
	}
}

// Property: all indices visited exactly once regardless of worker count.
func TestForEachProperty(t *testing.T) {
	f := func(rawN, rawW uint8) bool {
		n := int(rawN % 64)
		w := int(rawW%8) + 1
		visits := make([]int64, n)
		if err := ForEach(context.Background(), n, w, func(i int) error {
			atomic.AddInt64(&visits[i], 1)
			return nil
		}); err != nil {
			return false
		}
		for _, v := range visits {
			if v != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestForEachCancelledBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var ran int64
	err := ForEach(ctx, 100, 4, func(int) error {
		atomic.AddInt64(&ran, 1)
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err=%v want context.Canceled", err)
	}
	if ran != 0 {
		t.Fatalf("ran %d items under a cancelled context", ran)
	}
}

func TestForEachCancelMidRun(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var ran int64
	err := ForEach(ctx, 1000, 4, func(i int) error {
		if atomic.AddInt64(&ran, 1) == 10 {
			cancel()
		}
		time.Sleep(100 * time.Microsecond)
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err=%v want context.Canceled", err)
	}
	if got := atomic.LoadInt64(&ran); got >= 1000 {
		t.Fatalf("cancellation did not stop dispatch: ran all %d items", got)
	}
}

// Item errors outrank cancellation so callers never mistake a real failure
// for a clean cancel.
func TestForEachItemErrorBeatsCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	boom := errors.New("boom")
	err := ForEach(ctx, 100, 1, func(i int) error {
		if i == 5 {
			cancel()
			return boom
		}
		return nil
	})
	if err != boom {
		t.Fatalf("err=%v want item error", err)
	}
}

func TestForEachWorkerCancelStillMerges(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var merged int64
	err := ForEachWorker(ctx, 400, 4,
		func(int) int { return 0 },
		func(_ int, i int) error {
			if i == 3 {
				cancel()
			}
			time.Sleep(100 * time.Microsecond)
			return nil
		},
		func(int, int) error { atomic.AddInt64(&merged, 1); return nil })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err=%v want context.Canceled", err)
	}
	if merged == 0 {
		t.Fatal("no worker state merged after cancellation")
	}
}
