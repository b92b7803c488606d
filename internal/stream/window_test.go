package stream

import (
	"context"
	"errors"
	"testing"
	"testing/quick"

	"incbubbles/internal/eval"
	"incbubbles/internal/extract"
	"incbubbles/internal/failpoint"
	"incbubbles/internal/stats"
	"incbubbles/internal/vecmath"
	"incbubbles/internal/wal"
)

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{Dim: 0, Capacity: 100},
		{Dim: 2, Capacity: 5},
		{Dim: 2, Capacity: 100, Bubbles: 80},
		{Dim: 2, Capacity: 100, Bubbles: 1},
		{Dim: 2, Capacity: 100, Bubbles: 20, Warmup: 5},
	}
	for i, c := range bad {
		if _, err := NewWindow(c); err == nil {
			t.Errorf("bad config %d accepted: %+v", i, c)
		}
	}
	w, err := NewWindow(Config{Dim: 2, Capacity: 1000})
	if err != nil {
		t.Fatal(err)
	}
	cfg := w.Config()
	if cfg.Bubbles != 10 || cfg.FlushEvery != 50 || cfg.Warmup != 40 {
		t.Fatalf("defaults=%+v", cfg)
	}
}

func TestWarmupThenReady(t *testing.T) {
	w, err := NewWindow(Config{Dim: 2, Capacity: 500, Bubbles: 10, Warmup: 100, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRNG(1)
	for i := 0; i < 99; i++ {
		if err := w.Push(rng.GaussianPoint(vecmath.Point{0, 0}, 3), 0); err != nil {
			t.Fatal(err)
		}
		if w.Ready() {
			t.Fatalf("ready after %d points, warmup is 100", i+1)
		}
	}
	if err := w.Push(rng.GaussianPoint(vecmath.Point{0, 0}, 3), 0); err != nil {
		t.Fatal(err)
	}
	if !w.Ready() {
		t.Fatal("not ready after warmup")
	}
	if w.Summarizer() == nil || w.Summarizer().Set().Len() != 10 {
		t.Fatal("summarizer missing after warmup")
	}
	if w.Len() != 100 || w.Arrived() != 100 {
		t.Fatalf("Len=%d Arrived=%d", w.Len(), w.Arrived())
	}
}

func TestSlidingEviction(t *testing.T) {
	w, err := NewWindow(Config{Dim: 1, Capacity: 200, Bubbles: 8, Warmup: 50, FlushEvery: 25, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRNG(2)
	for i := 0; i < 1000; i++ {
		if err := w.Push(vecmath.Point{rng.Normal(0, 1)}, 0); err != nil {
			t.Fatal(err)
		}
		if w.Len() > 200 {
			t.Fatalf("window exceeded capacity: %d", w.Len())
		}
	}
	if w.Len() != 200 {
		t.Fatalf("steady-state Len=%d", w.Len())
	}
	if w.Arrived() != 1000 {
		t.Fatalf("Arrived=%d", w.Arrived())
	}
	// Flush the tail and verify ownership consistency.
	if _, err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if w.Pending() != 0 {
		t.Fatalf("Pending=%d after flush", w.Pending())
	}
	if w.Summarizer().Set().OwnedPoints() != w.Len() {
		t.Fatalf("owned=%d want %d", w.Summarizer().Set().OwnedPoints(), w.Len())
	}
	if err := w.Summarizer().Set().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestConceptDriftTracked(t *testing.T) {
	// The stream's distribution moves: the window summary must follow and
	// keep separating the two current clusters.
	w, err := NewWindow(Config{Dim: 2, Capacity: 2000, Bubbles: 40, FlushEvery: 100, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRNG(5)
	push := func(center vecmath.Point, label int, n int) {
		for i := 0; i < n; i++ {
			if err := w.Push(rng.GaussianPoint(center, 2), label); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Phase 1: clusters A and B.
	for i := 0; i < 2000; i++ {
		if i%2 == 0 {
			push(vecmath.Point{10, 10}, 0, 1)
		} else {
			push(vecmath.Point{60, 60}, 1, 1)
		}
	}
	// Phase 2: A vanishes from the stream; C appears elsewhere.
	for i := 0; i < 4000; i++ {
		if i%2 == 0 {
			push(vecmath.Point{60, 60}, 1, 1)
		} else {
			push(vecmath.Point{110, 10}, 2, 1)
		}
	}
	if _, err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	// Old cluster A has slid out entirely.
	if got := w.DB().LabelHistogram()[0]; got != 0 {
		t.Fatalf("stale points survive in window: %d", got)
	}
	f, err := eval.ClusteringFScore(w.DB(), w.Summarizer().Set(), 10, extract.Params{})
	if err != nil {
		t.Fatal(err)
	}
	if f < 0.9 {
		t.Fatalf("window clustering degraded under drift: F=%v", f)
	}
}

// Property: for any push/flush interleaving the window never exceeds
// capacity and, once ready, bubble population always equals window size
// after a flush.
func TestWindowInvariantsProperty(t *testing.T) {
	f := func(seed int64) bool {
		w, err := NewWindow(Config{Dim: 2, Capacity: 150, Bubbles: 8, Warmup: 40, FlushEvery: 10, Seed: seed})
		if err != nil {
			return false
		}
		rng := stats.NewRNG(seed)
		for i := 0; i < 500; i++ {
			if err := w.Push(rng.GaussianPoint(vecmath.Point{0, 0}, 10), 0); err != nil {
				return false
			}
			if w.Len() > 150 {
				return false
			}
		}
		if _, err := w.Flush(); err != nil {
			return false
		}
		if !w.Ready() {
			return false
		}
		total := 0
		for _, b := range w.Summarizer().Set().Bubbles() {
			total += b.N()
		}
		return total == w.Len() && w.Summarizer().Set().CheckInvariants() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

func TestFlushBeforeWarmupNoop(t *testing.T) {
	w, err := NewWindow(Config{Dim: 2, Capacity: 100, Bubbles: 5, Warmup: 50})
	if err != nil {
		t.Fatal(err)
	}
	stats, err := w.Flush()
	if err != nil || stats.Inserted != 0 {
		t.Fatalf("pre-warmup flush: %+v err=%v", stats, err)
	}
}

// TestDurableWindowResume pushes a stream through a durable window, kills
// it (abandons without Close), resumes, and checks the recovered window
// matches the durable prefix and keeps sliding correctly.
func TestDurableWindowResume(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{
		Dim: 2, Capacity: 300, Bubbles: 10, Warmup: 100, FlushEvery: 25, Seed: 3,
		Durability: &wal.Options{Dir: dir, CheckpointEvery: 2},
	}
	w, err := NewWindow(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRNG(4)
	for i := 0; i < 450; i++ {
		if err := w.Push(rng.GaussianPoint(vecmath.Point{0, 0}, 3), 0); err != nil {
			t.Fatalf("push %d: %v", i, err)
		}
	}
	if w.Log() == nil {
		t.Fatal("durable window has no log after warmup")
	}
	durableBatches := w.Summarizer().Batches()
	durableLen := w.Len() - w.Pending() // un-flushed pushes are lost by design
	_ = durableLen

	// Simulated kill: no Close, no final flush — only the write-behind
	// checkpoint in flight is waited out, so it cannot race the resume.
	if err := w.Log().WaitCheckpoint(); err != nil {
		t.Fatal(err)
	}
	r, err := Resume(cfg)
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	if r.Summarizer().Batches() != durableBatches {
		t.Fatalf("resumed at batch %d, want %d", r.Summarizer().Batches(), durableBatches)
	}
	if err := r.Summarizer().Set().CheckInvariants(); err != nil {
		t.Fatalf("recovered set: %v", err)
	}
	if r.Summarizer().Set().OwnedPoints() != r.Len() {
		t.Fatalf("owned=%d len=%d", r.Summarizer().Set().OwnedPoints(), r.Len())
	}
	// The recovered window keeps sliding: push enough to force evictions
	// through the reconstructed FIFO and flush.
	before := r.Len()
	for i := 0; i < 200; i++ {
		if err := r.Push(rng.GaussianPoint(vecmath.Point{1, 1}, 2), 1); err != nil {
			t.Fatalf("post-resume push %d: %v", i, err)
		}
	}
	if r.Len() > cfg.Capacity || r.Len() < before {
		t.Fatalf("window size %d after resume pushes", r.Len())
	}
	if err := r.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	// Close checkpointed everything: a second resume lands exactly there.
	r2, err := Resume(cfg)
	if err != nil {
		t.Fatalf("second resume: %v", err)
	}
	if r2.Replayed() != 0 {
		t.Fatalf("replayed %d batches after a clean Close", r2.Replayed())
	}
	if r2.Len() != r.Len() {
		t.Fatalf("len=%d want %d", r2.Len(), r.Len())
	}
	if err := r2.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestResumeWithoutState maps a missing directory to wal.ErrNoState so
// callers can fall back to NewWindow.
func TestResumeWithoutState(t *testing.T) {
	cfg := Config{Dim: 2, Capacity: 100, Durability: &wal.Options{Dir: t.TempDir()}}
	if _, err := Resume(cfg); !errors.Is(err, wal.ErrNoState) {
		t.Fatalf("want ErrNoState, got %v", err)
	}
	if _, err := Resume(Config{Dim: 2, Capacity: 100}); err == nil {
		t.Fatal("Resume without Durability accepted")
	}
}

// TestFlushErrorKeepsPendingForRetry injects a recoverable WAL append
// failure (nothing reached disk, log healthy): the buffered batch was
// neither logged nor applied, so it must stay pending — its points are
// already in the database, and dropping it would desynchronize the
// summary from the database permanently. A retry then absorbs it.
func TestFlushErrorKeepsPendingForRetry(t *testing.T) {
	reg := failpoint.New(11)
	cfg := Config{
		Dim: 2, Capacity: 300, Bubbles: 10, Warmup: 100, FlushEvery: 1 << 30, Seed: 5,
		Durability: &wal.Options{Dir: t.TempDir(), Failpoints: reg},
	}
	w, err := NewWindow(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRNG(6)
	for i := 0; i < 150; i++ {
		if err := w.Push(rng.GaussianPoint(vecmath.Point{0, 0}, 3), 0); err != nil {
			t.Fatalf("push %d: %v", i, err)
		}
	}
	n := w.Pending()
	if n == 0 {
		t.Fatal("nothing pending")
	}
	batches := w.Summarizer().Batches()
	reg.ArmError(wal.FailAppendWrite, 1, nil)
	if _, err := w.Flush(); !errors.Is(err, failpoint.ErrInjected) {
		t.Fatalf("want injected error, got %v", err)
	}
	if w.Log().Poisoned() != nil {
		t.Fatalf("recoverable append failure poisoned the log: %v", w.Log().Poisoned())
	}
	if w.Pending() != n {
		t.Fatalf("pending %d after recoverable flush failure, want %d kept for retry", w.Pending(), n)
	}
	if _, err := w.Flush(); err != nil {
		t.Fatalf("retry flush: %v", err)
	}
	if w.Pending() != 0 {
		t.Fatalf("pending %d after successful retry", w.Pending())
	}
	if got := w.Summarizer().Batches(); got != batches+1 {
		t.Fatalf("batches=%d want %d", got, batches+1)
	}
	// Summary and database agree again: every windowed point is owned.
	if owned := w.Summarizer().Set().OwnedPoints(); owned != w.Len() {
		t.Fatalf("owned=%d len=%d after retry", owned, w.Len())
	}
	if err := w.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
}

// TestFlushContextCancelKeepsPending cancels a flush: the buffer must
// survive untouched and a later flush applies it.
func TestFlushContextCancelKeepsPending(t *testing.T) {
	w, err := NewWindow(Config{Dim: 2, Capacity: 300, Bubbles: 10, Warmup: 100, FlushEvery: 1 << 30, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRNG(6)
	for i := 0; i < 150; i++ {
		if err := w.Push(rng.GaussianPoint(vecmath.Point{0, 0}, 3), 0); err != nil {
			t.Fatal(err)
		}
	}
	if w.Pending() == 0 {
		t.Fatal("nothing pending")
	}
	n := w.Pending()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := w.FlushContext(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if w.Pending() != n {
		t.Fatalf("pending %d after cancelled flush, want %d", w.Pending(), n)
	}
	if _, err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if w.Pending() != 0 {
		t.Fatal("flush left pending updates")
	}
}
