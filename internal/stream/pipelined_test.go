package stream

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"

	"incbubbles/internal/failpoint"
	"incbubbles/internal/stats"
	"incbubbles/internal/vecmath"
	"incbubbles/internal/wal"
)

// These tests keep the pipelined window's contracts now that every
// durable window runs the one serial ingest path, whose only overlapped
// stage is the write-behind cadence checkpoint. Where a contract compared
// the removed pipelined window with the serial one, the pipelined side is
// kept as what it produced while it existed: the SHA-256 of its final
// wal.Fingerprint, or the directory it left behind. Like the experiments
// golden file, those records are tied to the floating-point semantics of
// the reference architecture.

// pipeStreamCfg is the configuration the pipelined window ran with, minus
// its scheduler and group commit: a write-behind checkpoint every three
// flushes.
func pipeStreamCfg(dir string) Config {
	return Config{
		Dim: 2, Capacity: 300, Bubbles: 10, Warmup: 100, FlushEvery: 30, Seed: 4,
		Durability: &wal.Options{Dir: dir, CheckpointEvery: 3, KeepCheckpoints: 2},
	}
}

// drive feeds n deterministic points through the window; every
// FlushEvery pushes flush on their own.
func drive(t *testing.T, w *Window, n int, seed int64) {
	t.Helper()
	rng := stats.NewRNG(seed)
	for i := 0; i < n; i++ {
		c := vecmath.Point{float64(i % 3), float64(i % 5)}
		if err := w.Push(rng.GaussianPoint(c, 2), i%3); err != nil {
			t.Fatalf("push %d: %v", i, err)
		}
	}
}

func windowFingerprint(t *testing.T, w *Window) []byte {
	t.Helper()
	fp, err := wal.Fingerprint(w.Summarizer())
	if err != nil {
		t.Fatalf("fingerprint: %v", err)
	}
	return fp
}

// checkPipelinedDigest compares the window's state with the digest the
// pipelined window reached on the identical call sequence.
func checkPipelinedDigest(t *testing.T, w *Window, batches int, digest string) {
	t.Helper()
	if got := w.Summarizer().Batches(); got != batches {
		t.Fatalf("batch counts diverge: serial %d, pipelined %d", got, batches)
	}
	sum := sha256.Sum256(windowFingerprint(t, w))
	if got := hex.EncodeToString(sum[:]); got != digest {
		t.Fatalf("fingerprint digest %s, pipelined window reached %s", got, digest)
	}
}

// TestPipelinedWindowMatchesSerialDurable feeds the stream the pipelined
// window once absorbed into a serial durable window; the summaries must
// be bit-identical (the paper's determinism contract, eviction deletes
// included).
func TestPipelinedWindowMatchesSerialDurable(t *testing.T) {
	w, err := NewWindow(pipeStreamCfg(t.TempDir()))
	if err != nil {
		t.Fatalf("window: %v", err)
	}
	drive(t, w, 800, 9)
	if _, err := w.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	checkPipelinedDigest(t, w, 40, "ce56a597b47976a412539bb511d08206f3a65eae6cca60058e3050b5dacf6cff")
	if err := w.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
}

// TestFlushContextPipelinedCancelRetryable pins the cancellation contract
// on a durable window with write-behind checkpoints: a cancelled flush
// returns the cancellation and keeps the batch pending (neither lost nor
// duplicated), the retry applies it exactly once, and the run converges
// to the state the pipelined window reached on the same cancel-then-retry
// sequence.
func TestFlushContextPipelinedCancelRetryable(t *testing.T) {
	w, err := NewWindow(pipeStreamCfg(t.TempDir()))
	if err != nil {
		t.Fatalf("window: %v", err)
	}
	drive(t, w, 110, 9) // warm up, leave 10 updates buffered
	if !w.Ready() || w.Pending() == 0 {
		t.Fatalf("fixture: ready=%v pending=%d, want buffered updates", w.Ready(), w.Pending())
	}
	buffered := w.Pending()
	before := w.Summarizer().Batches()
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := w.FlushContext(cancelled); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled flush: got %v, want context.Canceled", err)
	}
	if got := w.Pending(); got != buffered {
		t.Fatalf("pending after cancelled flush: %d, want %d (batch must stay retryable)", got, buffered)
	}
	if w.Log().Poisoned() != nil {
		t.Fatalf("cancellation poisoned the log: %v", w.Log().Poisoned())
	}
	if _, err := w.FlushContext(context.Background()); err != nil {
		t.Fatalf("retry flush: %v", err)
	}
	if w.Pending() != 0 {
		t.Fatalf("pending after retry: %d, want 0", w.Pending())
	}
	if got := w.Summarizer().Batches(); got != before+1 {
		t.Fatalf("batch applied %d times, want once", got-before)
	}
	drive(t, w, 100, 13)
	if _, err := w.Flush(); err != nil {
		t.Fatalf("final flush: %v", err)
	}
	checkPipelinedDigest(t, w, 5, "a18ee4b56f36a6b4f31a74a9dfbfa6d671f0cdb906eae32de889af6b04baaa63")
	if err := w.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
}

// TestPipelinedWindowCheckpointFailureDoesNotRequeue drives identical
// streams through two durable windows, one of whose write-behind
// checkpoint write fails once (a single attempt, so the failure is not
// absorbed by retry): the flush that collects the failure surfaces it,
// but the batch it rode on is committed — it must not return to the
// pending buffer, the log stays healthy, and the run converges to the
// fault-free fingerprint.
func TestPipelinedWindowCheckpointFailureDoesNotRequeue(t *testing.T) {
	run := func(t *testing.T, faulty bool) *Window {
		cfg := pipeStreamCfg(t.TempDir())
		reg := failpoint.New(11)
		cfg.Durability.Failpoints = reg
		w, err := NewWindow(cfg)
		if err != nil {
			t.Fatalf("window: %v", err)
		}
		drive(t, w, 110, 9)
		if faulty {
			reg.ArmError(wal.FailCkptWrite, 1, nil)
		}
		sawCkptErr := false
		for i := 0; i < 6; i++ {
			drive(t, w, 10, int64(60+i))
			if _, err := w.FlushContext(context.Background()); err != nil {
				if !faulty || !errors.Is(err, failpoint.ErrInjected) {
					t.Fatalf("flush %d: %v", i, err)
				}
				if got := w.Pending(); got != 0 {
					t.Fatalf("flush %d: applied batch requeued after checkpoint failure, pending=%d", i, got)
				}
				sawCkptErr = true
			}
		}
		if faulty && !sawCkptErr {
			t.Fatal("armed checkpoint failpoint never surfaced through FlushContext")
		}
		if w.Log().Poisoned() != nil {
			t.Fatalf("log poisoned by checkpoint failure: %v", w.Log().Poisoned())
		}
		return w
	}
	clean := run(t, false)
	faulty := run(t, true)
	if cb, fb := clean.Summarizer().Batches(), faulty.Summarizer().Batches(); cb != fb {
		t.Fatalf("batch counts diverge: fault-free %d, faulty %d", cb, fb)
	}
	if !bytes.Equal(windowFingerprint(t, clean), windowFingerprint(t, faulty)) {
		t.Fatal("checkpoint-failure run diverges from fault-free durable window")
	}
	if err := clean.Close(); err != nil {
		t.Fatalf("fault-free close: %v", err)
	}
	if err := faulty.Close(); err != nil {
		t.Fatalf("faulty close: %v", err)
	}
}

// TestPipelinedWindowCleanWalFailureRefrontsBatch injects a healthy WAL
// append error on the batch after a write-behind checkpoint was started:
// the flush fails, the batch stays at the front of the pending buffer
// with later pushes queued behind it, and a plain retry absorbs both with
// the log unpoisoned.
func TestPipelinedWindowCleanWalFailureRefrontsBatch(t *testing.T) {
	reg := failpoint.New(31)
	cfg := pipeStreamCfg(t.TempDir())
	cfg.Durability.Failpoints = reg
	w, err := NewWindow(cfg)
	if err != nil {
		t.Fatalf("window: %v", err)
	}
	drive(t, w, 200, 9) // three auto-flushes — the third starts a checkpoint — and 10 buffered
	if got := w.Summarizer().Batches(); got != 3 {
		t.Fatalf("fixture: %d batches, want 3", got)
	}
	buffered := w.Pending()
	if buffered == 0 {
		t.Fatal("fixture: no buffered updates")
	}
	front := w.pending[0]
	before := w.Summarizer().Batches()
	reg.ArmError(wal.FailAppendWrite, 1, nil)
	if _, err := w.FlushContext(context.Background()); !errors.Is(err, failpoint.ErrInjected) {
		t.Fatalf("flush: got %v, want injected error", err)
	}
	if w.Log().Poisoned() != nil {
		t.Fatalf("log poisoned by clean failure: %v", w.Log().Poisoned())
	}
	if got := w.Pending(); got != buffered {
		t.Fatalf("pending after clean failure: %d, want %d", got, buffered)
	}
	drive(t, w, 5, 17)
	if got := w.Pending(); got != buffered+5 || w.pending[0].Op != front.Op || w.pending[0].ID != front.ID {
		t.Fatalf("pending %d (front %v %d) after later pushes, want %d behind the failed batch (front %v %d)",
			got, w.pending[0].Op, w.pending[0].ID, buffered+5, front.Op, front.ID)
	}
	if _, err := w.FlushContext(context.Background()); err != nil {
		t.Fatalf("retry: %v", err)
	}
	if w.Pending() != 0 {
		t.Fatalf("pending after retry: %d, want 0", w.Pending())
	}
	if got := w.Summarizer().Batches(); got != before+1 {
		t.Fatalf("retry applied %d batches, want 1", got-before)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
}

// TestPipelinedWindowResume resumes the directory a pipelined window left
// when it was closed mid-stream (testdata/pipelined-window-400: 400
// points, then Close) and finishes the stream: recovery must reconstruct
// a window that keeps absorbing updates and stays bit-identical to a
// serial window that was closed and resumed at the same point.
func TestPipelinedWindowResume(t *testing.T) {
	finish := func(t *testing.T, dir string) *Window {
		r, err := Resume(pipeStreamCfg(dir))
		if err != nil {
			t.Fatalf("resume: %v", err)
		}
		if !r.Ready() || r.Log() == nil {
			t.Fatalf("resumed window not durable: ready=%v", r.Ready())
		}
		drive(t, r, 200, 13)
		if _, err := r.Flush(); err != nil {
			t.Fatalf("flush: %v", err)
		}
		if err := r.Summarizer().Set().CheckInvariants(); err != nil {
			t.Fatalf("resumed set: %v", err)
		}
		return r
	}

	piped := t.TempDir()
	src := filepath.Join("testdata", "pipelined-window-400")
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatalf("fixture: %v", err)
	}
	for _, e := range entries {
		if err := copyFile(filepath.Join(src, e.Name()), filepath.Join(piped, e.Name())); err != nil {
			t.Fatal(err)
		}
	}
	fromPiped := finish(t, piped)

	serial := t.TempDir()
	w, err := NewWindow(pipeStreamCfg(serial))
	if err != nil {
		t.Fatalf("window: %v", err)
	}
	drive(t, w, 400, 9)
	if err := w.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	fromSerial := finish(t, serial)

	if pb, sb := fromPiped.Summarizer().Batches(), fromSerial.Summarizer().Batches(); pb != sb {
		t.Fatalf("batch counts diverge: resumed pipelined %d, resumed serial %d", pb, sb)
	}
	if !bytes.Equal(windowFingerprint(t, fromPiped), windowFingerprint(t, fromSerial)) {
		t.Fatal("resumed pipelined window differs from resumed serial window")
	}
	if err := fromPiped.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if err := fromSerial.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}
