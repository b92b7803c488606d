package wal

import (
	"bytes"
	"context"
	"errors"
	"testing"
	"time"

	"incbubbles/internal/dataset"
	"incbubbles/internal/failpoint"
	"incbubbles/internal/retry"
	"incbubbles/internal/telemetry"
)

// noSleep is the retry sleep seam for tests: schedules are pinned by
// the retry package's own suite, so WAL tests skip the waiting.
func noSleep(context.Context, time.Duration) error { return nil }

// TestNoSpaceMatrix pins the disk-full semantics cell by cell:
// append-ENOSPC is fail-stop (the log poisons, even with zero bytes
// written, and recovery converges back to the oracle), while
// checkpoint-ENOSPC — on the temp write or the rename — is retryable:
// the run keeps applying batches, no acked batch is ever dropped, and
// the final state is bit-identical to the uninterrupted run.
func TestNoSpaceMatrix(t *testing.T) {
	f := makeFixture(t, 400, 8)
	walBase := Options{CheckpointEvery: 2, KeepCheckpoints: 2}
	want := runAll(t, f, t.TempDir(), walBase)

	cases := []struct {
		name  string
		arm   func(reg *failpoint.Registry)
		fatal bool // append semantics: the run dies poisoned
	}{
		{"append/error/hit1", func(r *failpoint.Registry) { r.ArmError(FailAppendNoSpace, 1, failpoint.ErrNoSpace) }, true},
		{"append/error/hit2", func(r *failpoint.Registry) { r.ArmError(FailAppendNoSpace, 2, failpoint.ErrNoSpace) }, true},
		{"append/torn/hit1", func(r *failpoint.Registry) { r.ArmTornError(FailAppendNoSpace, 1, nil) }, true},
		{"append/torn/hit2", func(r *failpoint.Registry) { r.ArmTornError(FailAppendNoSpace, 2, nil) }, true},
		{"ckpt/error/hit1", func(r *failpoint.Registry) { r.ArmError(FailCheckpointNoSpace, 1, failpoint.ErrNoSpace) }, false},
		{"ckpt/torn/hit1", func(r *failpoint.Registry) { r.ArmTornError(FailCheckpointNoSpace, 1, nil) }, false},
		{"ckpt/rename/hit1", func(r *failpoint.Registry) { r.ArmError(FailCkptRename, 1, failpoint.ErrNoSpace) }, false},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			db := f.initial.Clone()
			reg := failpoint.New(7)
			opts := coreOpts()
			opts.Failpoints = reg
			walOpts := walBase.withDir(dir)
			walOpts.Failpoints = reg
			s, l, err := New(db, opts, walOpts)
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			// Arm only after construction so the initial checkpoint's
			// evaluations don't consume the hit count.
			tc.arm(reg)

			var injected error
			var killedBatch dataset.Batch
			applied := 0
			for i, b := range f.batches {
				ab, err := applyToDB(db, b)
				if err != nil {
					t.Fatalf("batch %d apply: %v", i, err)
				}
				if _, err := s.ApplyBatchContext(context.Background(), ab); err != nil {
					injected = err
					killedBatch = ab
					if tc.fatal {
						break // simulated kill: abandon everything
					}
					// Retryable checkpoint failure: the batch itself is
					// applied and durable; keep ingesting.
					if !errors.Is(err, failpoint.ErrNoSpace) {
						t.Fatalf("batch %d: %v, want ENOSPC", i, err)
					}
					if l.Poisoned() != nil {
						t.Fatalf("checkpoint ENOSPC poisoned the log: %v", l.Poisoned())
					}
				}
				applied++
			}
			if injected == nil {
				t.Fatal("armed ENOSPC failpoint never fired")
			}
			// No write-behind checkpoint may race the resume below.
			_ = l.WaitCheckpoint()

			if tc.fatal {
				if !errors.Is(injected, failpoint.ErrNoSpace) {
					t.Fatalf("append died with %v, want ENOSPC", injected)
				}
				if perr := l.Poisoned(); perr == nil || !errors.Is(perr, ErrPoisoned) {
					t.Fatalf("append ENOSPC did not poison the log (poisoned=%v)", perr)
				}
				// Fail-stop: the poisoned log refuses further appends (the
				// dying batch's DB image is already in place, so re-offer
				// the same applied batch).
				if _, err := s.ApplyBatchContext(context.Background(), killedBatch); !errors.Is(err, ErrPoisoned) {
					t.Fatalf("poisoned log accepted an append (err=%v)", err)
				}
			} else {
				if applied != len(f.batches) {
					t.Fatalf("retryable checkpoint failure stopped ingest at %d/%d", applied, len(f.batches))
				}
				if got := fingerprint(t, s); !bytes.Equal(got, want) {
					t.Fatal("run with checkpoint ENOSPC differs from uninterrupted run")
				}
			}

			// Recovery (fatal cells) / restart (retryable cells) converges
			// to the oracle: resume from disk, finish any unapplied
			// batches, compare fingerprints. For the retryable cells this
			// doubles as the no-acked-batch-dropped proof — every applied
			// batch must come back from the checkpoint + WAL suffix.
			st, err := Resume(coreOpts(), walBase.withDir(dir))
			if err != nil {
				t.Fatalf("resume: %v", err)
			}
			if !tc.fatal && st.Batches != len(f.batches) {
				t.Fatalf("restart lost acked batches: resumed at %d, want %d", st.Batches, len(f.batches))
			}
			for i := st.Batches; i < len(f.batches); i++ {
				ab, err := applyToDB(st.DB, f.batches[i])
				if err != nil {
					t.Fatalf("batch %d apply: %v", i, err)
				}
				if _, err := st.Summarizer.ApplyBatchContext(context.Background(), ab); err != nil {
					t.Fatalf("batch %d: %v", i, err)
				}
			}
			if got := fingerprint(t, st.Summarizer); !bytes.Equal(got, want) {
				t.Fatal("recovered run differs from uninterrupted run")
			}
			if err := st.Log.Close(); err != nil {
				t.Fatalf("close: %v", err)
			}
		})
	}
}

// TestCheckpointRetryAbsorbsNoSpace proves the bounded in-place retry:
// with a CheckpointRetry policy of three attempts, a single injected
// ENOSPC on the checkpoint temp write is absorbed inside the cadence
// checkpoint — no error ever surfaces to the ingest loop — and the
// retry is visible in wal.checkpoint_retries.
func TestCheckpointRetryAbsorbsNoSpace(t *testing.T) {
	f := makeFixture(t, 400, 8)
	walBase := Options{CheckpointEvery: 2, KeepCheckpoints: 2}
	want := runAll(t, f, t.TempDir(), walBase)

	dir := t.TempDir()
	db := f.initial.Clone()
	reg := failpoint.New(7)
	sink := telemetry.NewSink()
	opts := coreOpts()
	opts.Failpoints = reg
	walOpts := walBase.withDir(dir)
	walOpts.Failpoints = reg
	walOpts.Telemetry = sink
	walOpts.CheckpointRetry = retry.Policy{MaxAttempts: 3, Seed: 11, Sleep: noSleep}
	s, l, err := New(db, opts, walOpts)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	reg.ArmError(FailCheckpointNoSpace, 1, failpoint.ErrNoSpace)
	for i, b := range f.batches {
		ab, err := applyToDB(db, b)
		if err != nil {
			t.Fatalf("batch %d apply: %v", i, err)
		}
		if _, err := s.ApplyBatchContext(context.Background(), ab); err != nil {
			t.Fatalf("batch %d surfaced %v despite retry policy", i, err)
		}
	}
	if got := reg.Hits(FailCheckpointNoSpace); got < 2 {
		t.Fatalf("checkpoint write attempted %d times, want a retry", got)
	}
	if got := sink.Metrics.Counter(telemetry.MetricWALCheckpointRetries).Value(); got != 1 {
		t.Fatalf("wal.checkpoint_retries = %d, want 1", got)
	}
	if got := fingerprint(t, s); !bytes.Equal(got, want) {
		t.Fatal("retried run differs from uninterrupted run")
	}
	if err := l.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
}

// TestCheckpointRetryNeverRetriesCrash pins the fail-stop convention in
// the retry classifier: a simulated crash on the checkpoint write is
// never re-attempted, no matter how many attempts the policy allows.
func TestCheckpointRetryNeverRetriesCrash(t *testing.T) {
	f := makeFixture(t, 300, 2)
	dir := t.TempDir()
	db := f.initial.Clone()
	reg := failpoint.New(7)
	opts := coreOpts()
	opts.Failpoints = reg
	walOpts := Options{Dir: dir, CheckpointEvery: 2, Failpoints: reg}
	walOpts.CheckpointRetry = retry.Policy{MaxAttempts: 5, Seed: 11, Sleep: noSleep}
	s, l, err := New(db, opts, walOpts)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	before := reg.Hits(FailCkptWrite) // the initial checkpoint's evaluation
	reg.ArmCrash(FailCkptWrite, 1)
	var killErr error
	for i, b := range f.batches {
		ab, err := applyToDB(db, b)
		if err != nil {
			t.Fatalf("batch %d apply: %v", i, err)
		}
		if _, err := s.ApplyBatchContext(context.Background(), ab); err != nil {
			killErr = err
			break
		}
	}
	if killErr == nil {
		killErr = l.WaitCheckpoint() // the crashed write-behind checkpoint
	}
	if !errors.Is(killErr, failpoint.ErrCrash) {
		t.Fatalf("armed crash never fired (err=%v)", killErr)
	}
	if got := reg.Hits(FailCkptWrite) - before; got != 1 {
		t.Fatalf("crashed checkpoint write evaluated %d times, want exactly 1 (no retry)", got)
	}
}

// TestAsyncCheckpointRetryAbsorbsFault proves the write-behind writer
// uses the same retry engine as an explicit checkpoint: a single injected
// rename failure on a cadence checkpoint is re-attempted in place on the
// writer goroutine, no error ever surfaces to the ingest loop or Close,
// the retry is counted, and the final state matches the uninterrupted
// run bit-for-bit.
func TestAsyncCheckpointRetryAbsorbsFault(t *testing.T) {
	f := makeFixture(t, 400, 8)
	walBase := Options{CheckpointEvery: 2, KeepCheckpoints: 2}
	want := runAll(t, f, t.TempDir(), walBase)

	db := f.initial.Clone()
	reg := failpoint.New(7)
	sink := telemetry.NewSink()
	opts := coreOpts()
	opts.Failpoints = reg
	walOpts := walBase.withDir(t.TempDir())
	walOpts.Failpoints = reg
	walOpts.Telemetry = sink
	walOpts.CheckpointRetry = retry.Policy{MaxAttempts: 3, Seed: 11, Sleep: noSleep}
	s, l, err := New(db, opts, walOpts)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	reg.ArmError(FailCkptRename, 1, nil)
	for i, b := range f.batches {
		ab, err := applyToDB(db, b)
		if err != nil {
			t.Fatalf("batch %d apply: %v", i, err)
		}
		if _, err := s.ApplyBatchContext(context.Background(), ab); err != nil {
			t.Fatalf("batch %d surfaced %v despite retry policy", i, err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatalf("close surfaced %v despite retry policy", err)
	}
	if got := reg.Hits(FailCkptRename); got < 2 {
		t.Fatalf("rename evaluated %d times, want a retry", got)
	}
	if got := sink.Metrics.Counter(telemetry.MetricWALCheckpointRetries).Value(); got != 1 {
		t.Fatalf("wal.checkpoint_retries = %d, want 1", got)
	}
	if got := fingerprint(t, s); !bytes.Equal(got, want) {
		t.Fatal("retried run differs from uninterrupted run")
	}
}
