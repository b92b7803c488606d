package wal_test

import (
	"bytes"
	"context"
	"io"
	"os"
	"path/filepath"
	"testing"

	"incbubbles/internal/core"
	"incbubbles/internal/dataset"
	"incbubbles/internal/synth"
	"incbubbles/internal/wal"
)

// The pipelined legs of the crash matrix, kept as recorded crash states.
// The pipelined writer (burst submission, WAL group commit, async
// checkpoints) has been removed in favour of the one serial ingest path,
// but a directory it left behind must still resume as it is: neither the
// record framing nor the checkpoint encoding changed. Each
// testdata/pipelined/<point>/<mode>/hit<n> directory is what that writer
// left on disk when the named failpoint killed it, driving the workload
// below with group commits of up to four records and an async checkpoint
// every two batches. Recovery runs the plain serial replay path, and the
// finished run must be bit-identical to an uninterrupted serial run.
//
// The directories cannot be re-recorded — the writer is gone — and, like
// the experiments golden file, they are tied to the floating-point
// semantics of the reference architecture.
//
// This file is an external test package so that it drives the exported
// API only, as an operator's resume would.

type pipeFixture struct {
	initial *dataset.DB
	batches []dataset.Batch
}

func makePipeFixture(t *testing.T, points, batches int) *pipeFixture {
	t.Helper()
	sc, err := synth.NewScenario(synth.Config{
		Kind: synth.Complex, InitialPoints: points, Batches: batches, Seed: 21,
	})
	if err != nil {
		t.Fatalf("scenario: %v", err)
	}
	initial := sc.DB().Clone()
	bs := make([]dataset.Batch, batches)
	for i := range bs {
		if bs[i], err = sc.NextBatch(); err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
	}
	return &pipeFixture{initial: initial, batches: bs}
}

func serialCoreOpts() core.Options {
	return core.Options{NumBubbles: 12, UseTriangleInequality: true, Seed: 5}
}

// serialReference runs the workload through the serial durable path and
// returns its fingerprint — the target every recorded crash state must
// converge back to.
func serialReference(t *testing.T, fx *pipeFixture) []byte {
	t.Helper()
	db := fx.initial.Clone()
	s, l, err := wal.New(db, serialCoreOpts(), wal.Options{Dir: t.TempDir(), CheckpointEvery: 2, KeepCheckpoints: 2})
	if err != nil {
		t.Fatalf("wal.New: %v", err)
	}
	for i, b := range fx.batches {
		applied, err := b.Replay(db)
		if err != nil {
			t.Fatalf("batch %d replay: %v", i, err)
		}
		if _, err := s.ApplyBatchContext(context.Background(), applied); err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
	}
	fp, err := wal.Fingerprint(s)
	if err != nil {
		t.Fatalf("fingerprint: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	return fp
}

// copyDir copies the flat crash-state directory src into dst, so that
// recovery (which truncates torn tails) never edits the fixture.
func copyDir(t *testing.T, src, dst string) {
	t.Helper()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatalf("fixture: %v", err)
	}
	for _, e := range entries {
		in, err := os.Open(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out, err := os.Create(filepath.Join(dst, e.Name()))
		if err == nil {
			_, err = io.Copy(out, in)
			if cerr := out.Close(); err == nil {
				err = cerr
			}
		}
		in.Close()
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestPipelinedCrashRecoveryMatrix resumes each recorded crash state
// serially, finishes the workload, and requires bit-identity with the
// uninterrupted serial run. The four cells are the smoke subset the
// pipelined matrix ran: a torn queued record, a shared group fsync that
// died, a group that was durable but never acknowledged, and an async
// checkpoint killed mid-rename (its temp file left behind).
func TestPipelinedCrashRecoveryMatrix(t *testing.T) {
	fx := makePipeFixture(t, 400, 8)
	want := serialReference(t, fx)

	for _, cell := range []string{
		"wal.group.append/torn/hit1",
		"wal.group.sync/crash/hit1",
		"wal.group.ack/error/hit1",
		"wal.async.ckpt.rename/crash/hit1",
	} {
		t.Run(cell, func(t *testing.T) {
			dir := t.TempDir()
			copyDir(t, filepath.Join("testdata", "pipelined", filepath.FromSlash(cell)), dir)
			st, err := wal.Resume(serialCoreOpts(), wal.Options{Dir: dir, CheckpointEvery: 2, KeepCheckpoints: 2})
			if err != nil {
				t.Fatalf("resume: %v", err)
			}
			if err := st.Summarizer.Set().CheckInvariants(); err != nil {
				t.Fatalf("recovered set: %v", err)
			}
			if st.Batches > len(fx.batches) {
				t.Fatalf("recovered at batch %d of a %d-batch workload", st.Batches, len(fx.batches))
			}
			for i := st.Batches; i < len(fx.batches); i++ {
				applied, err := fx.batches[i].Replay(st.DB)
				if err != nil {
					t.Fatalf("batch %d replay: %v", i, err)
				}
				if _, err := st.Summarizer.ApplyBatchContext(context.Background(), applied); err != nil {
					t.Fatalf("batch %d: %v", i, err)
				}
			}
			got, err := wal.Fingerprint(st.Summarizer)
			if err != nil {
				t.Fatalf("fingerprint: %v", err)
			}
			if !bytes.Equal(got, want) {
				t.Fatal("recovered pipelined crash state differs from uninterrupted serial run")
			}
			if err := st.Log.Close(); err != nil {
				t.Fatalf("close: %v", err)
			}
		})
	}
}
