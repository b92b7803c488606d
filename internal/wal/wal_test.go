package wal

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"incbubbles/internal/core"
	"incbubbles/internal/dataset"
	"incbubbles/internal/failpoint"
	"incbubbles/internal/synth"
	"incbubbles/internal/telemetry"
	"incbubbles/internal/vecmath"
)

// fixture is a reproducible workload: an initial database plus applied
// update batches that can be re-applied to clones of the initial state.
type fixture struct {
	initial *dataset.DB
	batches []dataset.Batch
}

func makeFixture(t *testing.T, points, batches int) *fixture {
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
		b, err := sc.NextBatch()
		if err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
		bs[i] = b
	}
	return &fixture{initial: initial, batches: bs}
}

func coreOpts() core.Options {
	return core.Options{NumBubbles: 12, UseTriangleInequality: true, Seed: 5}
}

// runAll applies every fixture batch through a fresh durable summarizer
// and returns its checkpoint encoding as the state fingerprint.
func runAll(t *testing.T, f *fixture, dir string, walOpts Options) []byte {
	t.Helper()
	walOpts.Dir = dir
	db := f.initial.Clone()
	s, l, err := New(db, coreOpts(), walOpts)
	if err != nil {
		t.Fatalf("wal.New: %v", err)
	}
	for i, b := range f.batches {
		applied, err := applyToDB(db, b)
		if err != nil {
			t.Fatalf("batch %d apply: %v", i, err)
		}
		if _, err := s.ApplyBatchContext(context.Background(), applied); err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
	}
	fp := fingerprint(t, s)
	if err := l.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	return fp
}

func fingerprint(t *testing.T, s *core.Summarizer) []byte {
	t.Helper()
	fp, err := encodeCheckpoint(s)
	if err != nil {
		t.Fatalf("fingerprint: %v", err)
	}
	return fp
}

func TestRecordRoundTrip(t *testing.T) {
	batch := dataset.Batch{
		{Op: dataset.OpInsert, ID: 7, P: vecmath.Point{1.5, -2.25}, Label: 3},
		{Op: dataset.OpDelete, ID: 2},
		{Op: dataset.OpInsert, ID: 8, P: vecmath.Point{0, 1e-300}, Label: dataset.Noise},
	}
	payload, err := encodePayload(2, 41, batch)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	rec, err := decodePayload(payload)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if rec.ordinal != 41 || rec.dim != 2 || len(rec.batch) != 3 {
		t.Fatalf("got ordinal=%d dim=%d len=%d", rec.ordinal, rec.dim, len(rec.batch))
	}
	for i, u := range rec.batch {
		want := batch[i]
		if u.Op != want.Op || u.ID != want.ID {
			t.Fatalf("update %d: got %+v want %+v", i, u, want)
		}
		if want.Op == dataset.OpInsert && (u.Label != want.Label || !u.P.Equal(want.P)) {
			t.Fatalf("insert %d: got %+v want %+v", i, u, want)
		}
	}
}

func TestEncodePayloadRejectsBadUpdates(t *testing.T) {
	if _, err := encodePayload(2, 0, dataset.Batch{{Op: dataset.OpInsert, P: vecmath.Point{1}}}); err == nil {
		t.Fatal("dimension mismatch accepted")
	}
	if _, err := encodePayload(2, 0, dataset.Batch{{Op: dataset.Op(9)}}); err == nil {
		t.Fatal("unknown op accepted")
	}
}

func TestScanSegmentTornAndCorrupt(t *testing.T) {
	p1, _ := encodePayload(1, 0, dataset.Batch{{Op: dataset.OpInsert, ID: 1, P: vecmath.Point{2}, Label: 0}})
	p2, _ := encodePayload(1, 1, dataset.Batch{{Op: dataset.OpDelete, ID: 1}})
	seg := append([]byte(segmentMagic), frameRecord(p1)...)
	full := append(append([]byte(nil), seg...), frameRecord(p2)...)

	recs, n, err := scanSegment(full)
	if err != nil || len(recs) != 2 || n != len(full) {
		t.Fatalf("clean scan: recs=%d n=%d err=%v", len(recs), n, err)
	}
	// Torn tail: every strict prefix of record 2 yields record 1 plus a
	// tail error at the record boundary.
	for cut := len(seg) + 1; cut < len(full); cut++ {
		recs, n, err := scanSegment(full[:cut])
		if len(recs) != 1 || n != len(seg) || err == nil {
			t.Fatalf("cut %d: recs=%d n=%d err=%v", cut, len(recs), n, err)
		}
	}
	// Bit flip in the second payload: CRC catches it.
	corrupt := append([]byte(nil), full...)
	corrupt[len(full)-1] ^= 0x40
	recs, n, err = scanSegment(corrupt)
	if len(recs) != 1 || n != len(seg) || !errors.Is(err, ErrBadCRC) {
		t.Fatalf("corrupt: recs=%d n=%d err=%v", len(recs), n, err)
	}
	if _, _, err := scanSegment([]byte("NOTMAGIC rest")); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("bad magic: %v", err)
	}
}

func TestCheckpointRoundTrip(t *testing.T) {
	f := makeFixture(t, 300, 2)
	db := f.initial.Clone()
	s, err := core.New(db, coreOpts())
	if err != nil {
		t.Fatalf("core.New: %v", err)
	}
	for _, b := range f.batches {
		applied, _ := applyToDB(db, b)
		if _, err := s.ApplyBatch(applied); err != nil {
			t.Fatalf("apply: %v", err)
		}
	}
	data, err := encodeCheckpoint(s)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	cp, err := decodeCheckpoint(data)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if int(cp.ordinal) != s.Batches() || cp.dim != db.Dim() || len(cp.recs) != db.Len() {
		t.Fatalf("got ordinal=%d dim=%d recs=%d", cp.ordinal, cp.dim, len(cp.recs))
	}
	db2, err := cp.restoreDB()
	if err != nil {
		t.Fatalf("restoreDB: %v", err)
	}
	if db2.Len() != db.Len() || db2.NextID() != db.NextID() {
		t.Fatalf("restored len=%d nextID=%d want %d %d", db2.Len(), db2.NextID(), db.Len(), db.NextID())
	}
	s2, err := core.Load(db2, bytes.NewReader(cp.snapshot), coreOpts(), int(cp.ordinal), int(cp.totalRebuilt))
	if err != nil {
		t.Fatalf("core.Load: %v", err)
	}
	if got := fingerprint(t, s2); !bytes.Equal(got, data) {
		t.Fatal("loaded summarizer re-encodes to different checkpoint bytes")
	}
	// Every single-byte corruption after the magic is detected.
	for _, off := range []int{len(checkpointMagic), len(data) / 2, len(data) - 1} {
		bad := append([]byte(nil), data...)
		bad[off] ^= 0x01
		if _, err := decodeCheckpoint(bad); !errors.Is(err, ErrBadCheckpoint) {
			t.Fatalf("corruption at %d undetected: %v", off, err)
		}
	}
}

func TestNewRefusesExistingState(t *testing.T) {
	f := makeFixture(t, 250, 1)
	dir := t.TempDir()
	runAll(t, f, dir, Options{CheckpointEvery: 2})
	db := f.initial.Clone()
	if _, _, err := New(db, coreOpts(), Options{Dir: dir}); err == nil {
		t.Fatal("New accepted a directory with durable state")
	}
	if !HasState(dir) {
		t.Fatal("HasState false on populated directory")
	}
	if HasState(t.TempDir()) {
		t.Fatal("HasState true on empty directory")
	}
}

// TestFailedNewLeavesNoState pins that a New whose initial checkpoint
// fails leaves no durable state: HasState stays false, so the directory
// is not mistaken for one Resume must own, and a second New succeeds.
func TestFailedNewLeavesNoState(t *testing.T) {
	f := makeFixture(t, 250, 1)
	dir := t.TempDir()
	reg := failpoint.New(1)
	reg.ArmError(FailCkptWrite, 1, nil)
	if _, _, err := New(f.initial.Clone(), coreOpts(), Options{Dir: dir, Failpoints: reg}); !errors.Is(err, failpoint.ErrInjected) {
		t.Fatalf("New with a failing initial checkpoint: %v", err)
	}
	if HasState(dir) {
		t.Fatal("failed New left durable state behind")
	}
	_, l, err := New(f.initial.Clone(), coreOpts(), Options{Dir: dir})
	if err != nil {
		t.Fatalf("New after a failed New: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestResumeEmptyDir(t *testing.T) {
	if _, err := Resume(coreOpts(), Options{Dir: t.TempDir()}); !errors.Is(err, ErrNoState) {
		t.Fatalf("want ErrNoState, got %v", err)
	}
}

// TestResumeMatchesUninterrupted is the core durability property: kill a
// run anywhere (here: between batches, without Close), Resume, finish the
// workload, and the final state is bit-identical to the uninterrupted run.
func TestResumeMatchesUninterrupted(t *testing.T) {
	f := makeFixture(t, 400, 8)
	want := runAll(t, f, t.TempDir(), Options{CheckpointEvery: 3})

	for _, killAt := range []int{0, 1, 4, 7} {
		dir := t.TempDir()
		db := f.initial.Clone()
		s, l, err := New(db, coreOpts(), Options{Dir: dir, CheckpointEvery: 3})
		if err != nil {
			t.Fatalf("kill@%d New: %v", killAt, err)
		}
		for i := 0; i < killAt; i++ {
			applied, _ := applyToDB(db, f.batches[i])
			if _, err := s.ApplyBatchContext(context.Background(), applied); err != nil {
				t.Fatalf("kill@%d batch %d: %v", killAt, i, err)
			}
		}
		// Simulated kill: the log is abandoned, never Closed, once its
		// write-behind checkpoint (if any) is no longer being written.
		if err := l.WaitCheckpoint(); err != nil {
			t.Fatalf("kill@%d checkpoint: %v", killAt, err)
		}
		sink := telemetry.NewSink()
		st, err := Resume(coreOpts(), Options{Dir: dir, CheckpointEvery: 3, Telemetry: sink})
		if err != nil {
			t.Fatalf("kill@%d resume: %v", killAt, err)
		}
		if st.Batches != killAt {
			t.Fatalf("kill@%d resumed at batch %d", killAt, st.Batches)
		}
		for i := st.Batches; i < len(f.batches); i++ {
			applied, err := applyToDB(st.DB, f.batches[i])
			if err != nil {
				t.Fatalf("kill@%d batch %d apply: %v", killAt, i, err)
			}
			if _, err := st.Summarizer.ApplyBatchContext(context.Background(), applied); err != nil {
				t.Fatalf("kill@%d batch %d: %v", killAt, i, err)
			}
		}
		if got := fingerprint(t, st.Summarizer); !bytes.Equal(got, want) {
			t.Fatalf("kill@%d: recovered state differs from uninterrupted run", killAt)
		}
		if err := st.Log.Close(); err != nil {
			t.Fatalf("kill@%d close: %v", killAt, err)
		}
	}
}

// TestResumeCorruptCheckpointFallsBack flips a byte in the newest
// checkpoint: Resume must quarantine it and recover from the previous
// one, replaying the extra WAL suffix.
func TestResumeCorruptCheckpointFallsBack(t *testing.T) {
	f := makeFixture(t, 400, 8)
	want := runAll(t, f, t.TempDir(), Options{CheckpointEvery: 3})

	dir := t.TempDir()
	runAll(t, f, dir, Options{CheckpointEvery: 3})
	ckpts, _, err := listState(dir)
	if err != nil || len(ckpts) < 2 {
		t.Fatalf("want ≥2 checkpoints, got %d (%v)", len(ckpts), err)
	}
	newest := ckpts[len(ckpts)-1]
	data, err := os.ReadFile(newest.path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x80
	if err := os.WriteFile(newest.path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	sink := telemetry.NewSink()
	st, err := Resume(coreOpts(), Options{Dir: dir, CheckpointEvery: 3, Telemetry: sink})
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	if st.Batches != len(f.batches) {
		t.Fatalf("resumed at batch %d, want %d", st.Batches, len(f.batches))
	}
	if st.Replayed == 0 {
		t.Fatal("fallback recovery replayed nothing — newest checkpoint was trusted?")
	}
	if got := fingerprint(t, st.Summarizer); !bytes.Equal(got, want) {
		t.Fatal("fallback recovery differs from uninterrupted run")
	}
	if sink.Metrics.Counter(telemetry.MetricWALQuarantined).Value() == 0 {
		t.Fatal("no quarantine counted")
	}
	quarantined, _ := filepath.Glob(filepath.Join(dir, "*"+quarantineSuffix))
	if len(quarantined) != 1 {
		t.Fatalf("want 1 quarantined file, got %v", quarantined)
	}
}

// TestResumeTruncatesTornTail garbles the newest segment's tail: Resume
// must truncate it in place and recover the intact prefix.
func TestResumeTruncatesTornTail(t *testing.T) {
	f := makeFixture(t, 400, 8)
	dir := t.TempDir()
	runAll(t, f, dir, Options{CheckpointEvery: 3})
	_, segs, err := listState(dir)
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segments (%v)", err)
	}
	// Find a segment with at least one record and chop into its last one.
	var target string
	var keep int64
	for i := len(segs) - 1; i >= 0; i-- {
		data, err := os.ReadFile(segs[i].path)
		if err != nil {
			t.Fatal(err)
		}
		if recs, validLen, _ := scanSegment(data); len(recs) > 0 {
			target, keep = segs[i].path, int64(validLen-3)
			break
		}
	}
	if target == "" {
		t.Fatal("no segment with records")
	}
	if err := os.Truncate(target, keep); err != nil {
		t.Fatal(err)
	}

	sink := telemetry.NewSink()
	st, err := Resume(coreOpts(), Options{Dir: dir, CheckpointEvery: 3, Telemetry: sink})
	if err != nil {
		t.Fatalf("resume after torn tail: %v", err)
	}
	if sink.Metrics.Counter(telemetry.MetricWALTruncations).Value() == 0 {
		t.Fatal("no truncation counted")
	}
	if err := st.Summarizer.Set().CheckInvariants(); err != nil {
		t.Fatalf("recovered set: %v", err)
	}
	if st.Log.Poisoned() != nil {
		t.Fatalf("recovered log poisoned: %v", st.Log.Poisoned())
	}
}

// TestAppendSyncFailurePoisons arms a sync failure: the failing batch is
// rejected, the log refuses everything afterwards, and Resume still works.
// A failed fsync leaves the record's durability UNKNOWN — it may or may
// not survive — so recovery is allowed to land on either side of the
// failing batch; what must hold is that continuing from wherever it
// landed reproduces the uninterrupted run bit-for-bit.
func TestAppendSyncFailurePoisons(t *testing.T) {
	f := makeFixture(t, 300, 3)
	want := runAll(t, f, t.TempDir(), Options{})

	dir := t.TempDir()
	reg := failpoint.New(1)
	reg.ArmError(FailAppendSync, 2, nil)
	db := f.initial.Clone()
	opts := coreOpts()
	s, l, err := New(db, opts, Options{Dir: dir, Failpoints: reg})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	applied, _ := applyToDB(db, f.batches[0])
	if _, err := s.ApplyBatchContext(context.Background(), applied); err != nil {
		t.Fatalf("batch 0: %v", err)
	}
	applied, _ = applyToDB(db, f.batches[1])
	if _, err := s.ApplyBatchContext(context.Background(), applied); !errors.Is(err, failpoint.ErrInjected) {
		t.Fatalf("batch 1: want injected error, got %v", err)
	}
	if l.Poisoned() == nil {
		t.Fatal("sync failure did not poison the log")
	}
	applied, _ = applyToDB(db, f.batches[2])
	if _, err := s.ApplyBatchContext(context.Background(), applied); !errors.Is(err, ErrPoisoned) {
		t.Fatalf("batch 2: want ErrPoisoned, got %v", err)
	}
	st, err := Resume(opts, Options{Dir: dir})
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	if st.Batches < 1 || st.Batches > 2 {
		t.Fatalf("resumed at %d, want 1 or 2", st.Batches)
	}
	for i := st.Batches; i < len(f.batches); i++ {
		applied, err := applyToDB(st.DB, f.batches[i])
		if err != nil {
			t.Fatalf("batch %d apply: %v", i, err)
		}
		if _, err := st.Summarizer.ApplyBatchContext(context.Background(), applied); err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
	}
	if got := fingerprint(t, st.Summarizer); !bytes.Equal(got, want) {
		t.Fatal("post-poison recovery differs from uninterrupted run")
	}
}

// TestErrorInjectionWithoutBytesKeepsLogAlive arms a pure error (keep=0)
// on the append write: the batch fails but nothing reached disk, so the
// log keeps accepting batches.
func TestErrorInjectionWithoutBytesKeepsLogAlive(t *testing.T) {
	f := makeFixture(t, 300, 2)
	reg := failpoint.New(1)
	reg.ArmError(FailAppendWrite, 1, nil)
	db := f.initial.Clone()
	s, l, err := New(db, coreOpts(), Options{Dir: t.TempDir(), Failpoints: reg})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	applied, _ := applyToDB(db, f.batches[0])
	if _, err := s.ApplyBatchContext(context.Background(), applied); !errors.Is(err, failpoint.ErrInjected) {
		t.Fatalf("want injected error, got %v", err)
	}
	if l.Poisoned() != nil {
		t.Fatalf("keep=0 injection poisoned the log: %v", l.Poisoned())
	}
	// The batch is already in the database; retry the summarizer apply.
	if _, err := s.ApplyBatchContext(context.Background(), applied); err != nil {
		t.Fatalf("retry: %v", err)
	}
	if s.Batches() != 1 {
		t.Fatalf("batches=%d want 1", s.Batches())
	}
}

// TestCheckpointFailureDoesNotPoison arms a rename failure on the first
// automatic checkpoint: the write-behind failure is reported at the next
// cadence point, the log stays healthy, and the checkpoint after that
// succeeds.
func TestCheckpointFailureDoesNotPoison(t *testing.T) {
	f := makeFixture(t, 300, 3)
	reg := failpoint.New(1)
	db := f.initial.Clone()
	s, l, err := New(db, coreOpts(), Options{Dir: t.TempDir(), CheckpointEvery: 1, Failpoints: reg})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	reg.ArmError(FailCkptRename, 1, nil)
	applied, _ := applyToDB(db, f.batches[0])
	if _, err := s.ApplyBatchContext(context.Background(), applied); err != nil {
		t.Fatalf("first batch: %v", err)
	}
	applied, _ = applyToDB(db, f.batches[1])
	if _, err := s.ApplyBatchContext(context.Background(), applied); !errors.Is(err, failpoint.ErrInjected) {
		t.Fatalf("want injected checkpoint error at the next cadence point, got %v", err)
	}
	if l.Poisoned() != nil {
		t.Fatalf("checkpoint failure poisoned the log: %v", l.Poisoned())
	}
	applied, _ = applyToDB(db, f.batches[2])
	if _, err := s.ApplyBatchContext(context.Background(), applied); err != nil {
		t.Fatalf("next batch: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("retried checkpoint: %v", err)
	}
}

// TestGCRetainsCoveringState runs long enough for GC to fire and checks
// what remains on disk still resumes, with old checkpoints bounded.
func TestGCRetainsCoveringState(t *testing.T) {
	f := makeFixture(t, 400, 10)
	dir := t.TempDir()
	want := runAll(t, f, dir, Options{CheckpointEvery: 2, KeepCheckpoints: 2})
	ckpts, _, err := listState(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ckpts) > 2 {
		t.Fatalf("GC left %d checkpoints, want ≤2", len(ckpts))
	}
	st, err := Resume(coreOpts(), Options{Dir: dir, CheckpointEvery: 2, KeepCheckpoints: 2})
	if err != nil {
		t.Fatalf("resume after GC: %v", err)
	}
	if got := fingerprint(t, st.Summarizer); !bytes.Equal(got, want) {
		t.Fatal("state after GC differs")
	}
}

// TestAppendRollbackResetsOffset simulates the aftermath of a failed
// partial write — bytes on disk past the record boundary AND a file
// offset advanced past it (os.File.Truncate does not move the offset) —
// and checks rollbackAppend restores both, so the next append leaves no
// zero-filled gap for recovery to trip over.
func TestAppendRollbackResetsOffset(t *testing.T) {
	l, err := newLog(2, Options{Dir: t.TempDir()}.withDefaults())
	if err != nil {
		t.Fatal(err)
	}
	if err := l.openSegment(0); err != nil {
		t.Fatal(err)
	}
	if _, err := l.f.Write([]byte("partial-garbage")); err != nil {
		t.Fatal(err)
	}
	if err := l.rollbackAppend(); err != nil {
		t.Fatalf("rollback: %v", err)
	}
	batch := dataset.Batch{{Op: dataset.OpDelete, ID: 1}}
	if err := l.BeforeApply(context.Background(), 0, batch); err != nil {
		t.Fatalf("append after rollback: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(l.dir, segmentName(0)))
	if err != nil {
		t.Fatal(err)
	}
	recs, n, tailErr := scanSegment(data)
	if tailErr != nil || len(recs) != 1 || n != len(data) {
		t.Fatalf("segment after rollback: recs=%d n=%d/%d err=%v", len(recs), n, len(data), tailErr)
	}
	if recs[0].ordinal != 0 || len(recs[0].batch) != 1 {
		t.Fatalf("recovered record %+v", recs[0])
	}
}

// TestOversizedBatchRejectedBeforeWrite feeds the log a batch whose
// encoding would exceed maxRecordBytes: it must be rejected before any
// byte reaches the segment — recovery's scanner refuses such frames, so
// acking one durable would silently lose it — and the log stays healthy.
func TestOversizedBatchRejectedBeforeWrite(t *testing.T) {
	const dim = maxRecordBytes / 8 // one insert at this dim overflows the limit
	l, err := newLog(dim, Options{Dir: t.TempDir()}.withDefaults())
	if err != nil {
		t.Fatal(err)
	}
	if err := l.openSegment(0); err != nil {
		t.Fatal(err)
	}
	huge := dataset.Batch{{Op: dataset.OpInsert, ID: 1, P: make(vecmath.Point, dim), Label: 0}}
	if err := l.BeforeApply(context.Background(), 0, huge); !errors.Is(err, ErrRecordTooLarge) {
		t.Fatalf("want ErrRecordTooLarge, got %v", err)
	}
	if l.Poisoned() != nil {
		t.Fatalf("oversized batch poisoned the log: %v", l.Poisoned())
	}
	if l.NextOrdinal() != 0 {
		t.Fatalf("ordinal advanced to %d for an unlogged batch", l.NextOrdinal())
	}
	// Deletes are small regardless of dim: the same ordinal still appends.
	if err := l.BeforeApply(context.Background(), 0, dataset.Batch{{Op: dataset.OpDelete, ID: 2}}); err != nil {
		t.Fatalf("append after rejection: %v", err)
	}
	data, err := os.ReadFile(filepath.Join(l.dir, segmentName(0)))
	if err != nil {
		t.Fatal(err)
	}
	if recs, _, tailErr := scanSegment(data); tailErr != nil || len(recs) != 1 {
		t.Fatalf("segment holds recs=%d err=%v; oversized bytes leaked", len(recs), tailErr)
	}
}

// TestReplayFaultTruncatesWALNotCheckpoints appends a forged record that
// decodes cleanly but cannot be re-applied (a delete of an ID the
// database never held). The old ladder quarantined the newest checkpoint,
// then every older one died replaying through the same record; now the
// WAL is truncated just before the bad record and the same checkpoint
// recovers everything up to it.
func TestReplayFaultTruncatesWALNotCheckpoints(t *testing.T) {
	f := makeFixture(t, 400, 8)
	want := runAll(t, f, t.TempDir(), Options{CheckpointEvery: 3})
	dir := t.TempDir()
	runAll(t, f, dir, Options{CheckpointEvery: 3})

	_, segs, err := listState(dir)
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segments (%v)", err)
	}
	newest := segs[len(segs)-1]
	payload, err := encodePayload(f.initial.Dim(), uint64(len(f.batches)), dataset.Batch{{Op: dataset.OpDelete, ID: 1 << 40}})
	if err != nil {
		t.Fatal(err)
	}
	seg, err := os.OpenFile(newest.path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := seg.Write(frameRecord(payload)); err != nil {
		t.Fatal(err)
	}
	if err := seg.Close(); err != nil {
		t.Fatal(err)
	}

	sink := telemetry.NewSink()
	st, err := Resume(coreOpts(), Options{Dir: dir, CheckpointEvery: 3, Telemetry: sink})
	if err != nil {
		t.Fatalf("resume over replay fault: %v", err)
	}
	if st.Batches != len(f.batches) {
		t.Fatalf("resumed at batch %d, want %d", st.Batches, len(f.batches))
	}
	if got := fingerprint(t, st.Summarizer); !bytes.Equal(got, want) {
		t.Fatal("recovery over replay fault differs from uninterrupted run")
	}
	if n := sink.Metrics.Counter(telemetry.MetricWALQuarantined).Value(); n != 0 {
		t.Fatalf("replay fault quarantined %d files; should only truncate the WAL", n)
	}
	if sink.Metrics.Counter(telemetry.MetricWALTruncations).Value() == 0 {
		t.Fatal("no WAL truncation counted for the replay fault")
	}
	// The bad record is gone from disk: a second resume replays cleanly
	// without repairs.
	sink2 := telemetry.NewSink()
	st2, err := Resume(coreOpts(), Options{Dir: dir, CheckpointEvery: 3, Telemetry: sink2})
	if err != nil {
		t.Fatalf("second resume: %v", err)
	}
	if got := fingerprint(t, st2.Summarizer); !bytes.Equal(got, want) {
		t.Fatal("second resume differs")
	}
	if sink2.Metrics.Counter(telemetry.MetricWALTruncations).Value() != 0 {
		t.Fatal("repair did not stick: second resume truncated again")
	}
}

// TestOrdinalMismatchPoisons feeds the log an out-of-order ordinal.
func TestOrdinalMismatchPoisons(t *testing.T) {
	l, err := newLog(2, Options{Dir: t.TempDir()}.withDefaults())
	if err != nil {
		t.Fatal(err)
	}
	if err := l.openSegment(0); err != nil {
		t.Fatal(err)
	}
	if err := l.BeforeApply(context.Background(), 3, nil); err == nil {
		t.Fatal("ordinal skip accepted")
	}
	if l.Poisoned() == nil {
		t.Fatal("ordinal skip did not poison")
	}
}

func TestListStateIgnoresForeignFiles(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{
		"wal-0000000000000004.log",
		"ckpt-0000000000000004.ckpt",
		"ckpt-0000000000000002.ckpt" + tmpSuffix,
		"ckpt-0000000000000001.ckpt" + quarantineSuffix,
		"wal-123.log", "notes.txt",
	} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	ckpts, segs, err := listState(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ckpts) != 1 || ckpts[0].ordinal != 4 {
		t.Fatalf("ckpts=%v", ckpts)
	}
	if len(segs) != 1 || segs[0].ordinal != 4 {
		t.Fatalf("segs=%v", segs)
	}
	if !strings.HasSuffix(segs[0].path, "wal-0000000000000004.log") {
		t.Fatalf("seg path %q", segs[0].path)
	}
}

// TestWriteBehindCheckpointsNeverCoalesce checkpoints after every batch,
// so each cadence point finds the previous write-behind checkpoint
// still young: every one must wait for its predecessor and be written
// itself — one checkpoint per batch plus the initial one, the newest
// covering the whole run.
func TestWriteBehindCheckpointsNeverCoalesce(t *testing.T) {
	f := makeFixture(t, 300, 6)
	dir := t.TempDir()
	sink := telemetry.NewSink()
	db := f.initial.Clone()
	s, l, err := New(db, coreOpts(), Options{Dir: dir, CheckpointEvery: 1, KeepCheckpoints: 2, Telemetry: sink})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	for i, b := range f.batches {
		applied, _ := applyToDB(db, b)
		if _, err := s.ApplyBatchContext(context.Background(), applied); err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if got, want := sink.Metrics.Counter(telemetry.MetricWALCheckpoints).Value(), uint64(len(f.batches)+1); got != want {
		t.Fatalf("%d checkpoints written, want %d", got, want)
	}
	ckpts, _, err := listState(dir)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(ckpts); n == 0 || ckpts[n-1].ordinal != uint64(len(f.batches)) {
		t.Fatalf("newest checkpoint %v, want ordinal %d", ckpts, len(f.batches))
	}
}

// TestCheckpointSupersedesFailedWriteBehind pins what an explicit
// Checkpoint (a drain's final checkpoint) does with a write-behind
// checkpoint that failed: a retryable failure is superseded — the
// explicit checkpoint is written and a resume replays nothing — while a
// simulated crash is returned, fail-stop.
func TestCheckpointSupersedesFailedWriteBehind(t *testing.T) {
	f := makeFixture(t, 300, 1)
	for _, crash := range []bool{false, true} {
		dir := t.TempDir()
		reg := failpoint.New(1)
		db := f.initial.Clone()
		s, l, err := New(db, coreOpts(), Options{Dir: dir, CheckpointEvery: 1, Failpoints: reg})
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		if crash {
			reg.ArmCrash(FailCkptRename, 1)
		} else {
			reg.ArmError(FailCkptRename, 1, nil)
		}
		applied, _ := applyToDB(db, f.batches[0])
		if _, err := s.ApplyBatchContext(context.Background(), applied); err != nil {
			t.Fatalf("batch: %v", err)
		}
		err = l.Checkpoint(s)
		if crash {
			if !errors.Is(err, failpoint.ErrCrash) {
				t.Fatalf("crashed write-behind checkpoint: Checkpoint returned %v", err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("Checkpoint after a failed write-behind checkpoint: %v", err)
		}
		if err := l.Close(); err != nil {
			t.Fatalf("close: %v", err)
		}
		st, err := Resume(coreOpts(), Options{Dir: dir})
		if err != nil {
			t.Fatalf("resume: %v", err)
		}
		if st.Batches != 1 || st.Replayed != 0 {
			t.Fatalf("resumed at %d with %d replayed, want 1 and 0", st.Batches, st.Replayed)
		}
	}
}
