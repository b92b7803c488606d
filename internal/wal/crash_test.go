package wal

import (
	"bytes"
	"context"
	"os"
	"testing"

	"incbubbles/internal/core"
	"incbubbles/internal/failpoint"
)

// crashEnv gates the full crash matrix (every failpoint × mode × hit);
// without it a fixed smoke subset runs, keeping `go test` fast while
// `make crash` and CI sweep everything.
const crashEnv = "INCBUBBLES_CRASH"

// allFailpoints is the union the matrix must cover: the apply-path points
// and the WAL/checkpoint I/O points.
func allFailpoints() []string {
	return append(core.Failpoints(), Failpoints()...)
}

// TestFailpointCoverage runs the workload uninterrupted with a registry
// attached and verifies every registered failpoint is actually evaluated
// — a point the run never reaches is a point the crash matrix silently
// fails to test.
func TestFailpointCoverage(t *testing.T) {
	f := makeFixture(t, 400, 8)
	reg := failpoint.New(3)
	db := f.initial.Clone()
	opts := coreOpts()
	opts.Failpoints = reg
	s, l, err := New(db, opts, Options{Dir: t.TempDir(), CheckpointEvery: 2, Failpoints: reg})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	for i, b := range f.batches {
		applied, _ := applyToDB(db, b)
		if _, err := s.ApplyBatchContext(context.Background(), applied); err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
	}
	_ = l.Close()
	for _, p := range allFailpoints() {
		if reg.Hits(p) == 0 {
			t.Errorf("failpoint %s never evaluated by the workload", p)
		}
	}
}

// crashCase is one cell of the matrix: kill the run the nth time the
// workload reaches a failpoint, in a given mode.
type crashCase struct {
	point string
	mode  failpoint.Mode
	hit   int
}

func (c crashCase) name() string {
	return c.point + "/" + c.mode.String() + "/hit" + string(rune('0'+c.hit))
}

func (c crashCase) arm(reg *failpoint.Registry) {
	switch c.mode {
	case failpoint.ModeCrash:
		reg.ArmCrash(c.point, c.hit)
	case failpoint.ModeTorn:
		reg.ArmTorn(c.point, c.hit)
	default:
		reg.ArmError(c.point, c.hit, nil)
	}
}

// matrix enumerates the cases: every failpoint killed at its first and
// second occurrence, plus torn-write variants for the two write-type
// points. The smoke subset (always on) picks one representative per
// failure family.
func matrix(full bool) []crashCase {
	if !full {
		return []crashCase{
			{point: core.FailMaintainRound, mode: failpoint.ModeCrash, hit: 1}, // mid-mutation, logged
			{point: FailAppendWrite, mode: failpoint.ModeTorn, hit: 1},         // torn record on disk
			{point: FailAppendSync, mode: failpoint.ModeCrash, hit: 1},         // durability unknown
			{point: FailCkptRename, mode: failpoint.ModeCrash, hit: 1},         // checkpoint half-installed
		}
	}
	var cases []crashCase
	for _, p := range allFailpoints() {
		for _, hit := range []int{1, 2} {
			cases = append(cases, crashCase{point: p, mode: failpoint.ModeCrash, hit: hit})
		}
	}
	for _, p := range []string{FailAppendWrite, FailCkptWrite} {
		cases = append(cases,
			crashCase{point: p, mode: failpoint.ModeTorn, hit: 1},
			crashCase{point: p, mode: failpoint.ModeTorn, hit: 2})
	}
	return cases
}

// TestCrashRecoveryMatrix is the tentpole property test: for every
// registered failpoint, kill the workload there, Resume from disk, finish
// the workload, and require the final state to be bit-identical to the
// uninterrupted run. Resume may legitimately land before or after the
// dying batch (a failed sync leaves durability unknown) — identity of the
// final state is the invariant.
func TestCrashRecoveryMatrix(t *testing.T) {
	full := os.Getenv(crashEnv) != ""
	f := makeFixture(t, 400, 8)
	walBase := Options{CheckpointEvery: 2, KeepCheckpoints: 2}
	want := runAll(t, f, t.TempDir(), walBase)

	for _, tc := range matrix(full) {
		tc := tc
		t.Run(tc.name(), func(t *testing.T) {
			dir := t.TempDir()
			db := f.initial.Clone()
			reg := failpoint.New(7)
			opts := coreOpts()
			opts.Failpoints = reg
			walOpts := walBase
			walOpts.Dir = dir
			walOpts.Failpoints = reg
			s, l, err := New(db, opts, walOpts)
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			// Arm only after construction so the kill lands in the steady
			// state; crash-during-New has its own test.
			tc.arm(reg)
			killed := false
			for i, b := range f.batches {
				applied, err := applyToDB(db, b)
				if err != nil {
					t.Fatalf("batch %d apply: %v", i, err)
				}
				if _, err := s.ApplyBatchContext(context.Background(), applied); err != nil {
					killed = true // simulated kill: abandon everything
					break
				}
			}
			// The simulated kill abandons the log only once no write-behind
			// checkpoint is in flight, so no background write races the
			// resume. A fault in that last write is itself the kill.
			if err := l.WaitCheckpoint(); err != nil {
				killed = true
			}
			if !killed {
				// The injected fault surfaced nowhere — acceptable only if
				// the point genuinely fired and was absorbed, which none of
				// the armed modes allow.
				t.Fatalf("armed failpoint %s never killed the run (hits=%d)", tc.point, reg.Hits(tc.point))
			}

			st, err := Resume(coreOpts(), walBase.withDir(dir))
			if err != nil {
				t.Fatalf("resume: %v", err)
			}
			if err := st.Summarizer.Set().CheckInvariants(); err != nil {
				t.Fatalf("recovered set: %v", err)
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
				t.Fatal("recovered run differs from uninterrupted run")
			}
			if err := st.Log.Close(); err != nil {
				t.Fatalf("close: %v", err)
			}
		})
	}
}

// withDir returns a copy of o pointed at dir — matrix convenience.
func (o Options) withDir(dir string) Options {
	o.Dir = dir
	return o
}

// TestCrashDuringNew kills the initial checkpoint: the directory is left
// with a segment but no checkpoint, Resume reports ErrNoState, and the
// documented operator move — clear the directory and start fresh — works.
func TestCrashDuringNew(t *testing.T) {
	f := makeFixture(t, 300, 1)
	dir := t.TempDir()
	reg := failpoint.New(1)
	reg.ArmCrash(FailCkptRename, 1)
	db := f.initial.Clone()
	if _, _, err := New(db, coreOpts(), Options{Dir: dir, Failpoints: reg}); err == nil {
		t.Fatal("New survived a crashed initial checkpoint")
	}
	if _, err := Resume(coreOpts(), Options{Dir: dir}); err == nil {
		t.Fatal("Resume recovered from a directory with no checkpoint")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if err := os.Remove(dir + "/" + e.Name()); err != nil {
			t.Fatal(err)
		}
	}
	db2 := f.initial.Clone()
	s, l, err := New(db2, coreOpts(), Options{Dir: dir})
	if err != nil {
		t.Fatalf("fresh New after cleanup: %v", err)
	}
	applied, _ := applyToDB(db2, f.batches[0])
	if _, err := s.ApplyBatchContext(context.Background(), applied); err != nil {
		t.Fatalf("batch: %v", err)
	}
	_ = l.Close()
}

// TestTornCheckpointTempInvisible kills mid-way through the write-behind
// checkpoint's temp write: the torn temp file must be invisible to
// recovery (never renamed in), and the previous checkpoint still resumes.
func TestTornCheckpointTempInvisible(t *testing.T) {
	f := makeFixture(t, 300, 3)
	dir := t.TempDir()
	reg := failpoint.New(5)
	db := f.initial.Clone()
	s, l, err := New(db, coreOpts(), Options{Dir: dir, CheckpointEvery: 1, Failpoints: reg})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	reg.ArmTorn(FailCkptWrite, 1)
	applied, _ := applyToDB(db, f.batches[0])
	if _, err := s.ApplyBatchContext(context.Background(), applied); err != nil {
		t.Fatalf("batch: %v", err)
	}
	if err := l.WaitCheckpoint(); err == nil {
		t.Fatal("torn checkpoint write surfaced no error")
	}
	// The batch itself is durable in the WAL; only the checkpoint died.
	st, err := Resume(coreOpts(), Options{Dir: dir, CheckpointEvery: 1})
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	if st.Batches != 1 || st.Replayed != 1 {
		t.Fatalf("batches=%d replayed=%d, want 1/1", st.Batches, st.Replayed)
	}
}
