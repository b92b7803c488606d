package wal

// Failpoints of the durability I/O paths, evaluated on every operation
// when a registry is armed via Options.Failpoints. The crash-recovery
// matrix (crash_test.go) kills at each of these — and at the core apply
// failpoints — and verifies recovery reproduces the uninterrupted run.
const (
	// FailAppendWrite guards the segment write of one framed record
	// (write-type: torn mode persists a seeded prefix).
	FailAppendWrite = "wal.append.write"
	// FailAppendSync guards the fsync after a record append.
	FailAppendSync = "wal.append.sync"
	// FailCkptWrite guards the temp-file write of a checkpoint
	// (write-type).
	FailCkptWrite = "wal.ckpt.temp.write"
	// FailCkptSync guards the temp-file fsync before the rename.
	FailCkptSync = "wal.ckpt.temp.sync"
	// FailCkptRename guards the atomic rename installing a checkpoint.
	FailCkptRename = "wal.ckpt.rename"
	// FailCkptRotate guards opening the fresh segment after a checkpoint.
	FailCkptRotate = "wal.ckpt.rotate"
	// FailCkptGC guards the garbage collection of superseded checkpoints
	// and fully-covered segments.
	FailCkptGC = "wal.ckpt.gc"
	// FailAppendNoSpace guards the record append with disk-full
	// semantics (write-type; arm with ArmTornError for a partial frame).
	// An append that fails with failpoint.ErrNoSpace poisons the log
	// fail-stop even when nothing was written: a full device cannot
	// accept the record, retrying in place would spin, and a real ENOSPC
	// may leave an undetectable partial frame — the operator frees space
	// and Resumes.
	FailAppendNoSpace = "wal.append.nospace"
	// FailCheckpointNoSpace guards the checkpoint temp-file write (of
	// explicit and write-behind checkpoints alike) with disk-full
	// semantics (write-type). A fired point is retryable and never poisons: the
	// torn temp file is invisible to recovery, the previous checkpoint
	// plus the intact WAL still reconstruct the state, and no acked
	// batch is lost. ENOSPC on the rename is simulated by arming the
	// existing rename points with failpoint.ErrNoSpace — same retryable
	// outcome.
	FailCheckpointNoSpace = "wal.ckpt.nospace"
)

// Failpoints returns the names of every failpoint in the WAL and
// checkpoint paths, for crash-matrix tests that must cover them all.
func Failpoints() []string {
	return []string{
		FailAppendWrite,
		FailAppendSync,
		FailCkptWrite,
		FailCkptSync,
		FailCkptRename,
		FailCkptRotate,
		FailCkptGC,
		FailAppendNoSpace,
		FailCheckpointNoSpace,
	}
}
