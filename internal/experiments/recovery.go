package experiments

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"os"

	"incbubbles/internal/core"
	"incbubbles/internal/dataset"
	"incbubbles/internal/synth"
	"incbubbles/internal/telemetry"
	"incbubbles/internal/wal"
)

// RecoveryResult reports one crash-recovery demonstration: a durable run
// killed mid-workload, resumed from disk, and compared bit-for-bit
// against the uninterrupted run.
type RecoveryResult struct {
	Batches   int  // workload length
	KillAt    int  // batch after which the run was killed
	ResumedAt int  // batch ordinal recovery landed on
	Replayed  int  // WAL records re-applied on top of the checkpoint
	Identical bool // recovered final state == uninterrupted final state

	Checkpoints uint64 // checkpoints written across both runs
	WALAppends  uint64 // batch records appended across both runs
}

// Recovery runs the §4 complex workload under the durability layer, kills
// the process state at the workload's midpoint (abandoning the open log
// exactly as a crash would), resumes from the newest checkpoint plus WAL
// replay, finishes the workload, and verifies the recovered summary is
// bit-identical to a never-interrupted run. walDir is wiped logically by
// using two fresh subdirectories under it (a temp directory when empty).
func Recovery(ctx context.Context, cfg Config, walDir string, checkpointEvery int) (*RecoveryResult, error) {
	cfg = cfg.WithDefaults()
	if walDir == "" {
		dir, err := os.MkdirTemp("", "incbubbles-recovery-")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		walDir = dir
	}
	sink := cfg.Telemetry
	walOpts := wal.Options{CheckpointEvery: checkpointEvery, Telemetry: sink, Tracer: cfg.Tracer}
	coreOpts := cfg.instrument(core.Options{
		NumBubbles:            cfg.Bubbles,
		UseTriangleInequality: true,
		Seed:                  cfg.Seed + 1,
		Config:                core.Config{Workers: cfg.Workers},
	})

	initial, batches, err := recoveryWorkload(cfg)
	if err != nil {
		return nil, err
	}
	res := &RecoveryResult{Batches: len(batches), KillAt: len(batches) / 2}

	// Uninterrupted reference run.
	refOpts := walOpts
	refOpts.Dir = walDir + "/reference"
	want, err := durableRun(ctx, initial.Clone(), batches, coreOpts, refOpts, len(batches))
	if err != nil {
		return nil, fmt.Errorf("reference run: %w", err)
	}

	// Crashed run: apply half the workload, then abandon the log.
	crashOpts := walOpts
	crashOpts.Dir = walDir + "/crashed"
	if _, err := durableRun(ctx, initial.Clone(), batches, coreOpts, crashOpts, res.KillAt); err != nil {
		return nil, fmt.Errorf("crashed run: %w", err)
	}
	st, err := wal.Resume(coreOpts, crashOpts)
	if err != nil {
		return nil, fmt.Errorf("resume: %w", err)
	}
	res.ResumedAt = st.Batches
	res.Replayed = st.Replayed
	for i := st.Batches; i < len(batches); i++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		applied, err := Reapply(st.DB, batches[i])
		if err != nil {
			return nil, fmt.Errorf("batch %d: %w", i, err)
		}
		if _, err := st.Summarizer.ApplyBatchContext(ctx, applied); err != nil {
			return nil, fmt.Errorf("batch %d: %w", i, err)
		}
	}
	got, err := wal.Fingerprint(st.Summarizer)
	if err != nil {
		return nil, err
	}
	// A checkpoint must not be abandoned halfway or the experiment's
	// recovered state would not match the fingerprint.
	//lint:allow ctxflow checkpoint durability barrier is deliberately not cancellable mid-write
	if err := st.Log.Checkpoint(st.Summarizer); err != nil {
		return nil, err
	}
	if err := st.Log.Close(); err != nil {
		return nil, err
	}
	res.Identical = bytes.Equal(got, want)
	if sink != nil {
		res.Checkpoints = sink.Metrics.Counter(telemetry.MetricWALCheckpoints).Value()
		res.WALAppends = sink.Metrics.Counter(telemetry.MetricWALAppends).Value()
	}
	return res, nil
}

// recoveryWorkload builds the initial database and the applied batches of
// a complex-scenario workload, reusable against clones of the initial
// state.
func recoveryWorkload(cfg Config) (*dataset.DB, []dataset.Batch, error) {
	sc, err := synth.NewScenario(synth.Config{
		Kind:           synth.Complex,
		InitialPoints:  cfg.Points,
		Batches:        cfg.Batches,
		UpdateFraction: cfg.UpdateFraction,
		Seed:           cfg.Seed,
	})
	if err != nil {
		return nil, nil, err
	}
	initial := sc.DB().Clone()
	batches := make([]dataset.Batch, cfg.Batches)
	for i := range batches {
		b, err := sc.NextBatch()
		if err != nil {
			return nil, nil, err
		}
		batches[i] = b
	}
	return initial, batches, nil
}

// durableRun builds a durable summarizer over db and applies the first
// upto batches. When upto covers the whole workload the log is closed
// cleanly and the final fingerprint returned; otherwise the log is
// abandoned open — the crash simulation — once any write-behind
// checkpoint has finished, so no background write races the resume.
func durableRun(ctx context.Context, db *dataset.DB, batches []dataset.Batch, coreOpts core.Options, walOpts wal.Options, upto int) ([]byte, error) {
	s, l, err := wal.New(db, coreOpts, walOpts)
	if err != nil {
		return nil, err
	}
	for i := 0; i < upto; i++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		applied, err := Reapply(db, batches[i])
		if err != nil {
			return nil, fmt.Errorf("batch %d: %w", i, err)
		}
		if _, err := s.ApplyBatchContext(ctx, applied); err != nil {
			return nil, fmt.Errorf("batch %d: %w", i, err)
		}
	}
	if upto < len(batches) {
		// Crash: leave the log open, its write-behind checkpoint settled.
		//lint:allow ctxflow the crash simulation must not race a checkpoint still being written
		return nil, l.WaitCheckpoint()
	}
	fp, err := wal.Fingerprint(s)
	if err != nil {
		return nil, err
	}
	return fp, l.Close()
}

// Reapply executes one pre-recorded applied batch against db, restoring
// insert IDs and re-resolving delete coordinates, without mutating the
// recorded template.
func Reapply(db *dataset.DB, batch dataset.Batch) (dataset.Batch, error) {
	return batch.Replay(db)
}

// WriteRecovery renders a RecoveryResult.
func WriteRecovery(w io.Writer, r *RecoveryResult) error {
	verdict := "IDENTICAL"
	if !r.Identical {
		verdict = "DIVERGED"
	}
	_, err := fmt.Fprintf(w,
		"workload: %d batches, killed after %d\n"+
			"recovered at batch %d (%d WAL records replayed)\n"+
			"final state vs uninterrupted run: %s\n",
		r.Batches, r.KillAt, r.ResumedAt, r.Replayed, verdict)
	return err
}
