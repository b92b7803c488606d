package wal

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"sort"

	"incbubbles/internal/core"
	"incbubbles/internal/dataset"
	"incbubbles/internal/trace"
)

// ErrNoState reports a Resume against a directory with no checkpoint to
// recover from.
var ErrNoState = errors.New("wal: no durable state to resume")

// HasState reports whether dir holds any WAL segment or checkpoint, i.e.
// whether Resume rather than New is the right entry point.
func HasState(dir string) bool {
	ckpts, segs, err := listState(dir)
	return err == nil && (len(ckpts) > 0 || len(segs) > 0)
}

// New builds a fresh durable summarizer: it creates the WAL directory,
// constructs the summarizer over db with the log wired in as its
// durability layer, and takes checkpoint 0 so the directory is resumable
// from the first moment. Segment 0 is opened only once that checkpoint is
// installed (by its rotation), so a New that fails before then leaves no
// durable state behind. The directory must not already hold durable
// state — Resume owns that case.
func New(db *dataset.DB, coreOpts core.Options, walOpts Options) (*core.Summarizer, *Log, error) {
	walOpts = walOpts.withDefaults()
	if HasState(walOpts.Dir) {
		return nil, nil, fmt.Errorf("wal: %s already holds durable state, use Resume", walOpts.Dir)
	}
	l, err := newLog(db.Dim(), walOpts)
	if err != nil {
		return nil, nil, err
	}
	coreOpts.Durability = l
	if coreOpts.Failpoints == nil {
		coreOpts.Failpoints = walOpts.Failpoints
	}
	s, err := core.New(db, coreOpts)
	if err != nil {
		_ = l.Close()
		return nil, nil, err
	}
	if err := l.Checkpoint(s); err != nil {
		_ = l.Close()
		return nil, nil, fmt.Errorf("wal: initial checkpoint: %w", err)
	}
	return s, l, nil
}

// RecoveredState is the result of a Resume: the reconstructed summarizer
// and database, the reopened log, and how recovery got there.
type RecoveredState struct {
	Summarizer *core.Summarizer
	DB         *dataset.DB
	Log        *Log
	// Batches is the batch ordinal the summarizer resumed at.
	Batches int
	// Replayed counts the WAL records re-applied on top of the checkpoint.
	Replayed int
}

// Resume reconstructs the summarizer persisted in walOpts.Dir and reopens
// the log for further appends. Recovery degrades gracefully down a
// ladder: WAL segments are truncated at their first undecodable record;
// checkpoints are tried newest-first, and one that fails to decode, to
// rebuild, or to pass the post-replay invariant audit is quarantined
// (renamed aside, never deleted) before falling back to the next; only
// when no checkpoint survives does Resume fail. coreOpts must carry the
// same Seed and Config as the original run — replay determinism derives
// every batch's randomness from (seed, ordinal).
func Resume(coreOpts core.Options, walOpts Options) (*RecoveredState, error) {
	walOpts = walOpts.withDefaults()
	m := newWALMetrics(walOpts.Telemetry)
	rsp := walOpts.Tracer.Start("wal.recover")
	defer rsp.End()
	ckpts, segs, err := listState(walOpts.Dir)
	if err != nil {
		return nil, err
	}
	if len(ckpts) == 0 {
		return nil, fmt.Errorf("%w: no checkpoint in %s", ErrNoState, walOpts.Dir)
	}
	ssp := rsp.Start("wal.scan")
	ssp.SetInt(trace.AttrCount, int64(len(segs)))
	records, err := scanAndRepair(segs, m)
	ssp.End()
	if err != nil {
		return nil, err
	}
	// The checkpoint ladder: newest first, quarantine what can't be
	// trusted, fall back.
	var fails []error
	for i := len(ckpts) - 1; i >= 0; i-- {
		st, err := tryRecover(ckpts[i], records, coreOpts, walOpts, rsp)
		// A record that decodes but cannot be re-applied is WAL damage,
		// not checkpoint damage: every older checkpoint would replay
		// through the same record and the whole ladder would drown.
		// Truncate the log just before it and retry the same checkpoint —
		// that recovers strictly more state than falling back. Each repair
		// removes at least one record, so the loop terminates.
		var rf *replayFault
		for errors.As(err, &rf) {
			if rerr := truncateAtFault(rf, records, &segs, m); rerr != nil {
				err = errors.Join(err, rerr)
				break
			}
			st, err = tryRecover(ckpts[i], records, coreOpts, walOpts, rsp)
		}
		if err == nil {
			return st, nil
		}
		fails = append(fails, fmt.Errorf("%s: %w", ckpts[i].path, err))
		quarantine(ckpts[i].path, m)
	}
	return nil, fmt.Errorf("wal: no usable checkpoint in %s: %w", walOpts.Dir, errors.Join(fails...))
}

// replayFault identifies a WAL record that decoded cleanly (framed, CRC
// intact) but could not be re-applied on top of the recovered state. It
// carries the record's provenance so Resume can cut the log just before
// it instead of condemning the checkpoint it was replayed onto.
type replayFault struct {
	ordinal uint64
	seg     string
	off     int64
	err     error
}

func (f *replayFault) Error() string {
	return fmt.Sprintf("wal: replaying batch %d: %v", f.ordinal, f.err)
}

func (f *replayFault) Unwrap() error { return f.err }

// truncateAtFault repairs the WAL after a replay fault: the segment
// holding the bad record is truncated just before its frame, every later
// segment is quarantined (its records follow the removed ordinal and can
// no longer follow any history the rebuilt log will write), and the
// in-memory record map and segment list are trimmed to match the disk.
func truncateAtFault(rf *replayFault, records map[uint64]record, segs *[]fileRef, m walMetrics) error {
	if err := os.Truncate(rf.seg, rf.off); err != nil {
		return fmt.Errorf("wal: truncating %s at replay fault: %w", rf.seg, err)
	}
	m.truncations.Inc()
	keep := (*segs)[:0]
	for _, s := range *segs {
		// Zero-padded names make lexical order the ordinal order.
		if s.path > rf.seg {
			quarantine(s.path, m)
			continue
		}
		keep = append(keep, s)
	}
	*segs = keep
	for ord := range records {
		if ord >= rf.ordinal {
			delete(records, ord)
		}
	}
	return nil
}

// scanAndRepair decodes every segment into an ordinal→record map and
// repairs damage in place: a segment with a torn or corrupt tail is
// truncated to its valid prefix, and a segment whose magic is wrong is
// quarantined wholesale.
func scanAndRepair(segs []fileRef, m walMetrics) (map[uint64]record, error) {
	records := make(map[uint64]record)
	for _, seg := range segs {
		data, err := os.ReadFile(seg.path)
		if err != nil {
			return nil, fmt.Errorf("wal: reading %s: %w", seg.path, err)
		}
		recs, validLen, tailErr := scanSegment(data)
		if errors.Is(tailErr, ErrBadMagic) {
			quarantine(seg.path, m)
			continue
		}
		if tailErr != nil {
			if err := os.Truncate(seg.path, int64(validLen)); err != nil {
				return nil, fmt.Errorf("wal: truncating %s: %w", seg.path, err)
			}
			m.truncations.Inc()
		}
		for _, rec := range recs {
			rec.seg = seg.path
			records[rec.ordinal] = rec
		}
	}
	return records, nil
}

// tryRecover attempts recovery from one checkpoint file: decode, rebuild
// the database and summarizer, replay the consecutive WAL suffix, then
// audit the result. Any failure rejects the checkpoint.
func tryRecover(ck fileRef, records map[uint64]record, coreOpts core.Options, walOpts Options, rsp *trace.Span) (*RecoveredState, error) {
	csp := rsp.Start("wal.try_checkpoint")
	defer csp.End()
	csp.SetInt(trace.AttrOrdinal, int64(ck.ordinal))
	data, err := os.ReadFile(ck.path)
	if err != nil {
		return nil, err
	}
	cp, err := decodeCheckpoint(data)
	if err != nil {
		return nil, err
	}
	if cp.ordinal != ck.ordinal {
		return nil, fmt.Errorf("%w: ordinal %d in file named %d", ErrBadCheckpoint, cp.ordinal, ck.ordinal)
	}
	db, err := cp.restoreDB()
	if err != nil {
		return nil, err
	}
	l, err := newLog(cp.dim, walOpts)
	if err != nil {
		return nil, err
	}
	l.replaying = true
	l.nextOrdinal = cp.ordinal
	coreOpts.Durability = l
	if coreOpts.Failpoints == nil {
		coreOpts.Failpoints = walOpts.Failpoints
	}
	s, err := core.Load(db, bytes.NewReader(cp.snapshot), coreOpts, int(cp.ordinal), int(cp.totalRebuilt))
	if err != nil {
		return nil, err
	}
	if err := checkOwnership(s, db); err != nil {
		return nil, err
	}
	psp := csp.Start("wal.replay")
	replayed, err := replay(s, db, cp, records)
	psp.SetInt(trace.AttrCount, int64(replayed))
	psp.End()
	if err != nil {
		return nil, err
	}
	if err := l.Poisoned(); err != nil {
		return nil, err
	}
	// The recovered summary must be internally consistent before the log
	// accepts new batches on top of it.
	if err := s.Set().CheckInvariants(); err != nil {
		return nil, fmt.Errorf("wal: recovered set: %w", err)
	}
	if vs := s.Audit(); len(vs) > 0 {
		return nil, fmt.Errorf("wal: recovered set fails audit: %v", vs[0])
	}
	l.replaying = false
	if err := l.openSegment(l.nextOrdinal); err != nil {
		return nil, err
	}
	// Count the replayed suffix toward the checkpoint cadence so a long
	// replay is re-checkpointed promptly instead of re-replayed next time.
	l.sinceCkpt = replayed
	return &RecoveredState{
		Summarizer: s,
		DB:         db,
		Log:        l,
		Batches:    s.Batches(),
		Replayed:   replayed,
	}, nil
}

// checkOwnership requires the restored snapshot's member IDs to be
// exactly the restored database's IDs: as many owned points as records,
// and every record owned. core.Load trusts the snapshot's IDs, and a
// replayed delete of a record no bubble owns would fail as a replay fault,
// truncating good log records, when the damage is in the checkpoint.
func checkOwnership(s *core.Summarizer, db *dataset.DB) error {
	set := s.Set()
	if set.OwnedPoints() != db.Len() {
		return fmt.Errorf("%w: snapshot owns %d points, database holds %d", ErrBadCheckpoint, set.OwnedPoints(), db.Len())
	}
	for i := 0; i < db.Len(); i++ {
		id := db.At(i).ID
		if _, ok := set.Owner(id); !ok {
			return fmt.Errorf("%w: database point %d has no owning bubble", ErrBadCheckpoint, id)
		}
	}
	return nil
}

// replay re-applies the consecutive run of logged batches starting at the
// checkpoint ordinal. Ordinals below the checkpoint are already folded
// in; a gap ends replay (records past a gap cannot be trusted to follow
// the recovered state). A record that cannot be re-applied — a dimension
// mismatch, a delete of an ID the database never held, an apply failure —
// surfaces as a *replayFault so Resume can truncate the log at its frame
// and retry, rather than condemning the checkpoint.
func replay(s *core.Summarizer, db *dataset.DB, cp *checkpointData, records map[uint64]record) (int, error) {
	ordinals := make([]uint64, 0, len(records))
	for ord := range records {
		if ord >= cp.ordinal {
			ordinals = append(ordinals, ord)
		}
	}
	sort.Slice(ordinals, func(a, b int) bool { return ordinals[a] < ordinals[b] })
	replayed := 0
	next := cp.ordinal
	for _, ord := range ordinals {
		if ord != next {
			break
		}
		rec := records[ord]
		fault := func(err error) error {
			return &replayFault{ordinal: ord, seg: rec.seg, off: rec.off, err: err}
		}
		if rec.dim != cp.dim {
			return replayed, fault(fmt.Errorf("%w: dimensionality %d != %d", ErrBadRecord, rec.dim, cp.dim))
		}
		batch, err := applyToDB(db, rec.batch)
		if err != nil {
			return replayed, fault(err)
		}
		if _, err := s.ApplyBatchContext(context.Background(), batch); err != nil {
			return replayed, fault(err)
		}
		replayed++
		next++
	}
	return replayed, nil
}

// applyToDB executes a logged batch against the database exactly like the
// live path's Batch.Apply, except inserts restore their logged IDs:
// deletions re-resolve the victim's coordinates, and the summarizer then
// sees the same applied batch it saw in the original run.
func applyToDB(db *dataset.DB, batch dataset.Batch) (dataset.Batch, error) {
	return batch.Replay(db)
}

// quarantine renames a rejected file aside with quarantineSuffix so an
// operator can inspect it; recovery never trusts or deletes it again.
func quarantine(path string, m walMetrics) {
	_ = os.Rename(path, path+quarantineSuffix)
	m.quarantined.Inc()
}
