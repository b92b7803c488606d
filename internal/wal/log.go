package wal

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"incbubbles/internal/core"
	"incbubbles/internal/dataset"
	"incbubbles/internal/failpoint"
	"incbubbles/internal/retry"
	"incbubbles/internal/telemetry"
	"incbubbles/internal/trace"
)

// Options configures the durability layer.
type Options struct {
	// Dir is the directory holding WAL segments and checkpoints. It is
	// created if missing. Required.
	Dir string
	// CheckpointEvery writes an automatic checkpoint after this many
	// applied batches (≤0 selects 8). Checkpoints bound replay time and
	// rotate the WAL to a fresh segment.
	CheckpointEvery int
	// KeepCheckpoints retains this many most-recent checkpoints (≤0
	// selects 2) so a corrupt newest checkpoint can fall back to the one
	// before it.
	KeepCheckpoints int
	// CheckpointRetry bounds in-place retries of a failed checkpoint
	// file write (internal/retry seeded-jitter backoff). The zero value
	// performs a single attempt — exactly the historical behaviour — and
	// a failed checkpoint always stays retryable at the next cadence
	// point regardless, so this policy only shortens the window in which
	// the WAL replay suffix grows. The policy's tuning fields
	// (MaxAttempts, delays, Multiplier, Jitter, Seed) and its Sleep seam
	// are honoured; its Retryable classifier and OnAttempt callback are
	// owned by the log (a simulated crash is never retried — fail-stop —
	// and retries are counted into wal.checkpoint_retries).
	CheckpointRetry retry.Policy
	// Telemetry receives the wal.* metrics (checkpoints, truncations,
	// quarantines, replayed batches, retries). Optional.
	Telemetry *telemetry.Sink
	// Failpoints threads a fault-injection registry through every I/O
	// boundary of the layer. Optional; nil evaluates points as disarmed.
	Failpoints *failpoint.Registry
	// Tracer records wal.append / wal.fsync / wal.checkpoint spans and
	// the recovery ladder (internal/trace). When the summarizer carries
	// the same tracer its batch span rides the context into BeforeApply /
	// AfterApply, so the WAL spans nest under the batch that caused them.
	// Optional; nil records nothing.
	Tracer *trace.Tracer
}

func (o Options) withDefaults() Options {
	if o.CheckpointEvery <= 0 {
		o.CheckpointEvery = 8
	}
	if o.KeepCheckpoints <= 0 {
		o.KeepCheckpoints = 2
	}
	return o
}

// On-disk names: segments are named by the first batch ordinal they may
// contain, checkpoints by the ordinal they cover. Rejected files are
// renamed aside with quarantineSuffix, never deleted, so an operator can
// inspect what recovery refused to trust.
const (
	segmentPrefix    = "wal-"
	segmentSuffix    = ".log"
	ckptPrefix       = "ckpt-"
	ckptSuffix       = ".ckpt"
	tmpSuffix        = ".tmp"
	quarantineSuffix = ".quarantined"
	ordinalDigits    = 16
)

func segmentName(first uint64) string {
	return fmt.Sprintf("%s%0*d%s", segmentPrefix, ordinalDigits, first, segmentSuffix)
}

func ckptName(ordinal uint64) string {
	return fmt.Sprintf("%s%0*d%s", ckptPrefix, ordinalDigits, ordinal, ckptSuffix)
}

// ErrPoisoned reports a log that refuses further writes because an
// earlier failure left its on-disk tail state unknown (a torn append, a
// failed fsync, or an apply that died after its batch was logged). The
// durable state is intact — recover with Resume.
var ErrPoisoned = errors.New("wal: log poisoned by earlier failure")

// Log is the write-ahead log of one Summarizer. It implements
// core.Durability: BeforeApply appends the batch to the current segment
// and syncs it before the summarizer mutates anything, and AfterApply
// takes automatic write-behind checkpoints (see AfterApply). All public
// entry points serialize on an internal mutex; the checkpoint writer
// goroutine never takes it.
type Log struct {
	dir    string
	opts   Options
	dim    int
	fail   *failpoint.Registry
	tracer *trace.Tracer
	m      walMetrics

	// mu serializes the log file: appends, rotation and fsync all happen
	// under it, so a crash can never observe a torn interleaving of two
	// records. Holding it across fsync is the design, not an accident:
	// the single ingest goroutine is its only contender, and waiting for a
	// write-behind checkpoint under it is safe because the writer never
	// takes it.
	//lint:lockcover blocking the log mutex deliberately covers fsync, rotation and the wait for a write-behind checkpoint (DESIGN.md §10)
	mu          sync.Mutex
	f           *os.File
	segSize     int64
	nextOrdinal uint64 // ordinal the next BeforeApply must carry
	sinceCkpt   int
	replaying   bool
	poisoned    error
	closed      bool
	inflight    *ckptWrite // write-behind checkpoint being written, nil when idle

	// lastCkpt is the wall-clock time of the last successful checkpoint,
	// in unix nanoseconds; 0 before the first. It feeds
	// the serving layer's last-checkpoint-age health surface and is kept
	// atomic so scrapes never contend with the log mutex across an fsync.
	lastCkpt atomic.Int64
}

// wallNanos timestamps checkpoint completion for the observability
// surfaces. It is never used as entropy or simulation state.
func wallNanos() int64 {
	//lint:allow seededrng last-checkpoint age is an observability timestamp, not simulation state
	return time.Now().UnixNano()
}

// LastCheckpointNanos returns the unix-nanosecond wall time of the last
// successful checkpoint, or 0 if none has completed since open.
func (l *Log) LastCheckpointNanos() int64 {
	if l == nil {
		return 0
	}
	return l.lastCkpt.Load()
}

// walMetrics holds the layer's metric handles, resolved once.
type walMetrics struct {
	appends         *telemetry.Counter
	appendBytes     *telemetry.Counter
	syncs           *telemetry.Counter
	truncations     *telemetry.Counter
	checkpoints     *telemetry.Counter
	checkpointBytes *telemetry.Counter
	quarantined     *telemetry.Counter
	replayed        *telemetry.Counter
	ckptRetries     *telemetry.Counter

	fsyncSeconds      *telemetry.Histogram
	checkpointSeconds *telemetry.Histogram
}

func newWALMetrics(sink *telemetry.Sink) walMetrics {
	return walMetrics{
		appends:         sink.Counter(telemetry.MetricWALAppends),
		appendBytes:     sink.Counter(telemetry.MetricWALAppendBytes),
		syncs:           sink.Counter(telemetry.MetricWALSyncs),
		truncations:     sink.Counter(telemetry.MetricWALTruncations),
		checkpoints:     sink.Counter(telemetry.MetricWALCheckpoints),
		checkpointBytes: sink.Counter(telemetry.MetricWALCheckpointBytes),
		quarantined:     sink.Counter(telemetry.MetricWALQuarantined),
		replayed:        sink.Counter(telemetry.MetricWALReplayedBatches),
		ckptRetries:     sink.Counter(telemetry.MetricWALCheckpointRetries),

		fsyncSeconds:      sink.Histogram(telemetry.MetricWALFsyncSeconds, telemetry.SecondsBounds()),
		checkpointSeconds: sink.Histogram(telemetry.MetricWALCheckpointSeconds, telemetry.SecondsBounds()),
	}
}

func newLog(dim int, opts Options) (*Log, error) {
	if opts.Dir == "" {
		return nil, errors.New("wal: Options.Dir is required")
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: creating %s: %w", opts.Dir, err)
	}
	return &Log{
		dir:    opts.Dir,
		opts:   opts,
		dim:    dim,
		fail:   opts.Failpoints,
		tracer: opts.Tracer,
		m:      newWALMetrics(opts.Telemetry),
	}, nil
}

// startSpan begins a WAL span: as a child of the batch span riding ctx
// when the summarizer is traced, else as a root span on the log's own
// tracer (standalone checkpoints, recovery). Nil-safe on both paths.
func (l *Log) startSpan(ctx context.Context, name string) *trace.Span {
	if parent := trace.FromContext(ctx); parent != nil {
		return parent.Start(name)
	}
	return l.tracer.Start(name)
}

// Dir returns the directory the log persists into.
func (l *Log) Dir() string { return l.dir }

// NextOrdinal returns the batch ordinal the next append must carry.
func (l *Log) NextOrdinal() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.nextOrdinal
}

// Poisoned returns the failure that froze the log, or nil while it is
// healthy.
func (l *Log) Poisoned() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.poisoned
}

// poison freezes the log after err and returns err. The first poisoning
// failure is retained; later operations fail with it wrapped in
// ErrPoisoned.
func (l *Log) poison(err error) error {
	if l.poisoned == nil {
		l.poisoned = fmt.Errorf("%w: %w", ErrPoisoned, err)
	}
	return err
}

// BeforeApply implements core.Durability: it makes the batch durable
// before the summarizer mutates anything. During recovery replay it only
// verifies the ordinal — the batch is already on stable storage.
//
// Failure semantics: an error before any byte reaches the segment (a
// rejected encode, an injected error with nothing written) leaves the log
// healthy and the batch simply not applied. Any failure that may have
// left bytes behind — a torn write, a short write that could not be
// rolled back, a failed fsync — poisons the log: the tail state on disk
// is unknown, so further appends are refused and the caller must Resume.
func (l *Log) BeforeApply(ctx context.Context, ordinal uint64, batch dataset.Batch) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.poisoned != nil {
		return l.poisoned
	}
	if l.closed {
		return errors.New("wal: log is closed")
	}
	if ordinal != l.nextOrdinal {
		return l.poison(fmt.Errorf("wal: batch ordinal %d, expected %d", ordinal, l.nextOrdinal))
	}
	if l.replaying {
		l.nextOrdinal++
		l.m.replayed.Inc()
		return nil
	}
	sp := l.startSpan(ctx, "wal.append")
	defer sp.End()
	sp.SetInt(trace.AttrOrdinal, int64(ordinal))
	payload, err := encodePayload(l.dim, ordinal, batch)
	if err != nil {
		return err
	}
	frame := frameRecord(payload)
	sp.SetInt(trace.AttrBytes, int64(len(frame)))
	keep, injected := l.fail.HitWrite(FailAppendWrite, len(frame))
	if injected == nil {
		keep, injected = l.fail.HitWrite(FailAppendNoSpace, keep)
	}
	var wrote int
	var werr error
	if keep > 0 {
		wrote, werr = l.f.Write(frame[:keep])
	}
	if injected != nil {
		if wrote > 0 {
			// A torn write: persist the partial frame the way a power
			// loss would, then freeze.
			_ = l.f.Sync()
			return l.poison(injected)
		}
		if errors.Is(injected, failpoint.ErrNoSpace) {
			// Disk full is fail-stop even with nothing written: see
			// FailAppendNoSpace.
			return l.poison(injected)
		}
		return injected // nothing written; log still healthy
	}
	if werr != nil {
		// Real write error: try to roll the segment back to the
		// pre-append boundary; only a clean rollback keeps the log alive.
		if rerr := l.rollbackAppend(); rerr != nil {
			return l.poison(fmt.Errorf("wal: append failed (%v) and rollback failed: %w", werr, rerr))
		}
		return fmt.Errorf("wal: appending batch %d: %w", ordinal, werr)
	}
	if err := l.fail.Hit(FailAppendSync); err != nil {
		return l.poison(err)
	}
	fsp := sp.Start("wal.fsync")
	fsp.SetInt(trace.AttrBytes, int64(len(frame)))
	syncStart := time.Now()
	err = l.f.Sync()
	l.m.fsyncSeconds.Observe(time.Since(syncStart).Seconds())
	fsp.End()
	if err != nil {
		return l.poison(fmt.Errorf("wal: syncing batch %d: %w", ordinal, err))
	}
	l.m.syncs.Inc()
	l.segSize += int64(len(frame))
	l.nextOrdinal++
	l.m.appends.Inc()
	l.m.appendBytes.Add(uint64(len(frame)))
	return nil
}

// rollbackAppend rewinds the segment to the pre-append boundary after a
// failed write. os.File.Truncate does not move the file offset, so the
// offset is seeked back explicitly — without the seek the next append
// would land past the boundary, leaving a zero-filled gap that recovery
// reads as a corrupt tail and truncates, silently dropping every record
// after it.
func (l *Log) rollbackAppend() error {
	if err := l.f.Truncate(l.segSize); err != nil {
		return err
	}
	_, err := l.f.Seek(l.segSize, io.SeekStart)
	return err
}

// AfterApply implements core.Durability. On a clean apply it counts the
// batch toward the automatic checkpoint cadence; when the apply failed
// mid-mutation it poisons the log — the batch is durable but the
// in-memory summary is in an unknown intermediate state, so the log (the
// durable truth) stops advancing until the caller resumes from disk.
//
// Cadence checkpoints are write-behind: the image is encoded here, at
// the batch boundary, and a background goroutine writes, fsyncs and
// installs it while the next batches proceed. The first AfterApply that
// finds the write finished collects it (see settleCheckpoint). A
// checkpoint that comes due while the previous one is still being
// written waits for it first — checkpoints never coalesce.
func (l *Log) AfterApply(ctx context.Context, s *core.Summarizer, applyErr error) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if applyErr != nil {
		if !l.replaying {
			_ = l.poison(fmt.Errorf("apply failed after batch was logged: %w", applyErr))
		}
		return nil // never mask the apply error
	}
	if l.replaying || l.poisoned != nil || l.closed {
		return nil
	}
	l.sinceCkpt++
	if l.sinceCkpt < l.opts.CheckpointEvery {
		//lint:allow ctxflow settleCheckpoint(false) never blocks: it collects only a write that has already finished
		return l.settleCheckpoint(false)
	}
	// The batch is committed; its cadence point must not be abandoned.
	//lint:allow ctxflow waiting out the previous write-behind checkpoint is bounded by that write, never by a request deadline
	if err := l.settleCheckpoint(true); err != nil {
		return err
	}
	w, err := l.beginCheckpoint(ctx, s)
	if err != nil {
		return err
	}
	l.inflight = w
	go func() {
		w.err = l.writeCheckpoint(w)
		close(w.done)
	}()
	return nil
}

// Checkpoint atomically persists s (database + bubble snapshot) and
// rotates the WAL to a fresh segment: write to a temp file, fsync,
// rename into place, fsync the directory. It first waits for a
// write-behind checkpoint still in flight; this checkpoint supersedes
// that one, so a failure of it is dropped unless it was a simulated
// crash (fail-stop). A checkpoint failure does not poison the log — the
// previous checkpoint plus the intact WAL still reconstruct the state —
// so the caller may keep applying batches and retry.
func (l *Log) Checkpoint(s *core.Summarizer) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.settleCheckpoint(true); errors.Is(err, failpoint.ErrCrash) {
		return err
	}
	w, err := l.beginCheckpoint(context.Background(), s)
	if err != nil {
		return err
	}
	if err := l.writeCheckpoint(w); err != nil {
		return err
	}
	return l.rotateAndCollect()
}

// WaitCheckpoint blocks until the write-behind checkpoint in flight, if
// any, is installed or has failed, collects it (see settleCheckpoint)
// and returns its failure. A caller that abandons the log to simulate a
// crash waits here first, so no background write races the recovery
// that follows.
func (l *Log) WaitCheckpoint() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.settleCheckpoint(true)
}

// ckptWrite is one checkpoint image on its way to disk. err is set
// before done closes.
type ckptWrite struct {
	ordinal uint64
	data    []byte
	sp      *trace.Span
	start   time.Time
	done    chan struct{}
	err     error
}

// settleCheckpoint collects the write-behind checkpoint once its writer
// has finished — waiting for it when wait is set, else only if it is
// already done — and reports its failure. Each failure is reported once,
// to the first collector: an AfterApply, Checkpoint, Close or
// WaitCheckpoint. Once the image is installed the log rotates to a fresh
// segment and garbage-collects here, on the caller's goroutine, where
// segment I/O stays serialized under l.mu — and after the batch that
// took the checkpoint, because rotating on that batch measurably raised
// ingest p95 (DESIGN.md §13). Runs with l.mu held; the writer never
// takes it.
func (l *Log) settleCheckpoint(wait bool) error {
	w := l.inflight
	if w == nil {
		return nil
	}
	if wait {
		<-w.done
	} else {
		select {
		case <-w.done:
		default:
			return nil
		}
	}
	l.inflight = nil
	if w.err != nil || l.poisoned != nil {
		return w.err
	}
	return l.rotateAndCollect()
}

// rotateAndCollect follows an installed checkpoint: the WAL moves to a
// fresh segment named after the next ordinal — records the checkpoint
// already covers may sit at the head of the old one, which recovery
// skips — and superseded checkpoints and segments are removed.
func (l *Log) rotateAndCollect() error {
	if err := l.rotate(); err != nil {
		return err
	}
	return l.gc()
}

// beginCheckpoint is the synchronous half of every checkpoint, run with
// l.mu held at a batch boundary, the only moment s is quiescent: it
// encodes s. The span it opens (a child of the batch span riding ctx) is
// ended by writeCheckpoint.
func (l *Log) beginCheckpoint(ctx context.Context, s *core.Summarizer) (*ckptWrite, error) {
	if l.poisoned != nil {
		return nil, l.poisoned
	}
	if l.closed {
		return nil, errors.New("wal: log is closed")
	}
	if uint64(s.Batches()) != l.nextOrdinal {
		return nil, fmt.Errorf("wal: summarizer at batch %d but log at %d", s.Batches(), l.nextOrdinal)
	}
	w := &ckptWrite{ordinal: l.nextOrdinal, sp: l.startSpan(ctx, "wal.checkpoint"), start: time.Now(), done: make(chan struct{})}
	w.sp.SetInt(trace.AttrOrdinal, int64(w.ordinal))
	data, err := encodeCheckpoint(s)
	if err != nil {
		w.sp.End()
		return nil, err
	}
	w.data = data
	w.sp.SetInt(trace.AttrBytes, int64(len(data)))
	l.sinceCkpt = 0
	return w, nil
}

// writeCheckpoint is the I/O half: temp write → fsync → rename → fsync
// dir under the CheckpointRetry policy. It touches only the checkpoint
// file and the directory — never the segment file or any state guarded
// by l.mu — so it runs inline for Checkpoint and on the writer goroutine
// for cadence checkpoints. The writer has no request context by design:
// a checkpoint must not be abandoned mid-write by an ingest deadline.
func (l *Log) writeCheckpoint(w *ckptWrite) error {
	defer w.sp.End()
	//lint:allow ctxflow a checkpoint write is deliberately not cancellable by request contexts
	err := retry.Do(context.Background(), l.checkpointRetryPolicy(), func(context.Context) error {
		return l.writeCheckpointFile(w.sp, w.ordinal, w.data)
	})
	if err != nil {
		return fmt.Errorf("wal: checkpoint %d: %w", w.ordinal, err)
	}
	l.m.checkpoints.Inc()
	l.m.checkpointBytes.Add(uint64(len(w.data)))
	l.m.checkpointSeconds.Observe(time.Since(w.start).Seconds())
	l.lastCkpt.Store(wallNanos())
	return nil
}

// checkpointRetryPolicy resolves the caller's CheckpointRetry tuning
// with the log-owned classifier and telemetry callback. The classifier
// never retries a simulated crash — by the failpoint convention the
// process is dead at that instant — while everything else (ENOSPC on
// the temp write, a failed rename) is retryable because a failed
// attempt leaves only an invisible temp file behind. Once attempts are
// exhausted the cadence is the outer fallback.
func (l *Log) checkpointRetryPolicy() retry.Policy {
	p := l.opts.CheckpointRetry
	p.Retryable = func(err error) bool { return !errors.Is(err, failpoint.ErrCrash) }
	p.OnAttempt = func(a retry.Attempt) {
		if !a.Last {
			l.m.ckptRetries.Inc()
		}
	}
	return p
}

// writeCheckpointFile performs the write-temp → fsync → rename → fsync-dir
// dance. A leftover temp file from an interrupted attempt is invisible to
// recovery and overwritten by the next attempt.
func (l *Log) writeCheckpointFile(sp *trace.Span, ordinal uint64, data []byte) error {
	final := filepath.Join(l.dir, ckptName(ordinal))
	tmp := final + tmpSuffix
	keep, injected := l.fail.HitWrite(FailCkptWrite, len(data))
	if injected == nil {
		keep, injected = l.fail.HitWrite(FailCheckpointNoSpace, keep)
	}
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if keep > 0 {
		if _, werr := f.Write(data[:keep]); werr != nil {
			_ = f.Close()
			return werr
		}
	}
	if injected != nil {
		_ = f.Sync()
		_ = f.Close()
		return injected
	}
	if err := l.fail.Hit(FailCkptSync); err != nil {
		_ = f.Close()
		return err
	}
	fsp := sp.Start("wal.fsync")
	fsp.SetInt(trace.AttrBytes, int64(len(data)))
	serr := f.Sync()
	fsp.End()
	if serr != nil {
		_ = f.Close()
		return serr
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := l.fail.Hit(FailCkptRename); err != nil {
		return err
	}
	if err := os.Rename(tmp, final); err != nil {
		return err
	}
	return syncDir(l.dir)
}

// rotate closes the current segment and opens a fresh one named after the
// next ordinal, so each checkpoint starts an empty replay suffix.
func (l *Log) rotate() error {
	if err := l.fail.Hit(FailCkptRotate); err != nil {
		return err
	}
	if l.f != nil {
		_ = l.f.Sync()
		if err := l.f.Close(); err != nil {
			l.f = nil
			return l.poison(err)
		}
		l.f = nil
	}
	return l.openSegment(l.nextOrdinal)
}

// openSegment creates (or truncates) the segment for batches ≥ first and
// makes it the append target. Truncation is safe: a pre-existing file of
// the same name can only be an empty or torn leftover of a crashed run —
// every decodable record below first has already been replayed or
// checkpointed.
func (l *Log) openSegment(first uint64) error {
	path := filepath.Join(l.dir, segmentName(first))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return l.poison(err)
	}
	if _, err := f.WriteString(segmentMagic); err != nil {
		_ = f.Close()
		return l.poison(err)
	}
	if err := f.Sync(); err != nil {
		_ = f.Close()
		return l.poison(err)
	}
	if err := syncDir(l.dir); err != nil {
		_ = f.Close()
		return l.poison(err)
	}
	l.f = f
	l.segSize = int64(len(segmentMagic))
	return nil
}

// gc removes checkpoints beyond the retention window and segments wholly
// covered by the oldest retained checkpoint. Removal failures are left
// for the next cadence point; only an injected fault surfaces.
func (l *Log) gc() error {
	if err := l.fail.Hit(FailCkptGC); err != nil {
		return err
	}
	ckpts, segs, err := listState(l.dir)
	if err != nil || len(ckpts) == 0 {
		return nil
	}
	if len(ckpts) > l.opts.KeepCheckpoints {
		for _, c := range ckpts[:len(ckpts)-l.opts.KeepCheckpoints] {
			_ = os.Remove(c.path)
		}
		ckpts = ckpts[len(ckpts)-l.opts.KeepCheckpoints:]
	}
	oldest := ckpts[0].ordinal
	// Segment i spans ordinals [segs[i].ordinal, segs[i+1].ordinal): it is
	// disposable only when that whole span is at or below the oldest
	// retained checkpoint. The newest segment is never removed.
	for i := 0; i+1 < len(segs); i++ {
		if segs[i+1].ordinal <= oldest {
			_ = os.Remove(segs[i].path)
		}
	}
	return nil
}

// Close syncs and closes the current segment. The durable state stays
// resumable; Close only ends this process's append session. A
// write-behind checkpoint still in flight is awaited first; its failure
// is reported but never blocks the close.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	err := l.settleCheckpoint(true)
	if l.closed || l.f == nil {
		l.closed = true
		return err
	}
	l.closed = true
	// Sync whenever the log is healthy. Every append already synced its
	// record, so this is a cheap no-op kept as a backstop.
	if l.poisoned == nil {
		if serr := l.f.Sync(); err == nil && serr != nil {
			err = serr
		}
	}
	if cerr := l.f.Close(); err == nil && cerr != nil {
		err = cerr
	}
	l.f = nil
	return err
}

// fileRef is one on-disk segment or checkpoint, with the ordinal parsed
// from its name.
type fileRef struct {
	path    string
	ordinal uint64
}

// listState enumerates the checkpoints and segments in dir, each sorted
// by ascending ordinal. Temp files, quarantined files and foreign names
// are ignored.
func listState(dir string) (ckpts, segs []fileRef, err error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, fmt.Errorf("wal: listing %s: %w", dir, err)
	}
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		name := e.Name()
		if ord, ok := parseName(name, ckptPrefix, ckptSuffix); ok {
			ckpts = append(ckpts, fileRef{path: filepath.Join(dir, name), ordinal: ord})
		} else if ord, ok := parseName(name, segmentPrefix, segmentSuffix); ok {
			segs = append(segs, fileRef{path: filepath.Join(dir, name), ordinal: ord})
		}
	}
	sort.Slice(ckpts, func(a, b int) bool { return ckpts[a].ordinal < ckpts[b].ordinal })
	sort.Slice(segs, func(a, b int) bool { return segs[a].ordinal < segs[b].ordinal })
	return ckpts, segs, nil
}

func parseName(name, prefix, suffix string) (uint64, bool) {
	if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
		return 0, false
	}
	digits := strings.TrimSuffix(strings.TrimPrefix(name, prefix), suffix)
	if len(digits) != ordinalDigits {
		return 0, false
	}
	ord, err := strconv.ParseUint(digits, 10, 64)
	if err != nil {
		return 0, false
	}
	return ord, true
}

// syncDir fsyncs a directory so a rename or create within it is durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}
