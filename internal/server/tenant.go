package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"incbubbles/internal/bubble"
	"incbubbles/internal/core"
	"incbubbles/internal/dataset"
	"incbubbles/internal/failpoint"
	"incbubbles/internal/telemetry"
	"incbubbles/internal/trace"
	"incbubbles/internal/wal"
)

// configFile and walSubdir lay out a tenant directory:
// <root>/<name>/tenant.json + <root>/<name>/wal/.
const (
	configFile = "tenant.json"
	walSubdir  = "wal"
)

// ingestReq is one admitted batch travelling from an HTTP handler to
// the tenant worker. done is buffered so the worker's reply never
// blocks on a handler that gave up waiting.
type ingestReq struct {
	ctx   context.Context
	batch dataset.Batch
	done  chan ingestResult

	// admitted is stamped by Admit; the worker measures the queue wait
	// against it at dequeue and carries it into the reply so the HTTP
	// layer can log it and stamp it on the request's trace span.
	admitted time.Time
	wait     time.Duration
}

type ingestResult struct {
	ordinal   int
	stats     core.BatchStats
	firstID   *uint64 // first server-assigned insert ID, nil if no inserts
	warning   string  // non-fatal trailing error (failed checkpoint)
	err       error
	queueWait time.Duration
}

func (r *ingestReq) reply(res ingestResult) {
	res.queueWait = r.wait
	r.done <- res
}

// degraded is the machine-readable read-only marker of the degradation
// ladder's bottom rung.
type degraded struct {
	Reason string // stable reason code, e.g. "wal_poisoned"
	Cause  string // human-readable underlying error
}

// readState is the snapshot read queries serve from: a fully
// independent bubble.Set (Save→Load round-trip, private counter and
// RNG) plus the scalar state of the moment it was taken. Workers
// publish a fresh one after every applied batch; readers never touch
// the live summarizer, so a poisoned or busy tenant keeps serving its
// last-good summary.
type readState struct {
	set     *bubble.Set
	applied int
	points  int
	dim     int
}

// TenantStatus is the externally visible state of one tenant.
type TenantStatus struct {
	Name     string `json:"name"`
	Seed     int64  `json:"seed"`
	Applied  int    `json:"applied"`
	Points   int    `json:"points"`
	Bubbles  int    `json:"bubbles"`
	Dim      int    `json:"dim"`
	Resumed  bool   `json:"resumed"`
	ReadOnly bool   `json:"read_only"`
	Reason   string `json:"reason,omitempty"`
	Cause    string `json:"cause,omitempty"`
	QueueLen int    `json:"queue_len"`
	QueueCap int    `json:"queue_cap"`
	// LastCheckpointAgeSeconds is the age of the tenant's newest durable
	// checkpoint, -1 before the first one completes in this process.
	LastCheckpointAgeSeconds float64 `json:"last_checkpoint_age_seconds"`
}

// tenantMetrics holds the serving layer's per-tenant metric handles,
// resolved once at construction so every family is present in the
// registry (and therefore in a /metrics scrape) from the tenant's first
// breath, not only after its first observation.
type tenantMetrics struct {
	queueDepth   *telemetry.Gauge
	queueWait    *telemetry.Histogram
	applySeconds *telemetry.Histogram
	httpRequests *telemetry.Counter
	httpSeconds  *telemetry.Histogram
	http429      *telemetry.Counter
	http503      *telemetry.Counter
}

func newTenantMetrics(sink *telemetry.Sink) tenantMetrics {
	return tenantMetrics{
		queueDepth:   sink.Gauge(telemetry.MetricServerQueueDepth),
		queueWait:    sink.Histogram(telemetry.MetricServerQueueWaitSeconds, telemetry.SecondsBounds()),
		applySeconds: sink.Histogram(telemetry.MetricServerApplySeconds, telemetry.SecondsBounds()),
		httpRequests: sink.Counter(telemetry.MetricServerHTTPRequests),
		httpSeconds:  sink.Histogram(telemetry.MetricServerHTTPSeconds, telemetry.SecondsBounds()),
		http429:      sink.Counter(telemetry.MetricServerHTTP429),
		http503:      sink.Counter(telemetry.MetricServerHTTP503),
	}
}

type tenant struct {
	name    string
	dir     string
	cfg     TenantConfig
	seed    int64
	resumed bool

	sink    *telemetry.Sink
	tracer  *trace.Tracer
	logger  *slog.Logger
	metrics tenantMetrics

	// Worker-owned (only the worker goroutine touches these after
	// start(); readers go through read).
	db  *dataset.DB
	sum *core.Summarizer
	log *wal.Log

	// admitMu guards the check-then-send on queue against closeQueue:
	// a send may otherwise race the close and panic.
	admitMu     sync.RWMutex
	queueClosed bool
	queue       chan *ingestReq

	read     atomic.Pointer[readState]
	degrade  atomic.Pointer[degraded]
	workerWG sync.WaitGroup
	finalErr error // set by the worker's finalization, read after drain

	// gate, when non-nil (tests only), is received from once per
	// admitted request before the worker processes it, making
	// queue-overflow and cancellation timing deterministic.
	gate chan struct{}
}

// await blocks on the test pacing gate, if installed.
func (t *tenant) await() {
	if t.gate != nil {
		//lint:allow ctxflow test-only pacing seam, never set in production
		<-t.gate
	}
}

// dequeued samples the observability series the worker owns, right as it
// picks a request off the queue: the request's admission wait and the
// queue depth left behind it. Worker-side sampling keeps the hot HTTP
// path free of histogram work and needs no extra synchronization — the
// single worker is the only writer.
func (t *tenant) dequeued(req *ingestReq) {
	req.wait = time.Since(req.admitted)
	t.metrics.queueWait.Observe(req.wait.Seconds())
	t.metrics.queueDepth.Set(float64(len(t.queue)))
}

// newTenant opens (or resumes) the tenant's durable state. The worker
// is not started yet — start() does, after the server registers it.
// opts carries the server-wide observability wiring (logger, tracing,
// failpoints); the tenant-specific knobs come from cfg.
func newTenant(name, dir string, cfg TenantConfig, seed int64, opts Options) (*tenant, error) {
	fp := opts.Failpoints
	walDir := filepath.Join(dir, walSubdir)
	resume := wal.HasState(walDir)
	var db *dataset.DB
	if !resume {
		// A fresh tenant's bootstrap is checked before anything is
		// written, so a rejected create leaves nothing on disk.
		var err error
		if db, err = bootstrapDB(cfg); err != nil {
			return nil, err
		}
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	onDisk, err := loadTenantConfig(dir)
	switch {
	case !resume || errors.Is(err, os.ErrNotExist):
		// No durable state behind the config (a fresh tenant, or a create
		// that never finished), or no config in front of the state:
		// (re)write it.
		persist := cfg
		persist.Bootstrap = nil // checkpointed, not config
		if err := saveTenantConfig(dir, persist); err != nil {
			return nil, err
		}
	case err != nil:
		return nil, err
	case onDisk.Dim != cfg.Dim:
		return nil, fmt.Errorf("%w: dim %d, durable state has %d", ErrConfigMismatch, cfg.Dim, onDisk.Dim)
	case onDisk.Bubbles != cfg.Bubbles:
		return nil, fmt.Errorf("%w: bubbles %d, durable state has %d", ErrConfigMismatch, cfg.Bubbles, onDisk.Bubbles)
	}

	tracer := opts.Tracer
	if tracer == nil && opts.TraceCapacity >= 0 {
		tracer = trace.New(trace.Options{Capacity: opts.TraceCapacity})
	}
	logger := opts.Logger
	if logger == nil {
		logger = discardLogger()
	}
	t := &tenant{
		name:   name,
		dir:    dir,
		cfg:    cfg,
		seed:   seed,
		sink:   telemetry.NewSink(),
		tracer: tracer,
		logger: logger.With("tenant", name),
		queue:  make(chan *ingestReq, cfg.QueueDepth),
		gate:   cfg.testGate,
	}
	t.metrics = newTenantMetrics(t.sink)
	coreOpts := core.Options{
		NumBubbles:            cfg.Bubbles,
		UseTriangleInequality: true,
		Seed:                  seed,
		Telemetry:             t.sink,
		Tracer:                t.tracer,
		Failpoints:            fp,
	}
	walOpts := wal.Options{
		Dir:             walDir,
		CheckpointEvery: cfg.CheckpointEvery,
		KeepCheckpoints: cfg.KeepCheckpoints,
		Telemetry:       t.sink,
		Tracer:          t.tracer,
		Failpoints:      fp,
	}
	if cfg.RetryAttempts > 1 {
		walOpts.CheckpointRetry = cfg.retryPolicy(seed)
	}

	if resume {
		st, err := wal.Resume(coreOpts, walOpts)
		if err != nil {
			return nil, err
		}
		t.db, t.sum, t.log, t.resumed = st.DB, st.Summarizer, st.Log, true
	} else {
		s, l, err := wal.New(db, coreOpts, walOpts)
		if err != nil {
			return nil, err
		}
		t.db, t.sum, t.log = db, s, l
	}
	t.publish()
	return t, nil
}

// bootstrapDB builds a fresh tenant's initial database from
// cfg.Bootstrap, which must hold at least cfg.Bubbles points of dimension
// cfg.Dim.
func bootstrapDB(cfg TenantConfig) (*dataset.DB, error) {
	if len(cfg.Bootstrap) < cfg.Bubbles {
		return nil, fmt.Errorf("%w: %d points for %d bubbles", ErrBadBootstrap, len(cfg.Bootstrap), cfg.Bubbles)
	}
	db := dataset.MustNew(cfg.Dim)
	for i, p := range cfg.Bootstrap {
		if _, err := db.Insert(p, 0); err != nil {
			return nil, fmt.Errorf("%w: point %d: %v", ErrBadBootstrap, i, err)
		}
	}
	return db, nil
}

func loadTenantConfig(dir string) (TenantConfig, error) {
	var cfg TenantConfig
	b, err := os.ReadFile(filepath.Join(dir, configFile))
	if err != nil {
		return cfg, err
	}
	if err := json.Unmarshal(b, &cfg); err != nil {
		return cfg, fmt.Errorf("server: %s: %w", configFile, err)
	}
	return cfg, nil
}

func saveTenantConfig(dir string, cfg TenantConfig) error {
	b, err := json.MarshalIndent(cfg, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, configFile), append(b, '\n'), 0o644)
}

// start launches the worker.
func (t *tenant) start() {
	t.workerWG.Add(1)
	go t.run()
}

// abandon releases a tenant that lost the registration race: its
// worker never started, so only the durable handles need closing.
func (t *tenant) abandon() {
	_ = t.log.Close()
}

// Admit enqueues one batch for ingestion without ever blocking: a full
// queue is ErrQueueFull (the admission-control 429), a degraded tenant
// is ErrReadOnly. On success the caller waits on req.done.
func (t *tenant) Admit(ctx context.Context, batch dataset.Batch) (*ingestReq, error) {
	if d := t.degrade.Load(); d != nil {
		return nil, fmt.Errorf("%w: %s", ErrReadOnly, d.Reason)
	}
	req := &ingestReq{ctx: ctx, batch: batch, done: make(chan ingestResult, 1), admitted: time.Now()}
	t.admitMu.RLock()
	defer t.admitMu.RUnlock()
	if t.queueClosed {
		return nil, ErrDraining
	}
	select {
	case t.queue <- req:
		return req, nil
	default:
		t.sink.Counter(telemetry.MetricServerQueueRejected).Inc()
		return nil, ErrQueueFull
	}
}

// closeQueue stops admissions for this tenant (Drain).
func (t *tenant) closeQueue() {
	t.admitMu.Lock()
	defer t.admitMu.Unlock()
	if !t.queueClosed {
		t.queueClosed = true
		close(t.queue)
	}
}

// awaitDrained blocks until the worker has drained and finalized.
func (t *tenant) awaitDrained(ctx context.Context) error {
	done := make(chan struct{})
	go func() {
		//lint:allow ctxflow the join runs in a helper goroutine; the select below races it against ctx.Done
		t.workerWG.Wait()
		close(done)
	}()
	select {
	case <-done:
		return t.finalErr
	case <-ctx.Done():
		return fmt.Errorf("server: tenant %s drain: %w", t.name, ctx.Err())
	}
}

func (t *tenant) status() TenantStatus {
	rs := t.read.Load()
	st := TenantStatus{
		Name:                     t.name,
		Seed:                     t.seed,
		Resumed:                  t.resumed,
		QueueLen:                 len(t.queue),
		QueueCap:                 cap(t.queue),
		LastCheckpointAgeSeconds: t.checkpointAge(),
	}
	if rs != nil {
		st.Applied = rs.applied
		st.Points = rs.points
		st.Dim = rs.dim
		st.Bubbles = rs.set.Len()
	}
	if d := t.degrade.Load(); d != nil {
		st.ReadOnly = true
		st.Reason = d.Reason
		st.Cause = d.Cause
	}
	return st
}

// checkpointAge reports seconds since the tenant's last durable
// checkpoint, -1 before the first one completes in this process.
func (t *tenant) checkpointAge() float64 {
	n := t.log.LastCheckpointNanos()
	if n == 0 {
		return -1
	}
	return time.Since(time.Unix(0, n)).Seconds()
}

// snapshot returns the current read state (never nil once the tenant
// is open — newTenant publishes the initial one).
func (t *tenant) snapshot() *readState { return t.read.Load() }

// publish replaces the read snapshot with an independent clone of the
// live summary. On a snapshot error the previous snapshot is kept —
// reads degrade to slightly stale rather than fail.
func (t *tenant) publish() {
	var buf bytes.Buffer
	if err := t.sum.Set().Save(&buf); err != nil {
		t.sink.Counter(telemetry.MetricServerSnapshotErrors).Inc()
		return
	}
	set, err := bubble.Load(&buf, bubble.Options{})
	if err != nil {
		t.sink.Counter(telemetry.MetricServerSnapshotErrors).Inc()
		return
	}
	t.read.Store(&readState{
		set:     set,
		applied: t.sum.Batches(),
		points:  t.db.Len(),
		dim:     t.db.Dim(),
	})
}

// run is the worker: the single goroutine that owns the tenant's
// database, summarizer and log. It applies each admitted batch on the
// spot, propagating the request's deadline through ApplyBatchContext.
// The core guarantees all-or-nothing under cancellation (mutation only
// starts after the last ctx check), and the worker mirrors that at the
// service level: the template batch is replayed into the database first
// and undone again if the summarizer provably consumed nothing. A
// poisoned WAL or a simulated crash degrades the tenant; when the queue
// closes the worker finalizes (final checkpoint, close).
func (t *tenant) run() {
	defer t.workerWG.Done()
	t.ingest()
	t.finalErr = t.finalize()
}

// ingest drains the queue until it closes or the tenant degrades.
func (t *tenant) ingest() {
	for req := range t.queue {
		t.dequeued(req)
		t.await()
		if err := req.ctx.Err(); err != nil {
			t.sink.Counter(telemetry.MetricServerCancelledBefore).Inc()
			req.reply(ingestResult{err: err})
			continue
		}
		if err := t.prepare(req.batch); err != nil {
			req.reply(ingestResult{err: err})
			continue
		}
		ordinal := t.sum.Batches()
		prevNext := t.db.NextID()
		applyStart := time.Now()
		applied, err := req.batch.Replay(t.db)
		if err != nil {
			// Unreachable after prepare validated the batch against the
			// database; a failure here means the two disagree, so fail stop.
			t.setDegraded("replay_failed", err)
			req.reply(ingestResult{err: fmt.Errorf("%w: replay_failed", ErrReadOnly)})
			t.rejectRemaining()
			return
		}
		stats, err := t.sum.ApplyBatchContext(req.ctx, applied)
		if t.sum.Batches() == ordinal+1 {
			// Committed. A surviving non-fatal error can only be a failed
			// write-behind checkpoint (or its rotation) collected at this
			// batch boundary, already re-attempted in place by the WAL's
			// own policy; surface it as a warning. A poisoned log or a simulated crash
			// still acks the batch (it is durable) but then degrades the
			// tenant: a real crash would have died right here, post-commit.
			res := ingestResult{ordinal: ordinal, stats: stats, firstID: firstInsertID(applied)}
			if err != nil {
				res.warning = err.Error()
			}
			t.metrics.applySeconds.Observe(time.Since(applyStart).Seconds())
			t.sink.Counter(telemetry.MetricServerIngested).Inc()
			t.publish()
			req.reply(res)
			if t.failStop(err) {
				t.rejectRemaining()
				return
			}
			continue
		}
		// Nothing consumed by the summarizer: undo the database replay so
		// the batch is all-or-nothing end to end, IDs included.
		undoBatch(t.db, applied, prevNext)
		if t.failStop(err) {
			req.reply(ingestResult{err: fmt.Errorf("%w: %s", ErrReadOnly, t.degrade.Load().Reason)})
			t.rejectRemaining()
			return
		}
		req.reply(ingestResult{err: err})
	}
}

// failStop degrades the tenant when err (or the log) says this tenant's
// process would be dead: a poisoned WAL, or a simulated crash — the
// failpoint convention is fail-stop, so the worker must not continue
// against durable state of unknown tail. The caller then replies and
// rejects everything still queued.
func (t *tenant) failStop(err error) bool {
	if perr := t.log.Poisoned(); perr != nil {
		t.setDegraded("wal_poisoned", perr)
		return true
	}
	if errors.Is(err, failpoint.ErrCrash) {
		t.setDegraded("simulated_crash", err)
		return true
	}
	return false
}

// rejectRemaining consumes the queue until it closes, failing every
// request with the degradation reason — admitted-but-unserved requests
// must not hang after the tenant flips read-only.
func (t *tenant) rejectRemaining() {
	for req := range t.queue {
		d := t.degrade.Load()
		req.reply(ingestResult{err: fmt.Errorf("%w: %s", ErrReadOnly, d.Reason)})
	}
}

// setDegraded flips the tenant read-only. Reads keep serving from the
// last published snapshot; Admit and the worker refuse ingestion with
// the machine-readable reason.
func (t *tenant) setDegraded(reason string, cause error) {
	if t.degrade.CompareAndSwap(nil, &degraded{Reason: reason, Cause: cause.Error()}) {
		t.sink.Counter(telemetry.MetricServerDegraded).Inc()
		t.logger.Warn("tenant degraded", "reason", reason, "cause", cause.Error())
	}
}

// prepare stamps server-assigned IDs onto the batch's inserts, continuing
// the database's allocator, and validates its deletes against the
// database and the batch's own earlier inserts, so a malformed batch is
// a rejected request rather than a Replay failure.
func (t *tenant) prepare(batch dataset.Batch) error {
	next := t.db.NextID()
	ins := make(map[dataset.PointID]struct{})
	del := make(map[dataset.PointID]struct{})
	for i := range batch {
		u := &batch[i]
		switch u.Op {
		case dataset.OpInsert:
			u.ID = next
			next++
			ins[u.ID] = struct{}{}
		case dataset.OpDelete:
			if _, dup := del[u.ID]; dup {
				return fmt.Errorf("%w: update %d deletes id %d twice", ErrBadBatch, i, u.ID)
			}
			if _, inBatch := ins[u.ID]; inBatch {
				delete(ins, u.ID)
			} else if t.db.Contains(u.ID) {
				del[u.ID] = struct{}{}
			} else {
				return fmt.Errorf("%w: update %d deletes unknown id %d", ErrBadBatch, i, u.ID)
			}
		}
	}
	return nil
}

// firstInsertID reports the first stamped insert ID of a prepared batch;
// the rest follow consecutively over the batch's inserts.
func firstInsertID(batch dataset.Batch) *uint64 {
	for _, u := range batch {
		if u.Op == dataset.OpInsert {
			id := uint64(u.ID)
			return &id
		}
	}
	return nil
}

// undoBatch reverses an applied template batch on the database:
// inserts are deleted, deletes are re-inserted with their recorded
// coordinates, walked in reverse so interleaved updates unwind in
// order. The allocator then rewinds to prevNext, so the next batch is
// assigned the same IDs this one was.
func undoBatch(db *dataset.DB, applied dataset.Batch, prevNext dataset.PointID) {
	for i := len(applied) - 1; i >= 0; i-- {
		u := applied[i]
		switch u.Op {
		case dataset.OpInsert:
			_, _ = db.Delete(u.ID)
		case dataset.OpDelete:
			_ = db.InsertWithID(dataset.Record{ID: u.ID, P: u.P, Label: u.Label})
		}
	}
	// Cannot fail: after the undo no live record is at or above prevNext.
	_ = db.SetNextID(prevNext)
}

// finalize closes the tenant's durable state at drain: a healthy tenant
// writes a final checkpoint (so a restart resumes without replaying any
// WAL suffix) and closes its log. A degraded tenant is abandoned exactly
// as a crash would leave it — no close, no final sync: its on-disk tail
// is whatever the fault left, and recovery owns it from here. Only its
// write-behind checkpoint, if one is in flight, is waited out, so no
// background write outlives the tenant.
func (t *tenant) finalize() error {
	if t.degrade.Load() != nil || t.log.Poisoned() != nil {
		_ = t.log.WaitCheckpoint()
		return nil
	}
	if err := t.log.Checkpoint(t.sum); err != nil {
		_ = t.log.Close()
		return fmt.Errorf("server: final checkpoint: %w", err)
	}
	t.logger.Info("final checkpoint", "applied", t.sum.Batches())
	return t.log.Close()
}
