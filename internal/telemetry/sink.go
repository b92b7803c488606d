package telemetry

// Canonical metric names. Instrumented packages resolve handles for these
// once and update them atomically; DESIGN.md §8 documents the full schema.
const (
	// MetricDistanceComputed / MetricDistancePruned mirror the
	// vecmath.Counter the summarizer routes all distance accounting
	// through. They are fed exclusively by deltas of that counter taken at
	// phase boundaries, so the two surfaces can never disagree (the
	// cross-check test in internal/core pins this).
	MetricDistanceComputed = "distance.computed"
	MetricDistancePruned   = "distance.pruned"

	MetricCoreBatches        = "core.batches"
	MetricCoreInserts        = "core.inserts"
	MetricCoreDeletes        = "core.deletes"
	MetricCoreRebuilt        = "core.rebuilt"
	MetricCoreRounds         = "core.maintenance_rounds"
	MetricCoreDonorsFromGood = "core.donors_from_good"
	MetricCoreBubbles        = "core.bubbles"
	MetricCoreAuditRuns      = "core.audit.runs"
	MetricCoreAuditViolation = "core.audit.violations"

	// Per-phase timings of the two-phase assignment pipeline (DESIGN.md
	// §7): the concurrent closest-seed search fan-out, the serial apply
	// walk, and the classify→merge/split maintenance rounds.
	MetricPhaseSearchSeconds   = "core.phase.search_seconds"
	MetricPhaseApplySeconds    = "core.phase.apply_seconds"
	MetricPhaseMaintainSeconds = "core.phase.maintain_seconds"

	// MetricWorkerComputed observes each worker's private distance tally
	// as it is merged at a phase boundary — the distribution behind the
	// totals above.
	MetricWorkerComputed = "core.assign.worker_computed"

	MetricOpticsSpaceBuilds  = "optics.space.builds"
	MetricOpticsSpaceObjects = "optics.space.objects"
	MetricOpticsSpaceSeconds = "optics.space.build_seconds"
	MetricOpticsRuns         = "optics.runs"
	MetricOpticsRunSeconds   = "optics.run_seconds"

	// Durability layer (internal/wal): write-ahead log appends and syncs,
	// checkpoints, and the degradation events of the recovery ladder
	// (DESIGN.md §10).
	MetricWALAppends         = "wal.appends"
	MetricWALAppendBytes     = "wal.append_bytes"
	MetricWALSyncs           = "wal.syncs"
	MetricWALTruncations     = "wal.truncations"
	MetricWALCheckpoints     = "wal.checkpoints"
	MetricWALCheckpointBytes = "wal.checkpoint_bytes"
	MetricWALQuarantined     = "wal.quarantined"
	MetricWALReplayedBatches = "wal.replayed_batches"
	// MetricWALCheckpointRetries counts checkpoint write attempts that
	// failed retryably and were re-tried in place by the configured
	// backoff policy (Options.CheckpointRetry).
	MetricWALCheckpointRetries = "wal.checkpoint_retries"

	// WAL latency histograms (SecondsBounds buckets): each fsync the
	// layer issues, and each whole checkpoint (encode + temp write +
	// fsync + rename), explicit or write-behind alike.
	MetricWALFsyncSeconds      = "wal.fsync_seconds"
	MetricWALCheckpointSeconds = "wal.checkpoint_seconds"

	// Serving layer (internal/server): per-tenant ingest accounting and
	// the fault-tolerance machinery around it (DESIGN.md §15).
	MetricServerIngested        = "server.batches_ingested"
	MetricServerQueueRejected   = "server.queue_rejected"
	MetricServerDegraded        = "server.tenant_degraded"
	MetricServerSnapshotErrors  = "server.snapshot_errors"
	MetricServerCancelledBefore = "server.cancelled_before_apply"

	// Serving-layer observability series (DESIGN.md §16). The worker
	// samples queue depth and admission waits itself at each dequeue;
	// apply latency covers worker pickup to durability ack; the HTTP
	// counters/histogram are per tenant-routed request, with the 429/503
	// backpressure outcomes broken out.
	MetricServerQueueDepth       = "server.queue_depth"
	MetricServerQueueWaitSeconds = "server.queue_wait_seconds"
	MetricServerApplySeconds     = "server.apply_seconds"
	MetricServerHTTPRequests     = "server.http_requests"
	MetricServerHTTPSeconds      = "server.http_request_seconds"
	MetricServerHTTP429          = "server.http_429"
	MetricServerHTTP503          = "server.http_503"

	// Scrape-synthesized series: not resolved through a Sink but written
	// directly by the /metrics exposition from live component state (the
	// degradation ladder, the WAL's checkpoint clock, the span ring's
	// drop counter). Declared here so every exported series still comes
	// from this one catalog block (the metriccatalog analyzer pins that).
	MetricServerLadderState   = "server.ladder_state"
	MetricServerCheckpointAge = "server.last_checkpoint_age_seconds"
	MetricTraceSpansDropped   = "trace.spans_dropped"
)

// SecondsBounds is the shared bucket layout for phase-timing histograms:
// exponential from 1µs to 10s.
func SecondsBounds() []float64 {
	return []float64{1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1, 10}
}

// CountBounds is the shared bucket layout for per-worker tally histograms:
// powers of four from 1 to ~1M.
func CountBounds() []float64 {
	return []float64{1, 4, 16, 64, 256, 1024, 4096, 16384, 65536, 262144, 1048576}
}

// Sink is the metrics registry one instrumented component reports into.
// A nil *Sink is a valid no-op receiver, so call sites need no guards.
type Sink struct {
	Metrics *Registry
}

// NewSink returns a sink with a fresh registry.
func NewSink() *Sink {
	return &Sink{Metrics: NewRegistry()}
}

// Counter resolves a counter handle. Safe on a nil sink: returns a
// detached handle whose updates go nowhere visible.
func (s *Sink) Counter(name string) *Counter {
	if s == nil || s.Metrics == nil {
		return &Counter{}
	}
	return s.Metrics.Counter(name)
}

// Gauge resolves a gauge handle, with the same nil behaviour as Counter.
func (s *Sink) Gauge(name string) *Gauge {
	if s == nil || s.Metrics == nil {
		return &Gauge{}
	}
	return s.Metrics.Gauge(name)
}

// Histogram resolves a histogram handle, with the same nil behaviour as
// Counter.
func (s *Sink) Histogram(name string, bounds []float64) *Histogram {
	if s == nil || s.Metrics == nil {
		return newHistogram(bounds)
	}
	return s.Metrics.Histogram(name, bounds)
}
