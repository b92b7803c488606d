// Package server implements bubbled, the long-running multi-tenant
// summarization service (DESIGN.md §15). Each tenant is a fully
// independent fault domain: its own core.Summarizer, WAL directory,
// seed, and telemetry/trace namespace, fed through a bounded ingest
// queue by a single worker goroutine. Admission control (429 on
// overflow), a per-tenant degradation ladder (a poisoned WAL flips that
// tenant alone into read-only mode), and graceful drain (stop
// admissions, finish queued batches, final checkpoints)
// keep one tenant's faults from ever touching another's determinism
// guarantees.
package server

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"incbubbles/internal/failpoint"
	"incbubbles/internal/retry"
	"incbubbles/internal/trace"
	"incbubbles/internal/wal"
)

// Common errors. Handlers map them onto status codes and machine-
// readable reason strings (http.go).
var (
	ErrTenantExists   = errors.New("server: tenant already exists")
	ErrUnknownTenant  = errors.New("server: unknown tenant")
	ErrDraining       = errors.New("server: draining, admissions stopped")
	ErrQueueFull      = errors.New("server: ingest queue full")
	ErrReadOnly       = errors.New("server: tenant is read-only")
	ErrBadTenantName  = errors.New("server: tenant name must match [A-Za-z0-9_-]{1,64}")
	ErrConfigMismatch = errors.New("server: tenant config mismatch")
	ErrBadBootstrap   = errors.New("server: bootstrap must supply at least as many points as bubbles")
	ErrMissingDim     = errors.New("server: tenant config needs dim > 0")
	ErrAboveCap       = errors.New("server: tenant config value above its cap")
	ErrBadBatch       = errors.New("server: bad batch")
)

var tenantNameRE = regexp.MustCompile(`^[A-Za-z0-9_-]{1,64}$`)

// Options configures a Server.
type Options struct {
	// Root is the directory holding one subdirectory per tenant (the
	// tenant's config file and WAL). Required; created if missing.
	Root string
	// Seed is the base seed tenant seeds derive from when a tenant is
	// created without an explicit one. It must be stable across process
	// restarts: a tenant's derived seed must match the WAL it resumes.
	Seed int64
	// Defaults fills unset fields of every TenantConfig.
	Defaults TenantConfig
	// Failpoints optionally threads one fault-injection registry through
	// every tenant's core and WAL layers (the service-level chaos
	// harness arms it). Production runs leave it nil.
	Failpoints *failpoint.Registry
	// DrainTimeout bounds Drain when the caller's context has no
	// deadline (≤0 selects 30s).
	DrainTimeout time.Duration
	// Logger receives one structured line per tenant-routed request and
	// per lifecycle event (tenant opened/resumed, degraded, drain,
	// final checkpoint). Nil discards — the serving path never branches
	// on "is logging enabled".
	Logger *slog.Logger
	// Debug mounts the /debug/pprof/* handlers on the server mux
	// (cmd/bubbled's -debug flag). Off by default: profiling endpoints
	// are not for unauthenticated production exposure.
	Debug bool
	// TraceCapacity sizes each tenant's bounded span ring (0 selects
	// trace.DefaultCapacity, <0 disables tracing entirely — the bench
	// harness measures the untraced baseline that way).
	TraceCapacity int
	// Tracer, when non-nil, is shared by every tenant instead of a
	// per-tenant ring. Benchmarks inject a pre-sized tracer here;
	// production leaves it nil so /tenants/{t}/debug/trace stays
	// per-tenant.
	Tracer *trace.Tracer
}

// TenantConfig parameterises one tenant. The zero value of each field
// selects the server-wide default (Options.Defaults), then a built-in.
type TenantConfig struct {
	// Dim is the point dimensionality. Required on first creation;
	// validated against the resumed state on reopen.
	Dim int `json:"dim"`
	// Bubbles is the compression rate (core.Options.NumBubbles).
	Bubbles int `json:"bubbles"`
	// Seed overrides the derived per-tenant seed when non-zero.
	Seed int64 `json:"seed,omitempty"`
	// QueueDepth bounds the ingest queue; admission returns 429 beyond
	// it (≤0 selects 16, at most maxQueueDepth).
	QueueDepth int `json:"queue_depth,omitempty"`
	// PipelineDepth is decoded and ignored.
	//
	// Deprecated: every tenant ingests through one serial worker with
	// write-behind checkpoints (DESIGN.md §10); the field stays so
	// configs and tenant.json files that set it still decode.
	PipelineDepth int `json:"pipeline_depth,omitempty"`
	// CheckpointEvery / KeepCheckpoints tune the WAL (wal.Options; ≤0
	// selects that layer's defaults).
	CheckpointEvery int `json:"checkpoint_every,omitempty"`
	KeepCheckpoints int `json:"keep_checkpoints,omitempty"`
	// GroupCommit is decoded and ignored.
	//
	// Deprecated: the WAL fsyncs every batch record on its own; the field
	// stays so configs and tenant.json files that set it still decode.
	GroupCommit int `json:"group_commit,omitempty"`
	// RetryAttempts bounds the WAL's in-place checkpoint retries
	// (internal/retry seeded-jitter backoff; ≤0 selects 3, 1 disables,
	// at most maxRetryAttempts).
	RetryAttempts int `json:"retry_attempts,omitempty"`
	// Bootstrap is the initial point set the first bubble build runs
	// over. Creating a fresh tenant requires at least Bubbles points (the
	// build cannot seed more bubbles than it has points); the bootstrap
	// lands in the initial checkpoint, so it is not a batch and never
	// counts toward the applied ordinal. Ignored when the tenant resumes
	// from durable state, and never persisted to the config file.
	Bootstrap [][]float64 `json:"bootstrap,omitempty"`

	// testGate, when non-nil (in-package tests only — unexported, so it
	// never travels over the wire or to disk), paces the tenant worker:
	// one receive per admitted request before processing. It makes
	// queue-overflow and mid-flight cancellation timing deterministic.
	testGate chan struct{}
}

// withDefaults overlays c on d and fills built-ins. The deprecated
// fields are cleared rather than overlaid, so they never reach a
// tenant's config file.
func (c TenantConfig) withDefaults(d TenantConfig) TenantConfig {
	c.PipelineDepth, c.GroupCommit = 0, 0
	if c.Dim <= 0 {
		c.Dim = d.Dim
	}
	if c.Bubbles <= 0 {
		c.Bubbles = d.Bubbles
	}
	if c.Bubbles <= 0 {
		c.Bubbles = 16
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = d.QueueDepth
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 16
	}
	if c.CheckpointEvery <= 0 {
		c.CheckpointEvery = d.CheckpointEvery
	}
	if c.KeepCheckpoints <= 0 {
		c.KeepCheckpoints = d.KeepCheckpoints
	}
	if c.RetryAttempts <= 0 {
		c.RetryAttempts = d.RetryAttempts
	}
	if c.RetryAttempts <= 0 {
		c.RetryAttempts = 3
	}
	return c
}

// checkCaps rejects a queue depth or retry count above its cap.
func (c TenantConfig) checkCaps() error {
	if c.QueueDepth > maxQueueDepth {
		return fmt.Errorf("%w: queue_depth %d, cap %d", ErrAboveCap, c.QueueDepth, maxQueueDepth)
	}
	if c.RetryAttempts > maxRetryAttempts {
		return fmt.Errorf("%w: retry_attempts %d, cap %d", ErrAboveCap, c.RetryAttempts, maxRetryAttempts)
	}
	return nil
}

// retryPolicy is the tenant's backoff policy for checkpoint writes; the
// WAL supplies the classifier (a simulated crash is never retried).
func (c TenantConfig) retryPolicy(seed int64) retry.Policy {
	return retry.Policy{MaxAttempts: c.RetryAttempts, Seed: seed}
}

// deriveSeed gives a tenant a stable seed from the server base seed and
// its name, so a restarted server resumes each WAL under the seed that
// wrote it without persisting anything beyond the tenant config.
func deriveSeed(base int64, name string) int64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(name))
	s := int64(h.Sum64()) ^ base
	if s == 0 {
		s = 1
	}
	return s
}

// Server hosts the tenants. All methods are safe for concurrent use.
type Server struct {
	opts   Options
	logger *slog.Logger

	mu      sync.RWMutex
	tenants map[string]*tenant

	// nextReqID mints the per-request IDs the HTTP layer stamps onto
	// logs, trace spans and the X-Request-Id header.
	nextReqID atomic.Uint64

	draining atomic.Bool
	//lint:lockcover blocking Drain deliberately holds drainMu while tenants flush so concurrent Drain calls wait for the first to finish
	drainMu sync.Mutex // serializes Drain
	drained bool
}

// discardLogger satisfies every slog call without output (go1.22 has no
// slog.DiscardHandler yet).
func discardLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}

// New opens a server over Options.Root, resuming every tenant whose
// config file and WAL state are already present (a restart is a New over
// the same root). A directory with a config file but no WAL state is a
// create that never finished; it is skipped with a warning, and a later
// CreateTenant of that name starts it afresh.
func New(opts Options) (*Server, error) {
	if opts.Root == "" {
		return nil, errors.New("server: Options.Root is required")
	}
	if err := opts.Defaults.checkCaps(); err != nil {
		return nil, fmt.Errorf("server: defaults: %w", err)
	}
	if err := os.MkdirAll(opts.Root, 0o755); err != nil {
		return nil, err
	}
	if opts.Logger == nil {
		opts.Logger = discardLogger()
	}
	s := &Server{opts: opts, logger: opts.Logger, tenants: make(map[string]*tenant)}
	entries, err := os.ReadDir(opts.Root)
	if err != nil {
		return nil, err
	}
	for _, e := range entries {
		if !e.IsDir() || !tenantNameRE.MatchString(e.Name()) {
			continue
		}
		dir := filepath.Join(opts.Root, e.Name())
		cfg, err := loadTenantConfig(dir)
		if errors.Is(err, os.ErrNotExist) {
			continue // not a tenant directory
		}
		if !wal.HasState(filepath.Join(dir, walSubdir)) {
			s.logger.Warn("skipping unfinished tenant create", "tenant", e.Name())
			continue
		}
		if err != nil {
			return nil, fmt.Errorf("server: tenant %s: %w", e.Name(), err)
		}
		if _, err := s.openTenant(e.Name(), cfg); err != nil {
			return nil, fmt.Errorf("server: tenant %s: %w", e.Name(), err)
		}
	}
	return s, nil
}

// CreateTenant creates (or, when its directory already holds durable
// state, resumes) a tenant. Creating is idempotent for an identical
// config; a conflicting dim, or a conflicting bubbles count when cfg sets
// one, for a live tenant is ErrConfigMismatch.
func (s *Server) CreateTenant(name string, cfg TenantConfig) (*TenantStatus, error) {
	if !tenantNameRE.MatchString(name) {
		return nil, ErrBadTenantName
	}
	if s.draining.Load() {
		return nil, ErrDraining
	}
	s.mu.RLock()
	existing := s.tenants[name]
	s.mu.RUnlock()
	if existing != nil {
		want := cfg.withDefaults(s.opts.Defaults)
		have := existing.cfg
		if want.Dim != 0 && want.Dim != have.Dim {
			return nil, fmt.Errorf("%w: dim %d, tenant has %d", ErrConfigMismatch, want.Dim, have.Dim)
		}
		if cfg.Bubbles > 0 && cfg.Bubbles != have.Bubbles {
			return nil, fmt.Errorf("%w: bubbles %d, tenant has %d", ErrConfigMismatch, cfg.Bubbles, have.Bubbles)
		}
		st := existing.status()
		return &st, ErrTenantExists
	}
	return s.openTenant(name, cfg)
}

func (s *Server) openTenant(name string, cfg TenantConfig) (*TenantStatus, error) {
	cfg = cfg.withDefaults(s.opts.Defaults)
	if cfg.Dim <= 0 {
		return nil, ErrMissingDim
	}
	if err := cfg.checkCaps(); err != nil {
		return nil, err
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = deriveSeed(s.opts.Seed, name)
	}
	t, err := newTenant(name, filepath.Join(s.opts.Root, name), cfg, seed, s.opts)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	if s.tenants[name] != nil || s.draining.Load() {
		s.mu.Unlock()
		t.abandon()
		if s.draining.Load() {
			return nil, ErrDraining
		}
		return nil, ErrTenantExists
	}
	s.tenants[name] = t
	s.mu.Unlock()
	t.start()
	st := t.status()
	s.logger.Info("tenant open",
		"tenant", name, "resumed", st.Resumed,
		"applied", st.Applied, "points", st.Points)
	return &st, nil
}

// Tenant returns the named tenant.
func (s *Server) Tenant(name string) (*tenant, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	t := s.tenants[name]
	if t == nil {
		return nil, ErrUnknownTenant
	}
	return t, nil
}

// TenantStatuses lists every tenant's status, name-sorted.
func (s *Server) TenantStatuses() []TenantStatus {
	s.mu.RLock()
	out := make([]TenantStatus, 0, len(s.tenants))
	for _, t := range s.tenants {
		out = append(out, t.status())
	}
	s.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Draining reports whether admissions have been stopped.
func (s *Server) Draining() bool { return s.draining.Load() }

// Drain gracefully stops the server: admissions stop (new ingests and
// tenant creations are refused), every tenant's queue is closed and its
// worker finishes the queued batches, each healthy tenant writes a final
// checkpoint, and logs close. Read endpoints keep
// serving from the last published snapshots throughout and after. Drain
// is idempotent; it returns the first per-tenant finalization error.
func (s *Server) Drain(ctx context.Context) error {
	s.drainMu.Lock()
	defer s.drainMu.Unlock()
	if s.drained {
		return nil
	}
	s.drained = true
	s.draining.Store(true)
	if _, ok := ctx.Deadline(); !ok {
		d := s.opts.DrainTimeout
		if d <= 0 {
			d = 30 * time.Second
		}
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, d)
		defer cancel()
	}
	s.mu.RLock()
	ts := make([]*tenant, 0, len(s.tenants))
	for _, t := range s.tenants {
		ts = append(ts, t)
	}
	s.mu.RUnlock()
	s.logger.Info("drain start", "tenants", len(ts))
	for _, t := range ts {
		t.closeQueue()
	}
	var first error
	for _, t := range ts {
		if err := t.awaitDrained(ctx); err != nil && first == nil {
			first = fmt.Errorf("tenant %s: %w", t.name, err)
		}
	}
	if first != nil {
		s.logger.Warn("drain done", "error", first.Error())
	} else {
		s.logger.Info("drain done")
	}
	return first
}
