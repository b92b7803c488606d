// Command bubbled serves data-bubble summarization over HTTP/JSON for
// many independent tenants, each its own summarizer, WAL directory and
// seed (DESIGN.md §15). Tenants are created with PUT /tenants/{name},
// ingested into with POST /tenants/{name}/batches, and queried through
// the snapshot-isolated /approx/* and /plot endpoints. On SIGTERM (or
// SIGINT) the server drains gracefully: admissions stop, queued batches
// finish, final checkpoints are written, and the process exits; a
// restart over the same -root resumes every tenant.
//
// Usage:
//
//	bubbled -addr :8080 -root /var/lib/bubbled
//	curl -X PUT localhost:8080/tenants/demo -d '{"dim":2,"bubbles":32,"bootstrap":[...]}'
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"incbubbles/internal/cli"
	"incbubbles/internal/server"
)

func main() {
	var (
		addr      = flag.String("addr", ":8080", "listen address")
		root      = flag.String("root", "", "data directory holding one subdirectory per tenant (required)")
		seed      = flag.Int64("seed", 1, "base seed tenant seeds derive from; keep stable across restarts")
		queue     = flag.Int("queue-depth", 16, "default per-tenant ingest queue bound (admission control)")
		ckptEvery = flag.Int("checkpoint-every", 8, "default checkpoint cadence in batches")
		keepCkpt  = flag.Int("keep-checkpoints", 2, "default checkpoints retained per tenant")
		retries   = flag.Int("retry-attempts", 3, "default bounded attempts for retryable checkpoint faults")
		drainTO   = flag.Duration("drain-timeout", 30*time.Second, "graceful drain budget on SIGTERM")
		debug     = flag.Bool("debug", false, "mount /debug/pprof/* on the serving mux (do not expose publicly)")
		logJSON   = flag.Bool("log-json", true, "emit one JSON log line per request and lifecycle event on stderr")
	)
	flag.Parse()
	if *root == "" {
		fmt.Fprintln(os.Stderr, "bubbled: -root is required")
		os.Exit(2)
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()
	err := cli.RunBubbled(ctx, cli.BubbledOptions{
		Addr: *addr,
		Root: *root,
		Seed: *seed,
		Defaults: server.TenantConfig{
			QueueDepth:      *queue,
			CheckpointEvery: *ckptEvery,
			KeepCheckpoints: *keepCkpt,
			RetryAttempts:   *retries,
		},
		DrainTimeout: *drainTO,
		Debug:        *debug,
		LogJSON:      *logJSON,
	}, os.Stderr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bubbled: %v\n", err)
		os.Exit(1)
	}
}
