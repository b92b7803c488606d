package cli

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"time"

	"incbubbles/internal/server"
)

// BubbledOptions parameterises the bubbled serving loop. Zero fields
// select the server-layer defaults (server.TenantConfig built-ins).
type BubbledOptions struct {
	Addr string // listen address (required)
	Root string // per-tenant state root (required)
	Seed int64  // base seed tenant seeds derive from; keep stable across restarts

	// Defaults fills unset fields of every tenant created on this server.
	Defaults server.TenantConfig
	// DrainTimeout bounds the graceful drain once ctx is cancelled.
	DrainTimeout time.Duration
	// Debug mounts /debug/pprof/* on the serving mux (-debug flag).
	Debug bool
	// LogJSON emits one JSON log line per request and lifecycle event on
	// stderr (log/slog). Off keeps the human-readable startup/drain
	// banner only.
	LogJSON bool

	// OnReady, when non-nil, receives the bound listen address once the
	// server is accepting requests (tests bind ":0" and need the port).
	OnReady func(addr net.Addr)
}

// RunBubbled opens the server over opts.Root (resuming any tenants
// already there), serves HTTP on opts.Addr until ctx is cancelled, then
// drains gracefully: admissions stop, queued batches finish, healthy
// tenants write final checkpoints, and the listener shuts down.
// The caller owns signal handling — cmd/bubbled cancels ctx on
// SIGTERM/SIGINT. A non-nil error means the server failed; a clean
// ctx-driven drain returns nil even if individual tenants were degraded
// (their state is the WAL's to recover, logged to stderr).
func RunBubbled(ctx context.Context, opts BubbledOptions, stderr io.Writer) error {
	if opts.Root == "" {
		return errors.New("bubbled: root directory is required")
	}
	sopts := server.Options{
		Root:         opts.Root,
		Seed:         opts.Seed,
		Defaults:     opts.Defaults,
		DrainTimeout: opts.DrainTimeout,
		Debug:        opts.Debug,
	}
	if opts.LogJSON {
		sopts.Logger = slog.New(slog.NewJSONHandler(stderr, nil))
	}
	srv, err := server.New(sopts)
	if err != nil {
		return err
	}
	for _, st := range srv.TenantStatuses() {
		fmt.Fprintf(stderr, "bubbled: resumed tenant %s (%d batches, %d points)\n", st.Name, st.Applied, st.Points)
	}

	ln, err := net.Listen("tcp", opts.Addr)
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: srv.Handler()}
	errCh := make(chan error, 1)
	go func() { errCh <- hs.Serve(ln) }()
	fmt.Fprintf(stderr, "bubbled: serving on %s (root %s)\n", ln.Addr(), opts.Root)
	if opts.OnReady != nil {
		opts.OnReady(ln.Addr())
	}

	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
	}
	fmt.Fprintln(stderr, "bubbled: draining (admissions stopped)")
	d := opts.DrainTimeout
	if d <= 0 {
		d = 30 * time.Second
	}
	//lint:allow ctxflow drain runs after the caller's ctx is already cancelled; it gets its own bounded budget by design
	drainCtx, cancel := context.WithTimeout(context.Background(), d)
	defer cancel()
	if err := srv.Drain(drainCtx); err != nil {
		fmt.Fprintf(stderr, "bubbled: drain: %v\n", err)
	}
	if err := hs.Shutdown(drainCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintf(stderr, "bubbled: shutdown: %v\n", err)
	}
	fmt.Fprintln(stderr, "bubbled: drained; exiting")
	return nil
}
