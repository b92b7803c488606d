package telemetry

import (
	"context"
	"net"
	"net/http"
	"net/http/pprof"
	"time"

	"incbubbles/internal/trace"
)

// shutdownGrace bounds how long a cancelled debug server waits for
// in-flight scrapes (a long pprof profile, say) before closing their
// connections.
const shutdownGrace = 5 * time.Second

// ServeDebug serves the debug endpoint the -debug-addr CLI flags start,
// on addr (e.g. "localhost:6060"), until ctx is cancelled:
//
//	/metrics          Prometheus text exposition of sink's registry
//	/debug/trace      tracer's span ring (see trace.Tracer.ServeHTTP)
//	/debug/pprof/...  the standard net/http/pprof handlers
//
// A nil sink serves an empty exposition and a nil tracer an empty trace.
// It returns the bound address, so addr may request port 0. On
// cancellation the server drains in-flight requests for up to
// shutdownGrace before forcing connections closed; done closes once it
// has stopped, so a CLI can wait for it before exiting.
func ServeDebug(ctx context.Context, addr string, sink *Sink, tracer *trace.Tracer) (bound string, done <-chan struct{}, err error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, err
	}
	srv := &http.Server{Handler: debugMux(sink, tracer)}
	served := make(chan struct{})
	go func() {
		defer close(served)
		// ErrServerClosed after Shutdown/Close is the expected exit.
		_ = srv.Serve(ln)
	}()
	stopped := make(chan struct{})
	go func() {
		defer close(stopped)
		<-ctx.Done()
		// The parent ctx is already cancelled here; deriving the drain
		// deadline from it would skip the grace period entirely.
		//lint:allow ctxflow shutdown grace must outlive the cancelled parent ctx by design
		shutdownCtx, cancel := context.WithTimeout(context.Background(), shutdownGrace)
		defer cancel()
		if err := srv.Shutdown(shutdownCtx); err != nil {
			// Drain expired: force-close the stragglers.
			_ = srv.Close()
		}
		<-served
	}()
	return ln.Addr().String(), stopped, nil
}

// debugMux is ServeDebug's handler. The handlers read the sink and the
// tracer through their own synchronization, so the mux serves while the
// instrumented system runs.
func debugMux(sink *Sink, tracer *trace.Tracer) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, _ *http.Request) {
		pw := NewPromWriter()
		if sink != nil && sink.Metrics != nil {
			pw.AddSnapshot(sink.Metrics.Snapshot())
		}
		pw.WriteResponse(w)
	})
	mux.Handle("GET /debug/trace", tracer)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}
