package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"net/http"
	"net/http/pprof"
	"net/url"
	"strconv"
	"time"

	"incbubbles/internal/approx"
	"incbubbles/internal/dataset"
	"incbubbles/internal/optics"
	"incbubbles/internal/trace"
	"incbubbles/internal/vecmath"
	"incbubbles/internal/wal"
)

// Machine-readable reason codes carried in error responses, so clients
// branch on reason strings instead of parsing error prose.
const (
	ReasonQueueFull      = "queue_full"
	ReasonReadOnly       = "read_only"
	ReasonDraining       = "draining"
	ReasonDeadline       = "deadline"
	ReasonBadRequest     = "bad_request"
	ReasonUnknownTenant  = "unknown_tenant"
	ReasonConfigMismatch = "config_mismatch"
	ReasonIngestFailed   = "ingest_failed"
	ReasonCreateFailed   = "create_failed"
	ReasonPlotFailed     = "plot_failed"
)

// errorBody is the uniform error envelope.
type errorBody struct {
	Error  string `json:"error"`
	Reason string `json:"reason"`
	Cause  string `json:"cause,omitempty"`
}

// updateJSON is one wire-format update. Inserts carry p (and an
// optional label); deletes carry id.
type updateJSON struct {
	Op    string    `json:"op"`
	ID    *uint64   `json:"id,omitempty"`
	P     []float64 `json:"p,omitempty"`
	Label int       `json:"label,omitempty"`
}

type ingestBody struct {
	Updates []updateJSON `json:"updates"`
}

type ingestReply struct {
	Ordinal  int `json:"ordinal"`
	Applied  int `json:"applied"`
	Inserted int `json:"inserted"`
	Deleted  int `json:"deleted"`
	Rebuilt  int `json:"rebuilt"`
	Rounds   int `json:"rounds"`
	// FirstID is the server-assigned ID of the batch's first insert;
	// the remaining inserts follow consecutively in batch order. Clients
	// reference these IDs in later deletes.
	FirstID *uint64 `json:"first_id,omitempty"`
	Warning string  `json:"warning,omitempty"`
}

// Caps on the client-chosen effort of the approx reads: bins sizes the
// histogram's allocation and samples drives a per-bubble sampling loop,
// so a value above its cap is a rejected request, not work.
const (
	maxHistogramBins = 1 << 12
	maxApproxSamples = 1 << 14
)

// Caps on the client-chosen resources of a tenant: queue_depth sizes the
// ingest queue's allocation, and retry_attempts bounds how long a
// persistent checkpoint fault keeps the write-behind writer (and a
// drain's final checkpoint) retrying. A value above its cap is a
// rejected create that writes nothing; New refuses such defaults.
const (
	maxQueueDepth    = 1 << 12
	maxRetryAttempts = 16
)

type rangeCountBody struct {
	Lo      []float64 `json:"lo"`
	Hi      []float64 `json:"hi"`
	Samples int       `json:"samples,omitempty"`
	Seed    int64     `json:"seed,omitempty"`
}

// plotEntry is one reachability-plot bar. OPTICS marks undefined
// reachability and core distances with +Inf, which JSON cannot carry;
// they travel as -1.
type plotEntry struct {
	Obj    int     `json:"obj"`
	ID     uint64  `json:"id"`
	Reach  float64 `json:"reach"`
	Core   float64 `json:"core"`
	Weight int     `json:"weight"`
}

// finiteOrNeg1 maps OPTICS' undefined (+Inf or NaN) distances onto -1.
func finiteOrNeg1(v float64) float64 {
	if math.IsInf(v, 0) || math.IsNaN(v) {
		return -1
	}
	return v
}

type plotReply struct {
	Applied     int         `json:"applied"`
	MinPts      int         `json:"min_pts"`
	TotalWeight int         `json:"total_weight"`
	Order       []plotEntry `json:"order"`
}

// Handler returns the bubbled HTTP API:
//
//	GET  /healthz
//	GET  /readyz
//	GET  /metrics
//	GET  /tenants
//	PUT  /tenants/{tenant}
//	GET  /tenants/{tenant}/status
//	POST /tenants/{tenant}/batches
//	GET  /tenants/{tenant}/approx/count
//	GET  /tenants/{tenant}/approx/mean
//	GET  /tenants/{tenant}/approx/variance
//	POST /tenants/{tenant}/approx/rangecount
//	GET  /tenants/{tenant}/approx/histogram
//	GET  /tenants/{tenant}/plot
//	GET  /tenants/{tenant}/debug/trace
//	GET  /debug/pprof/*          (only with Options.Debug)
//
// Every route is wrapped by the instrumentation middleware: a minted
// request ID (echoed in X-Request-Id), one structured log line, and —
// for tenant-routed requests — the tenant's HTTP counters and latency
// histogram. Health and scrape endpoints log at Debug so a tight scrape
// loop does not flood the request log.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	handle := func(pattern, route string, lvl slog.Level, h http.HandlerFunc) {
		mux.HandleFunc(pattern, s.instrument(route, lvl, h))
	}
	handle("GET /healthz", "healthz", slog.LevelDebug, s.handleHealthz)
	handle("GET /readyz", "readyz", slog.LevelDebug, s.handleReadyz)
	handle("GET /metrics", "metrics", slog.LevelDebug, s.handleMetrics)
	handle("GET /tenants", "list_tenants", slog.LevelInfo, s.handleListTenants)
	handle("PUT /tenants/{tenant}", "create_tenant", slog.LevelInfo, s.handleCreateTenant)
	handle("GET /tenants/{tenant}/status", "status", slog.LevelInfo, s.withTenant(s.handleStatus))
	handle("POST /tenants/{tenant}/batches", "ingest", slog.LevelInfo, s.withTenant(s.handleIngest))
	handle("GET /tenants/{tenant}/approx/count", "approx_count", slog.LevelInfo, s.withTenant(s.handleApproxCount))
	handle("GET /tenants/{tenant}/approx/mean", "approx_mean", slog.LevelInfo, s.withTenant(s.handleApproxMean))
	handle("GET /tenants/{tenant}/approx/variance", "approx_variance", slog.LevelInfo, s.withTenant(s.handleApproxVariance))
	handle("POST /tenants/{tenant}/approx/rangecount", "approx_rangecount", slog.LevelInfo, s.withTenant(s.handleRangeCount))
	handle("GET /tenants/{tenant}/approx/histogram", "approx_histogram", slog.LevelInfo, s.withTenant(s.handleHistogram))
	handle("GET /tenants/{tenant}/plot", "plot", slog.LevelInfo, s.withTenant(s.handlePlot))
	handle("GET /tenants/{tenant}/debug/trace", "debug_trace", slog.LevelDebug, s.withTenant(func(w http.ResponseWriter, r *http.Request, t *tenant) {
		// A trace-disabled tenant (Options.TraceCapacity < 0) has a nil
		// tracer, which serves an empty trace.
		t.tracer.ServeHTTP(w, r)
	}))
	if s.opts.Debug {
		mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	return mux
}

// reqInfo is the per-request observability record the middleware shares
// with handlers through the request context. A handler (ingest) fills
// queueWait in; the middleware reads it back for the log line. One
// goroutine touches it at a time — the handler runs inside the
// middleware call.
type reqInfo struct {
	id        uint64
	queueWait time.Duration
	hasWait   bool
}

type reqInfoKey struct{}

// requestInfo returns the middleware's record for this request, nil on
// an uninstrumented path (direct handler tests).
func requestInfo(ctx context.Context) *reqInfo {
	ri, _ := ctx.Value(reqInfoKey{}).(*reqInfo)
	return ri
}

// statusWriter captures the response status for metrics and logs.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// instrument wraps one route: request ID, status capture, per-tenant
// HTTP metrics, one structured log line.
func (s *Server) instrument(route string, lvl slog.Level, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		id := s.nextReqID.Add(1)
		ri := &reqInfo{id: id}
		r = r.WithContext(context.WithValue(r.Context(), reqInfoKey{}, ri))
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		sw.Header().Set("X-Request-Id", fmt.Sprintf("req-%d", id))
		start := time.Now()
		h(sw, r)
		elapsed := time.Since(start)

		tenantName := r.PathValue("tenant")
		if tenantName != "" {
			if t, err := s.Tenant(tenantName); err == nil {
				t.metrics.httpRequests.Inc()
				t.metrics.httpSeconds.Observe(elapsed.Seconds())
				switch sw.status {
				case http.StatusTooManyRequests:
					t.metrics.http429.Inc()
				case http.StatusServiceUnavailable:
					t.metrics.http503.Inc()
				}
			}
		}
		attrs := []any{
			"request_id", id,
			"route", route,
			"status", sw.status,
			"latency_ms", float64(elapsed) / float64(time.Millisecond),
		}
		if tenantName != "" {
			attrs = append(attrs, "tenant", tenantName)
		}
		if ri.hasWait {
			attrs = append(attrs, "queue_wait_ms", float64(ri.queueWait)/float64(time.Millisecond))
		}
		s.logger.Log(r.Context(), lvl, "request", attrs...)
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, reason string, err error) {
	writeJSON(w, status, errorBody{Error: err.Error(), Reason: reason})
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"ok": true, "draining": s.Draining()})
}

// handleReadyz is the drain-aware readiness probe: 200 while admitting,
// 503 once draining so load balancers stop routing new work here while
// in-flight batches finish. Liveness (/healthz) stays 200 throughout —
// a draining process is healthy, just not accepting.
func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	if s.Draining() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{"ready": false, "reason": ReasonDraining})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"ready": true})
}

func (s *Server) handleListTenants(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"tenants": s.TenantStatuses()})
}

func (s *Server) handleCreateTenant(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("tenant")
	var cfg TenantConfig
	if r.ContentLength != 0 {
		if err := json.NewDecoder(r.Body).Decode(&cfg); err != nil {
			writeError(w, http.StatusBadRequest, ReasonBadRequest, fmt.Errorf("server: bad tenant config: %w", err))
			return
		}
	}
	st, err := s.CreateTenant(name, cfg)
	switch {
	case errors.Is(err, ErrTenantExists):
		writeJSON(w, http.StatusOK, st) // idempotent re-create
	case errors.Is(err, ErrBadTenantName), errors.Is(err, ErrConfigMismatch), errors.Is(err, ErrBadBootstrap),
		errors.Is(err, ErrMissingDim), errors.Is(err, ErrAboveCap):
		reason := ReasonBadRequest
		if errors.Is(err, ErrConfigMismatch) {
			reason = ReasonConfigMismatch
		}
		writeError(w, http.StatusBadRequest, reason, err)
	case errors.Is(err, ErrDraining):
		writeError(w, http.StatusServiceUnavailable, ReasonDraining, err)
	case err != nil:
		writeError(w, http.StatusInternalServerError, ReasonCreateFailed, err)
	default:
		writeJSON(w, http.StatusCreated, st)
	}
}

// withTenant resolves the {tenant} path segment.
func (s *Server) withTenant(fn func(http.ResponseWriter, *http.Request, *tenant)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		t, err := s.Tenant(r.PathValue("tenant"))
		if err != nil {
			writeError(w, http.StatusNotFound, ReasonUnknownTenant, err)
			return
		}
		fn(w, r, t)
	}
}

func (s *Server) handleStatus(w http.ResponseWriter, _ *http.Request, t *tenant) {
	writeJSON(w, http.StatusOK, t.status())
}

// handleIngest admits one batch and waits for its durability ack. The
// admission path never blocks: a full queue is 429 + Retry-After, a
// degraded tenant or a draining server is 503 with the machine-readable
// reason. The request deadline rides the context into the worker and
// through ApplyBatchContext. The same context
// carries the request's server.ingest root span, so the core and WAL
// spans of the batch parent under it — one trace tree per request.
func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request, t *tenant) {
	if s.Draining() {
		writeError(w, http.StatusServiceUnavailable, ReasonDraining, ErrDraining)
		return
	}
	var body ingestBody
	if err := json.NewDecoder(r.Body).Decode(&body); err != nil {
		writeError(w, http.StatusBadRequest, ReasonBadRequest, fmt.Errorf("server: bad ingest body: %w", err))
		return
	}
	batch, err := decodeBatch(body.Updates, t.cfg.Dim)
	if err != nil {
		writeError(w, http.StatusBadRequest, ReasonBadRequest, err)
		return
	}
	sp := t.tracer.Start("server.ingest")
	defer sp.End()
	sp.SetInt(trace.AttrBatchSize, int64(len(batch)))
	ri := requestInfo(r.Context())
	if ri != nil {
		sp.SetInt(trace.AttrRequestID, int64(ri.id))
	}
	ctx := trace.ContextWith(r.Context(), sp)
	req, err := t.Admit(ctx, batch)
	switch {
	case errors.Is(err, ErrQueueFull):
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, ReasonQueueFull, err)
		return
	case errors.Is(err, ErrReadOnly):
		s.writeReadOnly(w, t, err)
		return
	case errors.Is(err, ErrDraining):
		writeError(w, http.StatusServiceUnavailable, ReasonDraining, err)
		return
	case err != nil:
		writeError(w, http.StatusInternalServerError, ReasonIngestFailed, err)
		return
	}
	select {
	case res := <-req.done:
		sp.SetInt(trace.AttrQueueWait, int64(res.queueWait))
		if ri != nil {
			ri.queueWait, ri.hasWait = res.queueWait, true
		}
		s.writeIngestResult(w, t, res)
	case <-r.Context().Done():
		// The client's deadline expired while the batch was queued or in
		// flight. The batch stays all-or-nothing: the worker either skips
		// it (not yet started) or completes it fully; /status reports the
		// applied count either way.
		writeError(w, http.StatusGatewayTimeout, ReasonDeadline, r.Context().Err())
	}
}

func (s *Server) writeIngestResult(w http.ResponseWriter, t *tenant, res ingestResult) {
	if res.err != nil {
		switch {
		case errors.Is(res.err, ErrBadBatch), errors.Is(res.err, wal.ErrRecordTooLarge):
			// An oversized batch is refused before any write, so it is a
			// client error like a malformed one: nothing was applied.
			writeError(w, http.StatusBadRequest, ReasonBadRequest, res.err)
		case errors.Is(res.err, ErrReadOnly):
			s.writeReadOnly(w, t, res.err)
		case errors.Is(res.err, context.Canceled), errors.Is(res.err, context.DeadlineExceeded):
			// The deadline fired before the worker started the batch:
			// nothing was applied (the all-or-nothing "nothing" side).
			writeError(w, http.StatusGatewayTimeout, ReasonDeadline, res.err)
		default:
			writeError(w, http.StatusInternalServerError, ReasonIngestFailed, res.err)
		}
		return
	}
	writeJSON(w, http.StatusOK, ingestReply{
		Ordinal:  res.ordinal,
		Applied:  res.ordinal + 1,
		Inserted: res.stats.Inserted,
		Deleted:  res.stats.Deleted,
		Rebuilt:  res.stats.Rebuilt,
		Rounds:   res.stats.Rounds,
		FirstID:  res.firstID,
		Warning:  res.warning,
	})
}

func (s *Server) writeReadOnly(w http.ResponseWriter, t *tenant, err error) {
	body := errorBody{Error: err.Error(), Reason: ReasonReadOnly}
	if d := t.degrade.Load(); d != nil {
		body.Cause = d.Cause
	}
	writeJSON(w, http.StatusServiceUnavailable, body)
}

// decodeBatch converts wire updates into a template batch.
func decodeBatch(ups []updateJSON, dim int) (dataset.Batch, error) {
	if len(ups) == 0 {
		return nil, errors.New("server: empty batch")
	}
	batch := make(dataset.Batch, 0, len(ups))
	for i, u := range ups {
		switch u.Op {
		case "insert":
			if len(u.P) != dim {
				return nil, fmt.Errorf("server: update %d: point has %d dims, tenant has %d", i, len(u.P), dim)
			}
			if u.Label < dataset.Noise {
				return nil, fmt.Errorf("server: update %d: label %d is reserved (labels start at %d)", i, u.Label, dataset.Noise)
			}
			batch = append(batch, dataset.Update{Op: dataset.OpInsert, P: vecmath.Point(u.P), Label: u.Label})
		case "delete":
			if u.ID == nil {
				return nil, fmt.Errorf("server: update %d: delete needs id", i)
			}
			batch = append(batch, dataset.Update{Op: dataset.OpDelete, ID: dataset.PointID(*u.ID)})
		default:
			return nil, fmt.Errorf("server: update %d: unknown op %q", i, u.Op)
		}
	}
	return batch, nil
}

// --- read endpoints (snapshot-isolated) --------------------------------

func (s *Server) handleApproxCount(w http.ResponseWriter, _ *http.Request, t *tenant) {
	rs := t.snapshot()
	writeJSON(w, http.StatusOK, map[string]any{"applied": rs.applied, "count": approx.Count(rs.set)})
}

func (s *Server) handleApproxMean(w http.ResponseWriter, _ *http.Request, t *tenant) {
	rs := t.snapshot()
	mean, err := approx.Mean(rs.set)
	if err != nil {
		writeError(w, http.StatusUnprocessableEntity, ReasonBadRequest, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"applied": rs.applied, "mean": []float64(mean)})
}

func (s *Server) handleApproxVariance(w http.ResponseWriter, _ *http.Request, t *tenant) {
	rs := t.snapshot()
	v, err := approx.TotalVariance(rs.set)
	if err != nil {
		writeError(w, http.StatusUnprocessableEntity, ReasonBadRequest, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"applied": rs.applied, "total_variance": v})
}

func (s *Server) handleRangeCount(w http.ResponseWriter, r *http.Request, t *tenant) {
	var body rangeCountBody
	if err := json.NewDecoder(r.Body).Decode(&body); err != nil {
		writeError(w, http.StatusBadRequest, ReasonBadRequest, err)
		return
	}
	// A JSON body cannot tell an absent samples from 0 (omitempty), so 0
	// takes the default; a negative one is a rejected request.
	samples := body.Samples
	if samples == 0 {
		samples = 1024
	}
	if samples < 0 || samples > maxApproxSamples {
		writeError(w, http.StatusBadRequest, ReasonBadRequest,
			fmt.Errorf("server: samples %d outside 1..%d", samples, maxApproxSamples))
		return
	}
	rs := t.snapshot()
	seed := body.Seed
	if seed == 0 {
		seed = t.seed
	}
	est, err := approx.RangeCount(rs.set, approx.Box{Lo: vecmath.Point(body.Lo), Hi: vecmath.Point(body.Hi)}, samples, seed)
	if err != nil {
		writeError(w, http.StatusBadRequest, ReasonBadRequest, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"applied": rs.applied, "estimate": est})
}

// queryParam parses the optional query parameter key: an absent one
// yields def, a present one that does not parse an error.
func queryParam[T any](q url.Values, key string, def T, parse func(string) (T, error)) (T, error) {
	if !q.Has(key) {
		return def, nil
	}
	v, err := parse(q.Get(key))
	if err != nil {
		return def, fmt.Errorf("server: query parameter %s: %w", key, err)
	}
	return v, nil
}

func parseFloat(s string) (float64, error) { return strconv.ParseFloat(s, 64) }

func parseInt64(s string) (int64, error) { return strconv.ParseInt(s, 10, 64) }

// parsePositiveInt parses a base-10 integer above 0.
func parsePositiveInt(s string) (int, error) {
	n, err := strconv.Atoi(s)
	if err == nil && n <= 0 {
		err = fmt.Errorf("%d is not above 0", n)
	}
	return n, err
}

// parsePositiveFinite parses a finite number above 0.
func parsePositiveFinite(s string) (float64, error) {
	v, err := strconv.ParseFloat(s, 64)
	if err == nil && !(v > 0 && v <= math.MaxFloat64) {
		err = fmt.Errorf("%v is not a finite number above 0", v)
	}
	return v, err
}

func (s *Server) handleHistogram(w http.ResponseWriter, r *http.Request, t *tenant) {
	q := r.URL.Query()
	axis, err1 := queryParam(q, "axis", 0, strconv.Atoi)
	bins, err2 := queryParam(q, "bins", 16, parsePositiveInt)
	lo, err3 := queryParam(q, "lo", 0, parseFloat)
	hi, err4 := queryParam(q, "hi", 0, parseFloat)
	samples, err5 := queryParam(q, "samples", 1024, parsePositiveInt)
	seed, err6 := queryParam(q, "seed", 0, parseInt64)
	if err := errors.Join(err1, err2, err3, err4, err5, err6); err != nil {
		writeError(w, http.StatusBadRequest, ReasonBadRequest, err)
		return
	}
	if bins > maxHistogramBins || samples > maxApproxSamples {
		writeError(w, http.StatusBadRequest, ReasonBadRequest,
			fmt.Errorf("server: bins %d or samples %d above the caps %d and %d", bins, samples, maxHistogramBins, maxApproxSamples))
		return
	}
	if seed == 0 {
		seed = t.seed
	}
	rs := t.snapshot()
	hist, err := approx.AxisHistogram(rs.set, axis, bins, lo, hi, samples, seed)
	if err != nil {
		writeError(w, http.StatusBadRequest, ReasonBadRequest, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"applied": rs.applied, "bins": hist})
}

// handlePlot runs OPTICS over the snapshot and returns the bubble-level
// reachability ordering; the space build and the run record their
// optics.space and optics.run spans and metrics in the tenant's tracer
// and sink. Snapshot isolation means a plot during heavy
// ingest (or on a poisoned tenant) serves the last published summary.
// An absent minpts or eps takes its default (5, +Inf); a present one must
// be a positive integer or a finite number above 0.
func (s *Server) handlePlot(w http.ResponseWriter, r *http.Request, t *tenant) {
	q := r.URL.Query()
	minPts, err1 := queryParam(q, "minpts", 5, parsePositiveInt)
	eps, err2 := queryParam(q, "eps", math.Inf(1), parsePositiveFinite)
	if err := errors.Join(err1, err2); err != nil {
		writeError(w, http.StatusBadRequest, ReasonBadRequest, err)
		return
	}
	rs := t.snapshot()
	space, err := optics.NewBubbleSpaceTelemetry(rs.set, 0, t.sink, t.tracer)
	if err != nil {
		writeError(w, http.StatusUnprocessableEntity, ReasonBadRequest, err)
		return
	}
	res, err := optics.Run(space, optics.Params{Eps: eps, MinPts: minPts, Sink: t.sink, Tracer: t.tracer})
	if err != nil {
		writeError(w, http.StatusInternalServerError, ReasonPlotFailed, err)
		return
	}
	reply := plotReply{Applied: rs.applied, MinPts: minPts, TotalWeight: res.TotalWeight()}
	for _, e := range res.Order {
		reply.Order = append(reply.Order, plotEntry{
			Obj: e.Obj, ID: e.ID,
			Reach:  finiteOrNeg1(e.Reach),
			Core:   finiteOrNeg1(e.Core),
			Weight: e.Weight,
		})
	}
	writeJSON(w, http.StatusOK, reply)
}
