package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"testing"

	"incbubbles/internal/failpoint"
	"incbubbles/internal/telemetry"
	"incbubbles/internal/wal"
)

// scrapeParse fetches /metrics and parses the exposition. It returns
// errors instead of failing the test so concurrent scraper goroutines
// can use it.
func scrapeParse(baseURL string) (map[string]*telemetry.PromFamily, error) {
	resp, err := http.Get(baseURL + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/metrics: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		return nil, fmt.Errorf("/metrics: content-type %q", ct)
	}
	return telemetry.ParseProm(resp.Body)
}

// promPoint finds the first sample of family that carries the tenant
// label, nil when the family or the tenant's series is absent. For
// histogram families any suffix row counts.
func promPoint(fams map[string]*telemetry.PromFamily, family, tenant string) *telemetry.PromPoint {
	f := fams[family]
	if f == nil {
		return nil
	}
	for i := range f.Points {
		if f.Points[i].Labels["tenant"] == tenant {
			return &f.Points[i]
		}
	}
	return nil
}

// requiredFamilies is every metric family the scrape must expose with a
// per-tenant label for every live tenant: the tenant registry families
// resolved at construction (serving-layer handles, WAL latency
// histograms), the ingest-driven core families, and the three
// scrape-synthesized series.
var requiredFamilies = []string{
	"server_batches_ingested",
	"server_queue_depth",
	"server_queue_wait_seconds",
	"server_apply_seconds",
	"server_http_requests",
	"server_http_request_seconds",
	"server_http_429",
	"server_http_503",
	"server_ladder_state",
	"server_last_checkpoint_age_seconds",
	"trace_spans_dropped",
	"distance_computed",
	"distance_pruned",
	"core_batches",
	"wal_appends",
	"wal_syncs",
	"wal_fsync_seconds",
	"wal_checkpoint_seconds",
}

// TestMetricsScrapeChaos drives three tenants from concurrent ingest
// goroutines while two scraper
// goroutines hammer /metrics. Every scrape must parse cleanly; the
// quiesced final scrape must carry a per-tenant series for every
// required family, report every ladder healthy, and — the distance
// accounting pin — its distance_computed text must equal both the
// tenant's sink counter and the vecmath counter's Computed() exactly.
func TestMetricsScrapeChaos(t *testing.T) {
	e := newTestEnv(t, Options{})
	tenants := []struct{ name string }{{"alpha"}, {"beta"}, {"gamma"}}
	const bootN = 12
	for _, tc := range tenants {
		e.createTenant(t, tc.name, TenantConfig{
			Dim: 2, Bubbles: 8, CheckpointEvery: 2, Bootstrap: mkBootstrap(2, bootN, 31),
		})
	}

	// Pre-marshal the wire bodies on the test goroutine (wireBody may
	// t.Fatalf); the ingest goroutines only POST.
	const nBatches, perBatch = 6, 20
	bodies := make(map[string][][]byte, len(tenants))
	for i, tc := range tenants {
		for _, b := range mkInsertBatches(2, nBatches, perBatch, int64(40+i)) {
			rd := wireBody(t, b)
			raw, err := io.ReadAll(rd)
			if err != nil {
				t.Fatalf("read body: %v", err)
			}
			bodies[tc.name] = append(bodies[tc.name], raw)
		}
	}

	errc := make(chan error, len(tenants)+2)
	stop := make(chan struct{})
	var scrapers, ingesters sync.WaitGroup
	for i := 0; i < 2; i++ {
		scrapers.Add(1)
		go func() {
			defer scrapers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := scrapeParse(e.ts.URL); err != nil {
					errc <- fmt.Errorf("concurrent scrape: %w", err)
					return
				}
			}
		}()
	}
	for _, tc := range tenants {
		ingesters.Add(1)
		go func(name string) {
			defer ingesters.Done()
			for i, raw := range bodies[name] {
				resp, err := http.Post(e.ts.URL+"/tenants/"+name+"/batches", "application/json", bytes.NewReader(raw))
				if err != nil {
					errc <- fmt.Errorf("%s batch %d: %w", name, i, err)
					return
				}
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errc <- fmt.Errorf("%s batch %d: status %d", name, i, resp.StatusCode)
					return
				}
			}
		}(tc.name)
	}
	ingesters.Wait()
	close(stop)
	scrapers.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}

	// Quiesced: every batch is acked, so the counters are stable and the
	// scrape must agree with the internal accounting bit for bit.
	fams, err := scrapeParse(e.ts.URL)
	if err != nil {
		t.Fatalf("final scrape: %v", err)
	}
	for _, tc := range tenants {
		for _, family := range requiredFamilies {
			if promPoint(fams, family, tc.name) == nil {
				t.Errorf("family %s has no series for tenant %s", family, tc.name)
			}
		}
		ladder := promPoint(fams, "server_ladder_state", tc.name)
		if ladder == nil || ladder.Value != 0 || ladder.Labels["reason"] != "healthy" {
			t.Errorf("tenant %s ladder = %+v, want healthy 0", tc.name, ladder)
		}

		tn, err := e.srv.Tenant(tc.name)
		if err != nil {
			t.Fatalf("tenant %s: %v", tc.name, err)
		}
		pt := promPoint(fams, "distance_computed", tc.name)
		if pt == nil {
			t.Fatalf("tenant %s: no distance_computed series", tc.name)
		}
		sinkV := tn.sink.Counter(telemetry.MetricDistanceComputed).Value()
		vecV := tn.sum.Set().Counter().Computed()
		if sinkV == 0 || sinkV != vecV {
			t.Errorf("tenant %s: sink distance %d, vecmath %d", tc.name, sinkV, vecV)
		}
		if want := strconv.FormatUint(vecV, 10); pt.Raw != want {
			t.Errorf("tenant %s: scraped distance_computed %q, want exactly %q", tc.name, pt.Raw, want)
		}
		ingested := promPoint(fams, "server_batches_ingested", tc.name)
		if want := strconv.Itoa(nBatches); ingested == nil || ingested.Raw != want {
			t.Errorf("tenant %s: scraped batches_ingested %+v, want %s", tc.name, ingested, want)
		}
	}
}

// TestMetricsLadderGaugeFlips poisons one tenant's WAL and requires the
// scrape to flip exactly that tenant's ladder gauge to 1 with the
// wal_poisoned reason label, while the healthy tenant stays at 0 with
// reason healthy.
func TestMetricsLadderGaugeFlips(t *testing.T) {
	reg := failpoint.New(7)
	e := newTestEnv(t, Options{Failpoints: reg})
	const bootN = 12
	e.createTenant(t, "sick", TenantConfig{Dim: 2, Bubbles: 8, CheckpointEvery: 4, Bootstrap: mkBootstrap(2, bootN, 31)})
	e.createTenant(t, "well", TenantConfig{Dim: 2, Bubbles: 8, CheckpointEvery: 4, Bootstrap: mkBootstrap(2, bootN, 32)})
	sickBatches := mkInsertBatches(2, 3, 16, 21)
	wellBatches := mkInsertBatches(2, 2, 16, 22)
	for i := 0; i < 2; i++ {
		if resp, body := e.ingest(t, "sick", sickBatches[i]); resp.StatusCode != http.StatusOK {
			t.Fatalf("sick ingest %d: %d %v", i, resp.StatusCode, body)
		}
		if resp, body := e.ingest(t, "well", wellBatches[i]); resp.StatusCode != http.StatusOK {
			t.Fatalf("well ingest %d: %d %v", i, resp.StatusCode, body)
		}
	}

	fams, err := scrapeParse(e.ts.URL)
	if err != nil {
		t.Fatalf("pre-poison scrape: %v", err)
	}
	for _, name := range []string{"sick", "well"} {
		pt := promPoint(fams, "server_ladder_state", name)
		if pt == nil || pt.Value != 0 || pt.Labels["reason"] != "healthy" {
			t.Fatalf("pre-poison ladder %s = %+v, want healthy 0", name, pt)
		}
	}

	reg.ArmError(wal.FailAppendNoSpace, 1, failpoint.ErrNoSpace)
	if resp, body := e.ingest(t, "sick", sickBatches[2]); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("poisoned ingest: %d %v", resp.StatusCode, body)
	}

	fams, err = scrapeParse(e.ts.URL)
	if err != nil {
		t.Fatalf("post-poison scrape: %v", err)
	}
	sick := promPoint(fams, "server_ladder_state", "sick")
	if sick == nil || sick.Value != 1 || sick.Labels["reason"] != "wal_poisoned" {
		t.Fatalf("poisoned ladder = %+v, want wal_poisoned 1", sick)
	}
	well := promPoint(fams, "server_ladder_state", "well")
	if well == nil || well.Value != 0 || well.Labels["reason"] != "healthy" {
		t.Fatalf("healthy ladder = %+v, want healthy 0", well)
	}
	if pt := promPoint(fams, "server_tenant_degraded", "sick"); pt == nil || pt.Raw != "1" {
		t.Fatalf("degraded counter = %+v, want exactly 1", pt)
	}
}

// TestMetricsDropCounters sizes the tenant's span ring far below its
// span rate and requires the scrape's trace_spans_dropped to go nonzero
// and to equal the ring's own Dropped() exactly.
func TestMetricsDropCounters(t *testing.T) {
	e := newTestEnv(t, Options{TraceCapacity: 8})
	const bootN = 12
	e.createTenant(t, "ring", TenantConfig{Dim: 2, Bubbles: 8, CheckpointEvery: 4, Bootstrap: mkBootstrap(2, bootN, 31)})
	for i, b := range mkInsertBatches(2, 12, 8, 23) {
		if resp, body := e.ingest(t, "ring", b); resp.StatusCode != http.StatusOK {
			t.Fatalf("ingest %d: %d %v", i, resp.StatusCode, body)
		}
	}
	tn, err := e.srv.Tenant("ring")
	if err != nil {
		t.Fatal(err)
	}
	// Quiesce: the write-behind checkpoint's span ends on the writer
	// goroutine, so let it finish before comparing the scrape with the
	// ring.
	if err := tn.log.WaitCheckpoint(); err != nil {
		t.Fatal(err)
	}
	fams, err := scrapeParse(e.ts.URL)
	if err != nil {
		t.Fatalf("scrape: %v", err)
	}
	if tn.tracer.Dropped() == 0 {
		t.Fatal("span ring with capacity 8 dropped nothing after 12 traced batches")
	}
	spans := promPoint(fams, "trace_spans_dropped", "ring")
	if want := strconv.FormatUint(tn.tracer.Dropped(), 10); spans == nil || spans.Raw != want {
		t.Fatalf("trace_spans_dropped = %+v, want exactly %s", spans, want)
	}
}

// TestReadyzFlipsDuringDrain pins the health split: /readyz answers 200
// until Drain and 503 with the draining reason after, while /healthz
// (liveness) stays 200 throughout — a draining process is healthy, just
// not accepting.
func TestReadyzFlipsDuringDrain(t *testing.T) {
	e := newTestEnv(t, Options{})
	const bootN = 12
	e.createTenant(t, "d", TenantConfig{Dim: 2, Bubbles: 8, Bootstrap: mkBootstrap(2, bootN, 31)})
	if resp, body := e.do(t, http.MethodGet, "/readyz", nil); resp.StatusCode != http.StatusOK || body["ready"] != true {
		t.Fatalf("readyz before drain: %d %v", resp.StatusCode, body)
	}
	if resp, body := e.do(t, http.MethodGet, "/healthz", nil); resp.StatusCode != http.StatusOK || body["draining"] != false {
		t.Fatalf("healthz before drain: %d %v", resp.StatusCode, body)
	}
	if err := e.srv.Drain(context.Background()); err != nil {
		t.Fatalf("drain: %v", err)
	}
	resp, body := e.do(t, http.MethodGet, "/readyz", nil)
	if resp.StatusCode != http.StatusServiceUnavailable || body["ready"] != false || body["reason"] != ReasonDraining {
		t.Fatalf("readyz after drain: %d %v", resp.StatusCode, body)
	}
	if resp, body := e.do(t, http.MethodGet, "/healthz", nil); resp.StatusCode != http.StatusOK || body["draining"] != true {
		t.Fatalf("healthz after drain: %d %v", resp.StatusCode, body)
	}
	// Metrics keep serving after drain (the scrape reads snapshots).
	if _, err := scrapeParse(e.ts.URL); err != nil {
		t.Fatalf("scrape after drain: %v", err)
	}
}

// TestTenantTraceEndpoint ingests through the instrumented HTTP path and
// requires the tenant's trace ring to serve a Chrome trace containing
// both the server-level root span and the core batch span beneath it,
// plus the flame-format variant; every response must carry the minted
// X-Request-Id. A trace-disabled server serves an empty (but valid)
// trace.
func TestTenantTraceEndpoint(t *testing.T) {
	e := newTestEnv(t, Options{})
	const bootN = 12
	e.createTenant(t, "tr", TenantConfig{Dim: 2, Bubbles: 8, Bootstrap: mkBootstrap(2, bootN, 31)})
	for i, b := range mkInsertBatches(2, 2, 16, 27) {
		resp, body := e.ingest(t, "tr", b)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("ingest %d: %d %v", i, resp.StatusCode, body)
		}
		if resp.Header.Get("X-Request-Id") == "" {
			t.Fatalf("ingest %d: no X-Request-Id header", i)
		}
	}

	resp, err := http.Get(e.ts.URL + "/tenants/tr/debug/trace")
	if err != nil {
		t.Fatal(err)
	}
	chrome, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("trace: status %d", resp.StatusCode)
	}
	if resp.Header.Get("X-Request-Id") == "" {
		t.Fatal("trace: no X-Request-Id header")
	}
	if !json.Valid(chrome) {
		t.Fatalf("trace: invalid JSON: %.200s", chrome)
	}
	for _, span := range []string{"server.ingest", "core.batch"} {
		if !bytes.Contains(chrome, []byte(span)) {
			t.Errorf("chrome trace missing span %q", span)
		}
	}

	resp, err = http.Get(e.ts.URL + "/tenants/tr/debug/trace?format=flame")
	if err != nil {
		t.Fatal(err)
	}
	flame, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !bytes.Contains(flame, []byte("server.ingest")) {
		t.Fatalf("flame trace: status %d body %.200s", resp.StatusCode, flame)
	}
	// A bad capture window is a rejected request, not the whole ring.
	resp, err = http.Get(e.ts.URL + "/tenants/tr/debug/trace?sec=abc")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("trace with sec=abc: status %d, want 400", resp.StatusCode)
	}

	// Tracing disabled: the nil-safe ring serves an empty, valid trace.
	e2 := newTestEnv(t, Options{TraceCapacity: -1})
	e2.createTenant(t, "off", TenantConfig{Dim: 2, Bubbles: 8, Bootstrap: mkBootstrap(2, bootN, 33)})
	if resp, body := e2.ingest(t, "off", mkInsertBatches(2, 1, 8, 29)[0]); resp.StatusCode != http.StatusOK {
		t.Fatalf("untraced ingest: %d %v", resp.StatusCode, body)
	}
	resp, err = http.Get(e2.ts.URL + "/tenants/off/debug/trace")
	if err != nil {
		t.Fatal(err)
	}
	empty, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !json.Valid(empty) {
		t.Fatalf("disabled trace: status %d body %.200s", resp.StatusCode, empty)
	}
	if bytes.Contains(empty, []byte("server.ingest")) {
		t.Fatal("disabled trace still recorded spans")
	}
}

// TestDebugPprofGated pins the -debug gate: the pprof mux is absent by
// default and mounted only when Options.Debug is set.
func TestDebugPprofGated(t *testing.T) {
	e := newTestEnv(t, Options{})
	resp, err := http.Get(e.ts.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("pprof without -debug: status %d, want 404", resp.StatusCode)
	}

	e2 := newTestEnv(t, Options{Debug: true})
	resp, err = http.Get(e2.ts.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	index, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !bytes.Contains(index, []byte("pprof")) {
		t.Fatalf("pprof with -debug: status %d body %.120s", resp.StatusCode, index)
	}
	resp, err = http.Get(e2.ts.URL + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof cmdline: status %d", resp.StatusCode)
	}
}

// syncBuffer is a mutex-guarded bytes.Buffer: the slog handler writes
// from tenant workers and HTTP handlers concurrently.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) lines() []string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return strings.Split(strings.TrimSpace(b.buf.String()), "\n")
}

// TestStructuredLogLines runs a request and a lifecycle through a JSON
// slog handler and requires one well-formed line per event: tenant open,
// the instrumented ingest request (request_id, route, status, tenant,
// latency, queue wait), the Debug-level health probe, and the drain
// bracket with the final checkpoint.
func TestStructuredLogLines(t *testing.T) {
	var buf syncBuffer
	logger := slog.New(slog.NewJSONHandler(&buf, &slog.HandlerOptions{Level: slog.LevelDebug}))
	e := newTestEnv(t, Options{Logger: logger})
	const bootN = 12
	e.createTenant(t, "logt", TenantConfig{Dim: 2, Bubbles: 8, Bootstrap: mkBootstrap(2, bootN, 31)})
	if resp, body := e.ingest(t, "logt", mkInsertBatches(2, 1, 16, 35)[0]); resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest: %d %v", resp.StatusCode, body)
	}
	if resp, _ := e.do(t, http.MethodGet, "/healthz", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d", resp.StatusCode)
	}
	if err := e.srv.Drain(context.Background()); err != nil {
		t.Fatalf("drain: %v", err)
	}

	var entries []map[string]any
	for i, line := range buf.lines() {
		var m map[string]any
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("log line %d not JSON: %v: %s", i, err, line)
		}
		entries = append(entries, m)
	}
	find := func(pred func(map[string]any) bool) map[string]any {
		for _, m := range entries {
			if pred(m) {
				return m
			}
		}
		return nil
	}
	if m := find(func(m map[string]any) bool {
		return m["msg"] == "tenant open" && m["tenant"] == "logt"
	}); m == nil {
		t.Error("no 'tenant open' line for logt")
	}
	ingestLine := find(func(m map[string]any) bool {
		return m["msg"] == "request" && m["route"] == "ingest" && m["tenant"] == "logt"
	})
	if ingestLine == nil {
		t.Fatal("no request line for the ingest route")
	}
	if id, ok := ingestLine["request_id"].(float64); !ok || id < 1 {
		t.Errorf("ingest line request_id = %v", ingestLine["request_id"])
	}
	if st, ok := ingestLine["status"].(float64); !ok || int(st) != http.StatusOK {
		t.Errorf("ingest line status = %v", ingestLine["status"])
	}
	for _, key := range []string{"latency_ms", "queue_wait_ms"} {
		if _, ok := ingestLine[key].(float64); !ok {
			t.Errorf("ingest line missing %s: %v", key, ingestLine)
		}
	}
	if m := find(func(m map[string]any) bool {
		return m["msg"] == "request" && m["route"] == "healthz" && m["level"] == "DEBUG"
	}); m == nil {
		t.Error("no Debug-level request line for healthz")
	}
	for _, msg := range []string{"drain start", "drain done", "final checkpoint"} {
		msg := msg
		if m := find(func(m map[string]any) bool { return m["msg"] == msg }); m == nil {
			t.Errorf("no %q line", msg)
		}
	}
}
