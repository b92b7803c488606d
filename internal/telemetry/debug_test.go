package telemetry

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"incbubbles/internal/trace"
)

// exactCounter is above 2^53, so only an exact uint64 rendering (no float
// round trip) reproduces it.
const exactCounter = 1<<53 + 1

// get performs a request against the mux and returns status, content type
// and body.
func get(t *testing.T, mux http.Handler, target string) (int, string, []byte) {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, target, nil)
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, req)
	res := rec.Result()
	body, err := io.ReadAll(res.Body)
	if err != nil {
		t.Fatal(err)
	}
	return res.StatusCode, res.Header.Get("Content-Type"), body
}

// TestDebugTelemetryEndpoint: the debug server's /metrics is the
// Prometheus exposition of the sink's registry, with exact counters and
// well-formed histograms.
func TestDebugTelemetryEndpoint(t *testing.T) {
	sink := NewSink()
	sink.Counter(MetricDistanceComputed).Add(exactCounter)
	h := sink.Histogram("batch_seconds", []float64{1, 2, 4})
	for i := 0; i < 100; i++ {
		h.Observe(1.5)
	}
	mux := debugMux(sink, nil)

	code, ctype, body := get(t, mux, "/metrics")
	if code != http.StatusOK || !strings.HasPrefix(ctype, "text/plain; version=0.0.4") {
		t.Fatalf("status=%d content-type=%q", code, ctype)
	}
	fams, err := ParseProm(strings.NewReader(string(body)))
	if err != nil {
		t.Fatalf("unparsable exposition: %v\n%s", err, body)
	}
	ctr := fams["distance_computed"]
	if ctr == nil || len(ctr.Points) != 1 || ctr.Points[0].Raw != strconv.FormatUint(exactCounter, 10) {
		t.Fatalf("distance_computed did not round-trip exactly: %+v", ctr)
	}
	hist := fams["batch_seconds"]
	if hist == nil || hist.Type != "histogram" {
		t.Fatalf("histogram family missing or mistyped: %+v", hist)
	}
	assertHistogramShape(t, hist, "", 100)
}

// TestDebugTelemetryNilSink: a nil sink and a nil tracer serve an empty
// exposition and an empty trace, not a panic.
func TestDebugTelemetryNilSink(t *testing.T) {
	mux := debugMux(nil, nil)
	for _, target := range []string{"/metrics", "/debug/trace", "/debug/trace?format=flame"} {
		if code, _, _ := get(t, mux, target); code != http.StatusOK {
			t.Errorf("%s on nil sink: status %d", target, code)
		}
	}
}

func TestDebugTraceEndpoint(t *testing.T) {
	tr := trace.New(trace.Options{Capacity: 64})
	parent := tr.Start("core.batch")
	child := parent.Start("core.search")
	child.SetInt("dist_computed", 7)
	child.End()
	parent.End()

	mux := debugMux(NewSink(), tr)
	code, ctype, body := get(t, mux, "/debug/trace")
	if code != http.StatusOK || !strings.HasPrefix(ctype, "application/json") {
		t.Fatalf("status=%d content-type=%q", code, ctype)
	}
	var chrome struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(body, &chrome); err != nil {
		t.Fatalf("invalid chrome trace: %v\n%s", err, body)
	}
	if len(chrome.TraceEvents) != 2 {
		t.Fatalf("got %d trace events, want 2", len(chrome.TraceEvents))
	}
	for _, ev := range chrome.TraceEvents {
		if ev.Ph != "X" {
			t.Fatalf("event phase %q, want X", ev.Ph)
		}
	}

	code, ctype, body = get(t, mux, "/debug/trace?format=flame")
	if code != http.StatusOK || !strings.HasPrefix(ctype, "text/plain") {
		t.Fatalf("flame: status=%d content-type=%q", code, ctype)
	}
	if !strings.Contains(string(body), "core.search") {
		t.Fatalf("flame output missing span name:\n%s", body)
	}
}

// TestDebugTraceRejectsBadParams: a present sec that is not a positive
// integer, or a format other than flame, answers 400 instead of silently
// serving the whole ring as JSON; nil tracer or not.
func TestDebugTraceRejectsBadParams(t *testing.T) {
	for _, tr := range []*trace.Tracer{nil, trace.New(trace.Options{Capacity: 16})} {
		mux := debugMux(nil, tr)
		for _, query := range []string{
			"sec=abc", "sec=-5", "sec=0", "sec=", "sec=2.5",
			"format=xml", "format=", "format=FLAME", "format=flame&sec=abc",
		} {
			if code, _, body := get(t, mux, "/debug/trace?"+query); code != http.StatusBadRequest {
				t.Errorf("/debug/trace?%s (tracer %v): status %d body %.100s, want 400", query, tr != nil, code, body)
			}
		}
	}
}

// TestDebugTraceCaptureWindow: ?sec=N returns only spans started inside
// the window, and a cancelled request returns early with what accumulated.
func TestDebugTraceCaptureWindow(t *testing.T) {
	tr := trace.New(trace.Options{Capacity: 64})
	tr.Start("before.window").End()
	mux := debugMux(nil, tr)

	done := make(chan []byte, 1)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		req := httptest.NewRequest(http.MethodGet, "/debug/trace?sec=30", nil).WithContext(ctx)
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, req)
		done <- rec.Body.Bytes()
	}()
	// Give the handler a beat to take its since-stamp, emit a span inside
	// the window, then cancel rather than sitting out the 30 seconds.
	time.Sleep(50 * time.Millisecond)
	tr.Start("inside.window").End()
	time.Sleep(50 * time.Millisecond)
	cancel()

	select {
	case body := <-done:
		s := string(body)
		if !strings.Contains(s, "inside.window") {
			t.Fatalf("window span missing:\n%s", s)
		}
		if strings.Contains(s, "before.window") {
			t.Fatalf("pre-window span leaked into capture:\n%s", s)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("cancelled capture did not return")
	}
}

// TestDebugConcurrentCaptures hammers every endpoint while spans and
// metrics are recorded concurrently; the race detector is the oracle.
func TestDebugConcurrentCaptures(t *testing.T) {
	sink := NewSink()
	tr := trace.New(trace.Options{Capacity: 128})
	mux := debugMux(sink, tr)

	stop := make(chan struct{})
	var writers sync.WaitGroup
	writers.Add(1)
	go func() {
		defer writers.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			sp := tr.Start("core.batch")
			sp.Start("core.search").End()
			sp.End()
			sink.Counter(MetricCoreBatches).Inc()
			sink.Histogram(MetricPhaseSearchSeconds, SecondsBounds()).Observe(1e-4)
		}
	}()

	var readers sync.WaitGroup
	for i := 0; i < 4; i++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			targets := []string{
				"/metrics",
				"/debug/trace", "/debug/trace?format=flame", "/debug/trace?sec=1",
			}
			ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
			defer cancel()
			for _, target := range targets {
				req := httptest.NewRequest(http.MethodGet, target, nil).WithContext(ctx)
				rec := httptest.NewRecorder()
				mux.ServeHTTP(rec, req)
				if rec.Code != http.StatusOK {
					t.Errorf("%s: status %d", target, rec.Code)
				}
			}
		}()
	}
	readers.Wait()
	close(stop)
	writers.Wait()
}

// TestServeDebug boots the real server on a loopback port — once wired
// to a sink and a tracer, once to neither — scrapes each over TCP, then
// cancels and requires both to shut down.
func TestServeDebug(t *testing.T) {
	client := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}
	fetch := func(url string) (int, []byte) {
		t.Helper()
		res, err := client.Get(url)
		if err != nil {
			t.Fatalf("GET %s: %v", url, err)
		}
		defer res.Body.Close()
		body, err := io.ReadAll(res.Body)
		if err != nil {
			t.Fatalf("GET %s: %v", url, err)
		}
		return res.StatusCode, body
	}

	sink := NewSink()
	sink.Counter(MetricDistanceComputed).Add(exactCounter)
	tr := trace.New(trace.Options{Capacity: 16})
	tr.Start("core.batch").End()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	bound, done, err := ServeDebug(ctx, "127.0.0.1:0", sink, tr)
	if err != nil {
		t.Fatal(err)
	}
	nilCtx, nilCancel := context.WithCancel(context.Background())
	defer nilCancel()
	nilBound, nilDone, err := ServeDebug(nilCtx, "127.0.0.1:0", nil, nil)
	if err != nil {
		t.Fatal(err)
	}

	code, body := fetch("http://" + bound + "/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics: status %d", code)
	}
	fams, err := ParseProm(strings.NewReader(string(body)))
	if err != nil {
		t.Fatalf("/metrics does not parse: %v\n%s", err, body)
	}
	want := strconv.FormatUint(sink.Counter(MetricDistanceComputed).Value(), 10)
	if ctr := fams["distance_computed"]; ctr == nil || len(ctr.Points) != 1 || ctr.Points[0].Raw != want {
		t.Fatalf("distance_computed = %+v, want exactly %s", ctr, want)
	}
	if code, body := fetch("http://" + bound + "/debug/trace"); code != http.StatusOK || !strings.Contains(string(body), "core.batch") {
		t.Fatalf("/debug/trace: status %d body %.200s", code, body)
	}
	if code, _ := fetch("http://" + bound + "/debug/pprof/cmdline"); code != http.StatusOK {
		t.Fatalf("/debug/pprof/cmdline: status %d", code)
	}
	for _, path := range []string{"/metrics", "/debug/trace"} {
		if code, _ := fetch("http://" + nilBound + path); code != http.StatusOK {
			t.Fatalf("%s with nil sink and tracer: status %d", path, code)
		}
	}

	cancel()
	nilCancel()
	for _, ch := range []<-chan struct{}{done, nilDone} {
		select {
		case <-ch:
		case <-time.After(10 * time.Second):
			t.Fatal("server did not shut down after cancel")
		}
	}
	if res, err := client.Get("http://" + bound + "/metrics"); err == nil {
		res.Body.Close()
		t.Fatal("server still answering after shutdown")
	}
}
