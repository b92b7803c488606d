package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"incbubbles/internal/core"
	"incbubbles/internal/dataset"
	"incbubbles/internal/failpoint"
	"incbubbles/internal/stats"
	"incbubbles/internal/telemetry"
	"incbubbles/internal/vecmath"
	"incbubbles/internal/wal"
)

// oracleCoreOpts rebuilds the core options the server derives for a
// tenant, for out-of-band wal.Resume verification.
func oracleCoreOpts(bubbles int, seed int64) core.Options {
	return core.Options{NumBubbles: bubbles, UseTriangleInequality: true, Seed: seed}
}

// mkBootstrap generates a deterministic initial point set around two
// well-separated centres.
func mkBootstrap(dim, n int, seed int64) [][]float64 {
	rng := stats.NewRNG(seed)
	out := make([][]float64, n)
	for i := range out {
		p := make([]float64, dim)
		centre := float64(8 * (i % 2))
		for d := range p {
			p[d] = centre + rng.Float64()
		}
		out[i] = p
	}
	return out
}

// mkBatches generates deterministic template batches: mostly inserts
// around two well-separated centres, with a few deletes of previously
// inserted IDs mixed in from the second batch on. Insert IDs are
// pre-stamped from idBase by the same sequential rule the server's
// worker uses (bootstrap points take 0..idBase-1), so the templates
// predict exactly the IDs the server will assign when the batches are
// ingested in order.
func mkBatches(dim, nBatches, perBatch int, seed int64, idBase uint64) []dataset.Batch {
	rng := stats.NewRNG(seed)
	next := idBase
	var live []uint64
	out := make([]dataset.Batch, nBatches)
	for b := range out {
		var batch dataset.Batch
		for i := 0; i < perBatch; i++ {
			if b > 0 && len(live) > 8 && i%5 == 4 {
				k := rng.Intn(len(live))
				batch = append(batch, dataset.Update{Op: dataset.OpDelete, ID: dataset.PointID(live[k])})
				live = append(live[:k], live[k+1:]...)
				continue
			}
			p := make(vecmath.Point, dim)
			centre := float64(8 * (i % 2))
			for d := range p {
				p[d] = centre + rng.Float64()
			}
			batch = append(batch, dataset.Update{Op: dataset.OpInsert, ID: dataset.PointID(next), P: p, Label: i % 2})
			live = append(live, next)
			next++
		}
		out[b] = batch
	}
	return out
}

// mkBatchesFrom regenerates the same deterministic stream as mkBatches
// and returns count batches starting at index from — the re-driven
// suffix of a longer workload.
func mkBatchesFrom(dim, from, count, perBatch int, seed int64, idBase uint64) []dataset.Batch {
	all := mkBatches(dim, from+count, perBatch, seed, idBase)
	return all[from : from+count]
}

// mkInsertBatches generates insert-only batches, for tests where some
// batches deliberately never apply (deletes would then dangle).
func mkInsertBatches(dim, nBatches, perBatch int, seed int64) []dataset.Batch {
	rng := stats.NewRNG(seed)
	out := make([]dataset.Batch, nBatches)
	for b := range out {
		batch := make(dataset.Batch, perBatch)
		for i := range batch {
			p := make(vecmath.Point, dim)
			centre := float64(8 * (i % 2))
			for d := range p {
				p[d] = centre + rng.Float64()
			}
			batch[i] = dataset.Update{Op: dataset.OpInsert, P: p, Label: i % 2}
		}
		out[b] = batch
	}
	return out
}

// netPoints folds a batch stream over a starting population.
func netPoints(start int, batches []dataset.Batch) int {
	for _, b := range batches {
		ins, del := b.Counts()
		start += ins - del
	}
	return start
}

// wireBody converts a template batch to the HTTP ingest body. Insert IDs
// are deliberately dropped: the server assigns them, and the templates
// predict the assignment.
func wireBody(t *testing.T, batch dataset.Batch) *bytes.Reader {
	t.Helper()
	var body ingestBody
	for _, u := range batch {
		switch u.Op {
		case dataset.OpInsert:
			body.Updates = append(body.Updates, updateJSON{Op: "insert", P: u.P, Label: u.Label})
		case dataset.OpDelete:
			id := uint64(u.ID)
			body.Updates = append(body.Updates, updateJSON{Op: "delete", ID: &id})
		}
	}
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	return bytes.NewReader(b)
}

type testEnv struct {
	srv *Server
	ts  *httptest.Server
}

func newTestEnv(t *testing.T, opts Options) *testEnv {
	t.Helper()
	if opts.Root == "" {
		opts.Root = t.TempDir()
	}
	if opts.Seed == 0 {
		opts.Seed = 9
	}
	srv, err := New(opts)
	if err != nil {
		t.Fatalf("server.New: %v", err)
	}
	ts := httptest.NewServer(srv.Handler())
	e := &testEnv{srv: srv, ts: ts}
	t.Cleanup(e.kill)
	return e
}

// kill stops serving the way a crash would — no drain, no final
// checkpoints, no closes — after waiting out every tenant's write-behind
// checkpoint, so no background write races a restart over the same root
// or the removal of the test's directories.
func (e *testEnv) kill() {
	e.ts.Close()
	e.srv.mu.RLock()
	defer e.srv.mu.RUnlock()
	for _, tn := range e.srv.tenants {
		_ = tn.log.WaitCheckpoint()
	}
}

func (e *testEnv) do(t *testing.T, method, path string, body *bytes.Reader) (*http.Response, map[string]any) {
	t.Helper()
	var rd *bytes.Reader
	if body == nil {
		rd = bytes.NewReader(nil)
	} else {
		rd = body
	}
	req, err := http.NewRequestWithContext(context.Background(), method, e.ts.URL+path, rd)
	if err != nil {
		t.Fatalf("request: %v", err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, path, err)
	}
	defer resp.Body.Close()
	var decoded map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&decoded); err != nil {
		t.Fatalf("%s %s: decode: %v", method, path, err)
	}
	return resp, decoded
}

func (e *testEnv) createTenant(t *testing.T, name string, cfg TenantConfig) {
	t.Helper()
	b, _ := json.Marshal(cfg)
	resp, body := e.do(t, http.MethodPut, "/tenants/"+name, bytes.NewReader(b))
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create %s: status %d body %v", name, resp.StatusCode, body)
	}
}

func (e *testEnv) ingest(t *testing.T, name string, batch dataset.Batch) (*http.Response, map[string]any) {
	t.Helper()
	return e.do(t, http.MethodPost, "/tenants/"+name+"/batches", wireBody(t, batch))
}

func walDirOf(root, tenant string) string {
	return fmt.Sprintf("%s/%s/%s", root, tenant, walSubdir)
}

// TestTenantLifecycleAndReads walks every endpoint on a healthy tenant,
// once plain and once created with the deprecated pipeline_depth (which
// must change nothing): create (with bootstrap), ingest, status, the
// approx family, the reachability plot, rejected batches, idempotent
// re-create, config mismatch, and bootstrap validation.
func TestTenantLifecycleAndReads(t *testing.T) {
	e := newTestEnv(t, Options{})
	const bootN = 12
	for _, tc := range []struct {
		name  string
		depth int
	}{{"serial", 0}, {"piped", 2}} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			name := "life-" + tc.name
			e.createTenant(t, name, TenantConfig{
				Dim: 2, Bubbles: 8, Seed: 3, PipelineDepth: tc.depth,
				CheckpointEvery: 2, Bootstrap: mkBootstrap(2, bootN, 31),
			})
			batches := mkBatches(2, 3, 30, 11, bootN)
			points := netPoints(bootN, batches)
			for i, b := range batches {
				resp, body := e.ingest(t, name, b)
				if resp.StatusCode != http.StatusOK {
					t.Fatalf("ingest %d: status %d body %v", i, resp.StatusCode, body)
				}
				if got := int(body["ordinal"].(float64)); got != i {
					t.Fatalf("ingest %d: ordinal %d", i, got)
				}
				// The server-assigned IDs must match the template's
				// prediction — deletes in later batches rely on it.
				wantFirst := uint64(0)
				for _, u := range b {
					if u.Op == dataset.OpInsert {
						wantFirst = uint64(u.ID)
						break
					}
				}
				if got := uint64(body["first_id"].(float64)); got != wantFirst {
					t.Fatalf("ingest %d: first_id %d, want %d", i, got, wantFirst)
				}
			}
			resp, st := e.do(t, http.MethodGet, "/tenants/"+name+"/status", nil)
			if resp.StatusCode != http.StatusOK || int(st["applied"].(float64)) != len(batches) {
				t.Fatalf("status: %d %v", resp.StatusCode, st)
			}
			if int(st["points"].(float64)) != points {
				t.Fatalf("status points = %v, want %d", st["points"], points)
			}
			resp, cnt := e.do(t, http.MethodGet, "/tenants/"+name+"/approx/count", nil)
			if resp.StatusCode != http.StatusOK || int(cnt["count"].(float64)) != points {
				t.Fatalf("approx count: %d %v (want %d points)", resp.StatusCode, cnt, points)
			}
			if resp, _ := e.do(t, http.MethodGet, "/tenants/"+name+"/approx/mean", nil); resp.StatusCode != http.StatusOK {
				t.Fatalf("approx mean: %d", resp.StatusCode)
			}
			if resp, _ := e.do(t, http.MethodGet, "/tenants/"+name+"/approx/variance", nil); resp.StatusCode != http.StatusOK {
				t.Fatalf("approx variance: %d", resp.StatusCode)
			}
			rc, _ := json.Marshal(rangeCountBody{Lo: []float64{-1, -1}, Hi: []float64{20, 20}, Samples: 64, Seed: 5})
			resp, est := e.do(t, http.MethodPost, "/tenants/"+name+"/approx/rangecount", bytes.NewReader(rc))
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("rangecount: %d %v", resp.StatusCode, est)
			}
			if got := est["estimate"].(float64); got < float64(points)*0.8 || got > float64(points)*1.2 {
				t.Fatalf("rangecount over a box containing everything = %v, want ≈%d", got, points)
			}
			resp, _ = e.do(t, http.MethodGet, "/tenants/"+name+"/approx/histogram?axis=0&bins=8&lo=-1&hi=20&samples=64", nil)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("histogram: %d", resp.StatusCode)
			}
			// Client-chosen bins and samples above their caps are rejected
			// requests, before any allocation or sampling.
			for _, over := range []string{
				fmt.Sprintf("bins=%d", maxHistogramBins+1),
				fmt.Sprintf("samples=%d", maxApproxSamples+1),
			} {
				resp, body := e.do(t, http.MethodGet, "/tenants/"+name+"/approx/histogram?axis=0&lo=-1&hi=20&"+over, nil)
				if resp.StatusCode != http.StatusBadRequest || body["reason"] != ReasonBadRequest {
					t.Fatalf("histogram with %s: %d reason %v, want 400 %s", over, resp.StatusCode, body["reason"], ReasonBadRequest)
				}
			}
			// Non-finite edges and parameters that are present but do not
			// parse, or bins and samples that are not positive integers,
			// are rejected requests, not a panic or a silent default.
			for _, query := range []string{
				"lo=NaN&hi=20", "lo=-Inf&hi=20", "lo=-1&hi=NaN", "lo=-1&hi=1e400", "lo=-1&hi=abc",
				"lo=-1&hi=20&axis=x", "lo=-1&hi=20&bins=2.5", "lo=-1&hi=20&samples=", "lo=-1&hi=20&seed=s",
				"lo=-1&hi=20&bins=-3", "lo=-1&hi=20&bins=0", "lo=-1&hi=20&samples=-5", "lo=-1&hi=20&samples=0",
			} {
				resp, body := e.do(t, http.MethodGet, "/tenants/"+name+"/approx/histogram?"+query, nil)
				if resp.StatusCode != http.StatusBadRequest || body["reason"] != ReasonBadRequest {
					t.Fatalf("histogram with %s: %d %v, want 400 %s", query, resp.StatusCode, body, ReasonBadRequest)
				}
			}
			// Absent bins and samples take their defaults.
			resp, hist := e.do(t, http.MethodGet, "/tenants/"+name+"/approx/histogram?axis=0&lo=-1&hi=20", nil)
			if bins, _ := hist["bins"].([]any); resp.StatusCode != http.StatusOK || len(bins) != 16 {
				t.Fatalf("histogram with default bins: %d %v, want 200 with 16 bins", resp.StatusCode, hist)
			}
			for _, samples := range []int{maxApproxSamples + 1, -7} {
				rc, _ = json.Marshal(rangeCountBody{Lo: []float64{-1, -1}, Hi: []float64{20, 20}, Samples: samples})
				resp, est = e.do(t, http.MethodPost, "/tenants/"+name+"/approx/rangecount", bytes.NewReader(rc))
				if resp.StatusCode != http.StatusBadRequest || est["reason"] != ReasonBadRequest {
					t.Fatalf("rangecount with samples %d: %d %v, want 400 %s", samples, resp.StatusCode, est, ReasonBadRequest)
				}
			}
			resp, plot := e.do(t, http.MethodGet, "/tenants/"+name+"/plot?minpts=5", nil)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("plot: %d %v", resp.StatusCode, plot)
			}
			if got := int(plot["total_weight"].(float64)); got != points {
				t.Fatalf("plot total weight = %d, want %d", got, points)
			}
			// A plot parameter that is present must be a positive integer
			// minpts or a finite eps above 0; none silently defaults.
			for _, query := range []string{
				"minpts=abc", "minpts=0", "minpts=-3", "minpts=2.5", "minpts=",
				"eps=abc", "eps=1e400", "eps=-1", "eps=0", "eps=NaN", "eps=Inf", "eps=",
			} {
				resp, body := e.do(t, http.MethodGet, "/tenants/"+name+"/plot?"+query, nil)
				if resp.StatusCode != http.StatusBadRequest || body["reason"] != ReasonBadRequest {
					t.Fatalf("plot with %s: %d %v, want 400 %s", query, resp.StatusCode, body, ReasonBadRequest)
				}
			}
			resp, plot = e.do(t, http.MethodGet, "/tenants/"+name+"/plot?minpts=2&eps=1e6", nil)
			if resp.StatusCode != http.StatusOK || int(plot["min_pts"].(float64)) != 2 {
				t.Fatalf("plot with minpts=2&eps=1e6: %d %v", resp.StatusCode, plot)
			}

			// A dangling delete or a reserved label is a rejected
			// request, not a fault: 400, nothing applied, and the tenant
			// keeps working.
			for _, bad := range []string{
				`{"updates":[{"op":"delete","id":1099511627776}]}`,
				`{"updates":[{"op":"insert","p":[1,2],"label":-7}]}`,
			} {
				resp, body := e.do(t, http.MethodPost, "/tenants/"+name+"/batches", bytes.NewReader([]byte(bad)))
				if resp.StatusCode != http.StatusBadRequest {
					t.Fatalf("%s: %d %v", bad, resp.StatusCode, body)
				}
				resp, st = e.do(t, http.MethodGet, "/tenants/"+name+"/status", nil)
				if resp.StatusCode != http.StatusOK || st["read_only"] == true || int(st["applied"].(float64)) != len(batches) {
					t.Fatalf("status after %s: %d %v", bad, resp.StatusCode, st)
				}
			}
			if resp, body := e.ingest(t, name, mkInsertBatches(2, 1, 5, 13)[0]); resp.StatusCode != http.StatusOK {
				t.Fatalf("ingest after rejected batches: %d %v", resp.StatusCode, body)
			}

			// Idempotent re-create; mismatched dim refused.
			b, _ := json.Marshal(TenantConfig{Dim: 2, Bubbles: 8})
			if resp, _ := e.do(t, http.MethodPut, "/tenants/"+name, bytes.NewReader(b)); resp.StatusCode != http.StatusOK {
				t.Fatalf("re-create: %d", resp.StatusCode)
			}
			b, _ = json.Marshal(TenantConfig{Dim: 5, Bubbles: 8})
			if resp, _ := e.do(t, http.MethodPut, "/tenants/"+name, bytes.NewReader(b)); resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("mismatched re-create: %d", resp.StatusCode)
			}
		})
	}
	// Creating without enough bootstrap points is a 400.
	b, _ := json.Marshal(TenantConfig{Dim: 2, Bubbles: 8, Bootstrap: mkBootstrap(2, 3, 1)})
	if resp, body := e.do(t, http.MethodPut, "/tenants/starved", bytes.NewReader(b)); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("starved create: %d %v", resp.StatusCode, body)
	}
	resp, ls := e.do(t, http.MethodGet, "/tenants", nil)
	if resp.StatusCode != http.StatusOK || len(ls["tenants"].([]any)) != 2 {
		t.Fatalf("list: %d %v", resp.StatusCode, ls)
	}
	if resp, hz := e.do(t, http.MethodGet, "/healthz", nil); resp.StatusCode != http.StatusOK || hz["draining"].(bool) {
		t.Fatalf("healthz: %d %v", resp.StatusCode, hz)
	}
}

// TestCreateTenantErrors pins the create reasons: a config without a
// dim (with no server default dim to fall back on), or with a
// queue_depth or retry_attempts above its cap, is the client's error
// (400 bad_request, nothing written), while a storage failure during
// creation is the server's (500 create_failed). A value at its cap is
// accepted, and server-wide defaults above a cap fail New.
func TestCreateTenantErrors(t *testing.T) {
	reg := failpoint.New(7)
	root := t.TempDir()
	e := newTestEnv(t, Options{Root: root, Failpoints: reg})
	for _, tc := range []struct{ name, body string }{
		{"nodim", ""},
		{"nodim", `{"bubbles":4}`},
		{"qhuge", `{"dim":2,"bubbles":1,"queue_depth":4611686018427387904,"bootstrap":[[0,0]]}`},
		{"qover", fmt.Sprintf(`{"dim":2,"bubbles":1,"queue_depth":%d,"bootstrap":[[0,0]]}`, maxQueueDepth+1)},
		{"rover", fmt.Sprintf(`{"dim":2,"bubbles":1,"retry_attempts":%d,"bootstrap":[[0,0]]}`, maxRetryAttempts+1)},
	} {
		resp, reply := e.do(t, http.MethodPut, "/tenants/"+tc.name, bytes.NewReader([]byte(tc.body)))
		if resp.StatusCode != http.StatusBadRequest || reply["reason"] != ReasonBadRequest {
			t.Fatalf("create %s with body %q: %d %v, want 400 %s", tc.name, tc.body, resp.StatusCode, reply, ReasonBadRequest)
		}
		requireNoTenantDir(t, root, tc.name)
	}
	// One attempt only, so the injected checkpoint error is not retried
	// away.
	reg.ArmError(wal.FailCkptWrite, 1, nil)
	b, _ := json.Marshal(TenantConfig{Dim: 2, Bubbles: 4, RetryAttempts: 1, Bootstrap: mkBootstrap(2, 8, 31)})
	resp, reply := e.do(t, http.MethodPut, "/tenants/broken", bytes.NewReader(b))
	if resp.StatusCode != http.StatusInternalServerError || reply["reason"] != ReasonCreateFailed {
		t.Fatalf("create with a failing checkpoint write: %d %v, want 500 %s", resp.StatusCode, reply, ReasonCreateFailed)
	}
	if n := reg.Hits(wal.FailCkptWrite); n != 1 {
		t.Fatalf("checkpoint write evaluated %d times, want 1", n)
	}
	e.createTenant(t, "atcap", TenantConfig{
		Dim: 2, Bubbles: 1, QueueDepth: maxQueueDepth, RetryAttempts: maxRetryAttempts, Bootstrap: [][]float64{{0, 0}},
	})
	for _, d := range []TenantConfig{{QueueDepth: maxQueueDepth + 1}, {RetryAttempts: maxRetryAttempts + 1}} {
		if _, err := New(Options{Root: t.TempDir(), Defaults: d}); err == nil {
			t.Fatalf("New accepted defaults %+v above a cap", d)
		}
	}
}

// waitWorkerIdle spins until the tenant worker has pulled everything
// out of the queue (it is then parked at the test gate).
func waitWorkerIdle(t *testing.T, tn *tenant) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for len(tn.queue) > 0 {
		if time.Now().After(deadline) {
			t.Fatal("worker never drained the queue")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestQueueOverflow429 pins admission control: with the worker parked
// on the pacing gate and the queue at capacity, ingest returns 429 with
// Retry-After — and succeeds again once the queue drains.
func TestQueueOverflow429(t *testing.T) {
	e := newTestEnv(t, Options{})
	gate := make(chan struct{})
	// The gate is an unexported field, so the tenant must be created
	// in-process rather than over HTTP.
	cfg := TenantConfig{Dim: 2, Bubbles: 4, Seed: 3, QueueDepth: 2, Bootstrap: mkBootstrap(2, 8, 31), testGate: gate}
	if _, err := e.srv.CreateTenant("q", cfg); err != nil {
		t.Fatal(err)
	}
	tn, err := e.srv.Tenant("q")
	if err != nil {
		t.Fatal(err)
	}
	batches := mkBatches(2, 5, 10, 7, 8)

	// One request held at the gate, two filling the queue.
	var held []*ingestReq
	r0, err := tn.Admit(context.Background(), batches[0])
	if err != nil {
		t.Fatalf("admit 0: %v", err)
	}
	held = append(held, r0)
	waitWorkerIdle(t, tn)
	for i := 1; i <= 2; i++ {
		r, err := tn.Admit(context.Background(), batches[i])
		if err != nil {
			t.Fatalf("admit %d: %v", i, err)
		}
		held = append(held, r)
	}

	resp, body := e.ingest(t, "q", batches[3])
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow ingest: status %d body %v", resp.StatusCode, body)
	}
	if body["reason"] != ReasonQueueFull {
		t.Fatalf("overflow reason = %v", body["reason"])
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 carried no Retry-After")
	}

	close(gate)
	for i, r := range held {
		if res := <-r.done; res.err != nil || res.ordinal != i {
			t.Fatalf("held request %d: ordinal %d err %v", i, res.ordinal, res.err)
		}
	}
	if resp, body := e.ingest(t, "q", batches[3]); resp.StatusCode != http.StatusOK {
		t.Fatalf("post-drain ingest: %d %v", resp.StatusCode, body)
	}
}

// TestDeadlineCancellation pins the all-or-nothing contract under a
// mid-request client cancellation: the worker had already pulled the
// request (mid-flight, parked at the gate) when the context died, and
// the batch must not be applied at all — the tenant's applied count and
// summary are untouched, and the next batch takes the freed ordinal.
func TestDeadlineCancellation(t *testing.T) {
	e := newTestEnv(t, Options{})
	gate := make(chan struct{})
	cfg := TenantConfig{Dim: 2, Bubbles: 4, Seed: 3, Bootstrap: mkBootstrap(2, 8, 31), testGate: gate}
	if _, err := e.srv.CreateTenant("dl", cfg); err != nil {
		t.Fatal(err)
	}
	tn, err := e.srv.Tenant("dl")
	if err != nil {
		t.Fatal(err)
	}
	batches := mkInsertBatches(2, 3, 12, 13)

	// Batch 0 through cleanly.
	r0, err := tn.Admit(context.Background(), batches[0])
	if err != nil {
		t.Fatal(err)
	}
	gate <- struct{}{}
	if res := <-r0.done; res.err != nil {
		t.Fatalf("batch 0: %v", res.err)
	}

	// Batch 1 admitted, pulled by the worker, then cancelled mid-flight.
	cctx, cancel := context.WithCancel(context.Background())
	r1, err := tn.Admit(cctx, batches[1])
	if err != nil {
		t.Fatal(err)
	}
	waitWorkerIdle(t, tn)
	cancel()
	gate <- struct{}{}
	res := <-r1.done
	if res.err == nil {
		t.Fatal("cancelled ingest reported success")
	}
	if tn.sink.Counter(telemetry.MetricServerCancelledBefore).Value() != 1 {
		t.Fatalf("cancellation not accounted: %v", res.err)
	}

	// Nothing side of all-or-nothing: applied count and summary as
	// after batch 0 only; batch 2 gets ordinal 1.
	resp, st := e.do(t, http.MethodGet, "/tenants/dl/status", nil)
	if resp.StatusCode != http.StatusOK || int(st["applied"].(float64)) != 1 {
		t.Fatalf("status after cancellation: %d %v", resp.StatusCode, st)
	}
	r2, err := tn.Admit(context.Background(), batches[2])
	if err != nil {
		t.Fatal(err)
	}
	gate <- struct{}{}
	if res := <-r2.done; res.err != nil || res.ordinal != 1 {
		t.Fatalf("batch 2: ordinal %d err %v", res.ordinal, res.err)
	}
}

// TestOversizedBatchRejected sends a batch whose WAL record would exceed
// the 64 MiB record cap: 8,208 zero inserts at dim 1024, a 17 MB body.
// The WAL refuses it before any write, so it is a client error — 400,
// nothing applied — and the tenant keeps accepting normal batches.
func TestOversizedBatchRejected(t *testing.T) {
	e := newTestEnv(t, Options{})
	const dim, inserts = 1024, 8208
	e.createTenant(t, "huge", TenantConfig{Dim: dim, Bubbles: 1, Bootstrap: [][]float64{make([]float64, dim)}})
	insert := `{"op":"insert","p":[0` + strings.Repeat(",0", dim-1) + `]}`
	body := `{"updates":[` + insert + strings.Repeat(","+insert, inserts-1) + `]}`
	resp, reply := e.do(t, http.MethodPost, "/tenants/huge/batches", bytes.NewReader([]byte(body)))
	if resp.StatusCode != http.StatusBadRequest || reply["reason"] != ReasonBadRequest {
		t.Fatalf("oversized batch: %d %v, want 400 %s", resp.StatusCode, reply, ReasonBadRequest)
	}
	resp, st := e.do(t, http.MethodGet, "/tenants/huge/status", nil)
	if resp.StatusCode != http.StatusOK || st["read_only"] == true ||
		int(st["applied"].(float64)) != 0 || int(st["points"].(float64)) != 1 {
		t.Fatalf("status after the oversized batch: %d %v, want applied 0 and points 1", resp.StatusCode, st)
	}
	resp, reply = e.do(t, http.MethodPost, "/tenants/huge/batches", bytes.NewReader([]byte(`{"updates":[`+insert+`]}`)))
	if resp.StatusCode != http.StatusOK || int(reply["applied"].(float64)) != 1 {
		t.Fatalf("normal batch after the oversized one: %d %v", resp.StatusCode, reply)
	}
}

// TestUndoBatchRestoresDatabase pins the service-level undo that backs
// all-or-nothing when ApplyBatchContext consumed nothing: replay then
// undo is the identity on the database, its ID allocator included.
func TestUndoBatchRestoresDatabase(t *testing.T) {
	db := dataset.MustNew(2)
	seedBatches := mkBatches(2, 2, 20, 5, 0)
	if _, err := seedBatches[0].Replay(db); err != nil {
		t.Fatal(err)
	}
	before := db.Snapshot()
	beforeNext := db.NextID()
	applied, err := seedBatches[1].Replay(db)
	if err != nil {
		t.Fatal(err)
	}
	undoBatch(db, applied, beforeNext)
	after := db.Snapshot()
	if len(after) != len(before) {
		t.Fatalf("undo left %d records, want %d", len(after), len(before))
	}
	byID := map[dataset.PointID]dataset.Record{}
	for _, r := range before {
		byID[r.ID] = r
	}
	for _, r := range after {
		want, ok := byID[r.ID]
		if !ok {
			t.Fatalf("undo left unknown id %d", r.ID)
		}
		if want.Label != r.Label {
			t.Fatalf("id %d label %d, want %d", r.ID, r.Label, want.Label)
		}
	}
	// The allocator rewinds exactly, so a retried batch is assigned the
	// IDs it was first given.
	if db.NextID() != beforeNext {
		t.Fatalf("undo left NextID at %d, want %d", db.NextID(), beforeNext)
	}
}

// TestReadOnlyAfterPoisoningIsolation is the pinned degradation-ladder
// proof: poisoning one tenant's WAL (append ENOSPC) flips that tenant
// alone into read-only — ingest 503s with a machine-readable reason,
// reads keep serving the last-good snapshot — while the other tenant
// keeps ingesting, and no acked batch is lost on either.
func TestReadOnlyAfterPoisoningIsolation(t *testing.T) {
	reg := failpoint.New(7)
	root := t.TempDir()
	e := newTestEnv(t, Options{Root: root, Failpoints: reg})
	const bootN = 12
	e.createTenant(t, "victim", TenantConfig{
		Dim: 2, Bubbles: 6, Seed: 3, CheckpointEvery: 2, Bootstrap: mkBootstrap(2, bootN, 31),
	})
	e.createTenant(t, "healthy", TenantConfig{
		Dim: 2, Bubbles: 6, Seed: 4, CheckpointEvery: 2, Bootstrap: mkBootstrap(2, bootN, 37),
	})
	vb := mkBatches(2, 4, 20, 17, bootN)
	hb := mkBatches(2, 6, 20, 19, bootN)

	for i := 0; i < 2; i++ {
		if resp, body := e.ingest(t, "victim", vb[i]); resp.StatusCode != http.StatusOK {
			t.Fatalf("victim ingest %d: %d %v", i, resp.StatusCode, body)
		}
		if resp, body := e.ingest(t, "healthy", hb[i]); resp.StatusCode != http.StatusOK {
			t.Fatalf("healthy ingest %d: %d %v", i, resp.StatusCode, body)
		}
	}

	// Poison the victim's next append.
	reg.ArmError(wal.FailAppendNoSpace, 1, failpoint.ErrNoSpace)
	resp, body := e.ingest(t, "victim", vb[2])
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("poisoned ingest: %d %v", resp.StatusCode, body)
	}
	if body["reason"] != ReasonReadOnly {
		t.Fatalf("poisoned ingest reason = %v", body["reason"])
	}
	if cause, _ := body["cause"].(string); cause == "" {
		t.Fatalf("poisoned ingest carried no cause: %v", body)
	}

	// The victim is read-only: ingest refused at admission, reads serve
	// the last-good snapshot.
	resp, body = e.ingest(t, "victim", vb[2])
	if resp.StatusCode != http.StatusServiceUnavailable || body["reason"] != ReasonReadOnly {
		t.Fatalf("read-only ingest: %d %v", resp.StatusCode, body)
	}
	resp, st := e.do(t, http.MethodGet, "/tenants/victim/status", nil)
	if resp.StatusCode != http.StatusOK || st["read_only"] != true || st["reason"] != "wal_poisoned" {
		t.Fatalf("victim status: %d %v", resp.StatusCode, st)
	}
	if int(st["applied"].(float64)) != 2 {
		t.Fatalf("victim applied = %v, want 2", st["applied"])
	}
	wantCount := netPoints(bootN, vb[:2])
	resp, cnt := e.do(t, http.MethodGet, "/tenants/victim/approx/count", nil)
	if resp.StatusCode != http.StatusOK || int(cnt["count"].(float64)) != wantCount {
		t.Fatalf("victim approx count while poisoned: %d %v (want %d)", resp.StatusCode, cnt, wantCount)
	}
	if resp, _ := e.do(t, http.MethodGet, "/tenants/victim/plot?minpts=4", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("victim plot while poisoned: %d", resp.StatusCode)
	}

	// The healthy tenant is untouched: it keeps ingesting.
	for i := 2; i < len(hb); i++ {
		if resp, body := e.ingest(t, "healthy", hb[i]); resp.StatusCode != http.StatusOK {
			t.Fatalf("healthy ingest %d after poisoning: %d %v", i, resp.StatusCode, body)
		}
	}

	// Drain and prove no acked batch was dropped on either tenant.
	if err := e.srv.Drain(context.Background()); err != nil {
		t.Fatalf("drain: %v", err)
	}
	for _, tc := range []struct {
		name    string
		seed    int64
		applied int
	}{{"victim", 3, 2}, {"healthy", 4, len(hb)}} {
		st, err := wal.Resume(oracleCoreOpts(6, tc.seed), wal.Options{Dir: walDirOf(root, tc.name), CheckpointEvery: 2})
		if err != nil {
			t.Fatalf("%s resume: %v", tc.name, err)
		}
		if st.Batches != tc.applied {
			t.Fatalf("%s resumed %d batches, want %d", tc.name, st.Batches, tc.applied)
		}
		if err := st.Log.Close(); err != nil {
			t.Fatalf("%s close: %v", tc.name, err)
		}
	}
}

// TestDrainFinalCheckpointAndRestart pins graceful drain: admissions
// stop with machine-readable 503s, reads keep serving, every healthy
// tenant's final checkpoint covers its whole history (a resume replays
// zero WAL records), and a fresh server over the same root resumes all
// tenants at their drained state.
func TestDrainFinalCheckpointAndRestart(t *testing.T) {
	root := t.TempDir()
	e := newTestEnv(t, Options{Root: root})
	const bootN = 12
	e.createTenant(t, "a", TenantConfig{
		Dim: 2, Bubbles: 6, Seed: 3, CheckpointEvery: 3, Bootstrap: mkBootstrap(2, bootN, 31),
	})
	e.createTenant(t, "b", TenantConfig{
		Dim: 2, Bubbles: 6, Seed: 4, CheckpointEvery: 3, Bootstrap: mkBootstrap(2, bootN, 37),
	})
	ab := mkBatches(2, 5, 20, 23, bootN)
	bb := mkBatches(2, 5, 20, 29, bootN)
	for i := range ab {
		if resp, body := e.ingest(t, "a", ab[i]); resp.StatusCode != http.StatusOK {
			t.Fatalf("a ingest %d: %d %v", i, resp.StatusCode, body)
		}
		if resp, body := e.ingest(t, "b", bb[i]); resp.StatusCode != http.StatusOK {
			t.Fatalf("b ingest %d: %d %v", i, resp.StatusCode, body)
		}
	}
	if err := e.srv.Drain(context.Background()); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if resp, hz := e.do(t, http.MethodGet, "/healthz", nil); !hz["draining"].(bool) {
		t.Fatalf("healthz after drain: %d %v", resp.StatusCode, hz)
	}
	if resp, body := e.ingest(t, "a", ab[0]); resp.StatusCode != http.StatusServiceUnavailable || body["reason"] != ReasonDraining {
		t.Fatalf("ingest after drain: %d %v", resp.StatusCode, body)
	}
	if resp, _ := e.do(t, http.MethodGet, "/tenants/a/approx/count", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("read after drain: %d", resp.StatusCode)
	}
	b, _ := json.Marshal(TenantConfig{Dim: 2, Bootstrap: mkBootstrap(2, 16, 41)})
	if resp, _ := e.do(t, http.MethodPut, "/tenants/late", bytes.NewReader(b)); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("create after drain: %d", resp.StatusCode)
	}

	// The final checkpoints cover everything: zero replay on resume.
	for name, seed := range map[string]int64{"a": 3, "b": 4} {
		st, err := wal.Resume(oracleCoreOpts(6, seed), wal.Options{Dir: walDirOf(root, name), CheckpointEvery: 3})
		if err != nil {
			t.Fatalf("%s resume: %v", name, err)
		}
		if st.Batches != 5 || st.Replayed != 0 {
			t.Fatalf("%s resumed at %d with %d replayed, want 5 and 0", name, st.Batches, st.Replayed)
		}
		if err := st.Log.Close(); err != nil {
			t.Fatalf("%s close: %v", name, err)
		}
	}

	// Restart: a fresh server over the same root resumes both tenants.
	e2 := newTestEnv(t, Options{Root: root})
	resp, st := e2.do(t, http.MethodGet, "/tenants/a/status", nil)
	if resp.StatusCode != http.StatusOK || int(st["applied"].(float64)) != 5 || st["resumed"] != true {
		t.Fatalf("restarted a status: %d %v", resp.StatusCode, st)
	}
	next := mkBatchesFrom(2, 5, 1, 20, 29, bootN)
	if resp, body := e2.ingest(t, "b", next[0]); resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest after restart: %d %v", resp.StatusCode, body)
	}
	if err := e2.srv.Drain(context.Background()); err != nil {
		t.Fatalf("second drain: %v", err)
	}
}
