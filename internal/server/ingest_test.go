package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
)

// TestConcurrentWritersAndPlotReader is the regression test for the
// snapshot publish race: two writers post insert batches to one tenant
// while a reader hammers GET /plot. Under -race, publishing the read
// snapshot while a later batch was applying used to report a DATA RACE
// (and crash with "concurrent map iteration and map write"). Every
// ingest must be acknowledged, and the acknowledged ordinals must be
// exactly 0..n-1. The tenant is created with the deprecated
// pipeline_depth, which must be ignored: not reported by /status, not
// persisted.
func TestConcurrentWritersAndPlotReader(t *testing.T) {
	root := t.TempDir()
	e := newTestEnv(t, Options{Root: root})
	const bootN, writers, perWriter = 12, 2, 40
	e.createTenant(t, "race", TenantConfig{
		Dim: 2, Bubbles: 6, Seed: 3, PipelineDepth: 2, GroupCommit: 4,
		CheckpointEvery: 2, Bootstrap: mkBootstrap(2, bootN, 31),
	})
	bodies := make([][][]byte, writers)
	for w := range bodies {
		for _, b := range mkInsertBatches(2, perWriter, 40, int64(60+w)) {
			raw, err := io.ReadAll(wireBody(t, b))
			if err != nil {
				t.Fatal(err)
			}
			bodies[w] = append(bodies[w], raw)
		}
	}

	var (
		mu       sync.Mutex
		ordinals []int
		errs     []error
	)
	fail := func(err error) {
		mu.Lock()
		errs = append(errs, err)
		mu.Unlock()
	}
	stop := make(chan struct{})
	var reader, wg sync.WaitGroup
	reader.Add(1)
	go func() {
		defer reader.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			resp, err := http.Get(e.ts.URL + "/tenants/race/plot?minpts=4")
			if err != nil {
				fail(err)
				return
			}
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				fail(fmt.Errorf("plot: HTTP %d", resp.StatusCode))
				return
			}
		}
	}()
	for w := range bodies {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for _, body := range bodies[w] {
				resp, err := http.Post(e.ts.URL+"/tenants/race/batches", "application/json", bytes.NewReader(body))
				if err != nil {
					fail(err)
					return
				}
				var reply ingestReply
				err = json.NewDecoder(resp.Body).Decode(&reply)
				resp.Body.Close()
				if err != nil || resp.StatusCode != http.StatusOK {
					fail(fmt.Errorf("writer %d: HTTP %d: %v", w, resp.StatusCode, err))
					return
				}
				mu.Lock()
				ordinals = append(ordinals, reply.Ordinal)
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	reader.Wait()
	for _, err := range errs {
		t.Error(err)
	}
	if t.Failed() {
		return
	}
	sort.Ints(ordinals)
	if len(ordinals) != writers*perWriter {
		t.Fatalf("%d acknowledged batches, want %d", len(ordinals), writers*perWriter)
	}
	for i, o := range ordinals {
		if o != i {
			t.Fatalf("acknowledged ordinals %v, want 0..%d without gaps or duplicates", ordinals, writers*perWriter-1)
		}
	}

	resp, st := e.do(t, http.MethodGet, "/tenants/race/status", nil)
	if resp.StatusCode != http.StatusOK || int(st["applied"].(float64)) != writers*perWriter {
		t.Fatalf("status: %d %v", resp.StatusCode, st)
	}
	if _, ok := st["pipeline_depth"]; ok {
		t.Fatalf("status still reports pipeline_depth: %v", st)
	}
	persisted, err := os.ReadFile(filepath.Join(root, "race", configFile))
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(persisted), "pipeline_depth") || strings.Contains(string(persisted), "group_commit") {
		t.Fatalf("deprecated fields persisted: %s", persisted)
	}
}

// FuzzIngest posts arbitrary bodies to POST /tenants/{t}/batches on one
// live tenant. No body may yield a 5xx, a panic or a degraded tenant, and
// a rejected (4xx) body must leave the applied count and the point count
// exactly as they were.
func FuzzIngest(f *testing.F) {
	for _, seed := range []string{
		`{"updates":[{"op":"insert","p":[1,2],"label":-7}]}`,
		`{"updates":[{"op":"insert","p":[1,2],"label":3}]}`,
		`{"updates":[{"op":"insert","p":[1,2]},{"op":"delete","id":12}]}`,
		`{"updates":[{"op":"delete","id":1099511627776}]}`,
		`{"updates":[{"op":"delete","id":3},{"op":"delete","id":3}]}`,
		`{"updates":[{"op":"insert","p":[1,2,3]}]}`,
		`{"updates":[{"op":"upsert","p":[1,2]}]}`,
		`{"updates":[]}`,
		`{"updates":[{"op":"insert","p":[1e308,-1e308]}]}`,
		`{"updates":`,
		`[]`,
	} {
		f.Add([]byte(seed))
	}
	srv, err := New(Options{Root: f.TempDir(), Seed: 9})
	if err != nil {
		f.Fatal(err)
	}
	h := srv.Handler()
	post := func(method, path string, body []byte) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(body)))
		return rec
	}
	cfg, _ := json.Marshal(TenantConfig{Dim: 2, Bubbles: 6, Seed: 3, CheckpointEvery: 4, Bootstrap: mkBootstrap(2, 16, 31)})
	if rec := post(http.MethodPut, "/tenants/fuzz", cfg); rec.Code != http.StatusCreated {
		f.Fatalf("create: %d %s", rec.Code, rec.Body)
	}
	tn, err := srv.Tenant("fuzz")
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { _ = tn.log.WaitCheckpoint() })

	f.Fuzz(func(t *testing.T, body []byte) {
		before := tn.status()
		rec := post(http.MethodPost, "/tenants/fuzz/batches", body)
		after := tn.status()
		if rec.Code >= 500 {
			t.Fatalf("body %q: HTTP %d %s", body, rec.Code, rec.Body)
		}
		if after.ReadOnly {
			t.Fatalf("body %q degraded the tenant: %s (%s)", body, after.Reason, after.Cause)
		}
		if rec.Code >= 400 && (after.Applied != before.Applied || after.Points != before.Points) {
			t.Fatalf("body %q rejected with %d but applied %d→%d, points %d→%d",
				body, rec.Code, before.Applied, after.Applied, before.Points, after.Points)
		}
	})
}
