package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"incbubbles/internal/failpoint"
	"incbubbles/internal/wal"
)

// requireNoTenantDir fails unless a rejected create left nothing on disk.
func requireNoTenantDir(t *testing.T, root, name string) {
	t.Helper()
	if _, err := os.Stat(filepath.Join(root, name)); !os.IsNotExist(err) {
		t.Fatalf("rejected create of %s left %s behind (stat err %v)", name, filepath.Join(root, name), err)
	}
}

// TestRejectedCreateKeepsRootRestartable pins that a create refused for
// its bootstrap writes nothing: the root restarts cleanly and the name
// can be reused with a corrected config. A directory holding tenant.json
// but no WAL state — a create that never finished — is skipped at
// startup and treated as fresh by the next create.
func TestRejectedCreateKeepsRootRestartable(t *testing.T) {
	root := t.TempDir()
	e := newTestEnv(t, Options{Root: root})
	for _, tc := range []struct {
		name string
		cfg  TenantConfig
	}{
		{"short", TenantConfig{Dim: 2, Bubbles: 4, Bootstrap: mkBootstrap(2, 2, 31)}},
		{"wrongdim", TenantConfig{Dim: 2, Bubbles: 2, Bootstrap: [][]float64{{0, 0}, {1, 1, 1}}}},
	} {
		b, _ := json.Marshal(tc.cfg)
		resp, reply := e.do(t, http.MethodPut, "/tenants/"+tc.name, bytes.NewReader(b))
		if resp.StatusCode != http.StatusBadRequest || reply["reason"] != ReasonBadRequest {
			t.Fatalf("create %s: %d %v, want 400 %s", tc.name, resp.StatusCode, reply, ReasonBadRequest)
		}
		requireNoTenantDir(t, root, tc.name)
	}
	// An unfinished create from an earlier process: config, no WAL state.
	if err := os.MkdirAll(filepath.Join(root, "unfinished"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := saveTenantConfig(filepath.Join(root, "unfinished"), TenantConfig{Dim: 2, Bubbles: 4}); err != nil {
		t.Fatal(err)
	}

	e2 := newTestEnv(t, Options{Root: root})
	if n := len(e2.srv.TenantStatuses()); n != 0 {
		t.Fatalf("restart opened %d tenants, want 0", n)
	}
	for _, name := range []string{"short", "wrongdim", "unfinished"} {
		e2.createTenant(t, name, TenantConfig{Dim: 2, Bubbles: 3, Bootstrap: mkBootstrap(2, 8, 31)})
	}
	if err := e2.srv.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	e3 := newTestEnv(t, Options{Root: root})
	if n := len(e3.srv.TenantStatuses()); n != 3 {
		t.Fatalf("second restart opened %d tenants, want 3", n)
	}
	if err := e3.srv.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestFailedCreateKeepsRootRestartable pins that a create failing at its
// initial checkpoint (500 create_failed) leaves the root restartable: a
// new server skips the directory as an unfinished create, and a re-PUT
// of the same name creates the tenant afresh.
func TestFailedCreateKeepsRootRestartable(t *testing.T) {
	root := t.TempDir()
	reg := failpoint.New(7)
	e := newTestEnv(t, Options{Root: root, Failpoints: reg})
	reg.ArmError(wal.FailCkptWrite, 1, nil)
	b, _ := json.Marshal(TenantConfig{Dim: 2, Bubbles: 4, RetryAttempts: 1, Bootstrap: mkBootstrap(2, 8, 31)})
	resp, reply := e.do(t, http.MethodPut, "/tenants/broken", bytes.NewReader(b))
	if resp.StatusCode != http.StatusInternalServerError || reply["reason"] != ReasonCreateFailed {
		t.Fatalf("create with a failing checkpoint write: %d %v, want 500 %s", resp.StatusCode, reply, ReasonCreateFailed)
	}
	if err := e.srv.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	e2 := newTestEnv(t, Options{Root: root})
	if n := len(e2.srv.TenantStatuses()); n != 0 {
		t.Fatalf("restart opened %d tenants, want 0", n)
	}
	e2.createTenant(t, "broken", TenantConfig{Dim: 2, Bubbles: 4, Bootstrap: mkBootstrap(2, 8, 31)})
	if err := e2.srv.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestLiveRecreateBubblesMismatch pins that re-creating a live tenant
// with a different bubbles count is a 400 config_mismatch, before and
// after a restart, while a re-create that omits bubbles stays an
// idempotent 200.
func TestLiveRecreateBubblesMismatch(t *testing.T) {
	root := t.TempDir()
	e := newTestEnv(t, Options{Root: root})
	e.createTenant(t, "a", TenantConfig{Dim: 2, Bubbles: 4, Bootstrap: mkBootstrap(2, 8, 31)})
	check := func(e *testEnv) {
		t.Helper()
		b, _ := json.Marshal(TenantConfig{Dim: 2, Bubbles: 8, Bootstrap: mkBootstrap(2, 8, 31)})
		resp, reply := e.do(t, http.MethodPut, "/tenants/a", bytes.NewReader(b))
		if resp.StatusCode != http.StatusBadRequest || reply["reason"] != ReasonConfigMismatch {
			t.Fatalf("re-create with 8 bubbles: %d %v, want 400 %s", resp.StatusCode, reply, ReasonConfigMismatch)
		}
		b, _ = json.Marshal(TenantConfig{Dim: 2})
		if resp, reply := e.do(t, http.MethodPut, "/tenants/a", bytes.NewReader(b)); resp.StatusCode != http.StatusOK {
			t.Fatalf("re-create without bubbles: %d %v, want 200", resp.StatusCode, reply)
		}
	}
	check(e)
	if err := e.srv.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	e2 := newTestEnv(t, Options{Root: root})
	check(e2)
	if err := e2.srv.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// FuzzCreateTenant sends two arbitrary bodies, one after the other, to
// PUT /tenants/{t} for the same name on a fresh root. The handler must
// never panic and must answer 201, 200 or 400; after a drain, a new
// server over the same root must start and hold exactly the tenant
// names that were answered 2xx.
func FuzzCreateTenant(f *testing.F) {
	for _, seed := range [][2]string{
		{`{"dim":2,"bubbles":4,"bootstrap":[[0,0],[1,1]]}`, `{"dim":2,"bubbles":2,"bootstrap":[[0,0],[1,1]]}`},
		{`{"dim":2,"bubbles":2,"bootstrap":[[0,0],[1,1,1]]}`, `{"dim":2,"bubbles":2,"bootstrap":[[0,0],[1,1]]}`},
		{`{"dim":2,"bubbles":1,"queue_depth":4611686018427387904,"bootstrap":[[0,0]]}`, ``},
		{`{"dim":2,"bubbles":1,"retry_attempts":1000000,"bootstrap":[[0,0]]}`, `{"dim":2,"bubbles":1,"bootstrap":[[0,0]]}`},
		{`{"dim":2,"bubbles":2,"bootstrap":[[0,0],[1,1]]}`, `{"dim":2,"bubbles":4,"bootstrap":[[0,0],[1,1],[2,2],[3,3]]}`},
		{`{"dim":2,"bubbles":2,"bootstrap":[[0,0],[1,1]]}`, `{"dim":2}`},
	} {
		f.Add([]byte(seed[0]), []byte(seed[1]))
	}
	f.Fuzz(func(t *testing.T, first, second []byte) {
		root := t.TempDir()
		srv, err := New(Options{Root: root, Seed: 9})
		if err != nil {
			t.Fatal(err)
		}
		h := srv.Handler()
		created := false
		for _, body := range [][]byte{first, second} {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPut, "/tenants/a", bytes.NewReader(body)))
			switch rec.Code {
			case http.StatusCreated, http.StatusOK:
				created = true
			case http.StatusBadRequest:
			default:
				t.Fatalf("body %q: HTTP %d %s", body, rec.Code, rec.Body)
			}
		}
		if err := srv.Drain(context.Background()); err != nil {
			t.Fatalf("drain: %v", err)
		}
		again, err := New(Options{Root: root, Seed: 9})
		if err != nil {
			t.Fatalf("restart after bodies %q, %q: %v", first, second, err)
		}
		defer func() { _ = again.Drain(context.Background()) }()
		var names []string
		for _, st := range again.TenantStatuses() {
			names = append(names, st.Name)
		}
		want := "[]"
		if created {
			want = "[a]"
		}
		if fmt.Sprint(names) != want {
			t.Fatalf("restart holds tenants %v, want %s", names, want)
		}
	})
}
