package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strings"
	"testing"

	"incbubbles/internal/trace"
)

// Tiny shapes: every code path of the real workloads, in well under a
// second each.
var (
	tinyTrickle = serveShape{Dim: 2, Points: 400, Bubbles: 20, BatchUpdates: 10, Batches: 12}
	tinyWindow  = serveShape{Dim: 3, Points: 300, Bubbles: 15, BatchUpdates: 40, Batches: 12}
)

func tinyTrickleConfig(int) serveConfig {
	return serveConfig{
		makePlan: func(seed int64) (*servePlan, error) { return makeTricklePlan(seed, tinyTrickle) },
		Writers:  1, ReaderHz: 50,
		SetupReps: 2, RestartReps: 2, RecoverReps: 1, MinPts: 5,
	}
}

// tinyWindowConfig uses one writer: two concurrent writers can crash
// bubbled (README.md, "Workloads"), which would take the test with it.
func tinyWindowConfig(int) serveConfig {
	return serveConfig{
		makePlan: func(seed int64) (*servePlan, error) { return makeWindowPlan(seed, tinyWindow) },
		Writers:  1, PlotProbes: 3,
		SetupReps: 2, RestartReps: 2, RecoverReps: 1, MinPts: 5,
	}
}

func tinyReclusterConfig(int) reclusterConfig {
	return reclusterConfig{
		Dim: 3, Points: 600, Bubbles: 20, BatchUpdates: 60, Batches: 6,
		MinPts: 5, SetupReps: 2, RestartReps: 2,
	}
}

func testEnv(t *testing.T, name string, traced bool) *runEnv {
	t.Helper()
	env, err := newRunEnv(name, 3, 1, traced, t.TempDir(), io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(env.close)
	return env
}

func plans(t *testing.T, seed int64) map[string]*servePlan {
	t.Helper()
	tp, err := makeTricklePlan(seed, tinyTrickle)
	if err != nil {
		t.Fatal(err)
	}
	wp, err := makeWindowPlan(seed, tinyWindow)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*servePlan{"trickle": tp, "window": wp}
}

func TestGeneratorIsDeterministic(t *testing.T) {
	a, b, c := plans(t, 5), plans(t, 5), plans(t, 6)
	for name := range a {
		if !bytes.Equal(a[name].create, b[name].create) {
			t.Errorf("%s: same seed, different bootstrap bodies", name)
		}
		if !bytes.Equal(bytes.Join(a[name].bodies, nil), bytes.Join(b[name].bodies, nil)) {
			t.Errorf("%s: same seed, different batch bodies", name)
		}
		if bytes.Equal(a[name].create, c[name].create) || bytes.Equal(bytes.Join(a[name].bodies, nil), bytes.Join(c[name].bodies, nil)) {
			t.Errorf("%s: seeds 5 and 6 give identical request bodies", name)
		}
	}
}

func TestBodiesDecodeToThePlannedBatch(t *testing.T) {
	for name, p := range plans(t, 5) {
		boot, err := decodeBootstrap(p.create)
		if err != nil || len(boot) != p.boot {
			t.Fatalf("%s: bootstrap decodes to %d points (%v), want %d", name, len(boot), err, p.boot)
		}
		for j, body := range p.bodies {
			batch, err := decodeBatch(body, p.firstID(j))
			if err != nil {
				t.Fatalf("%s: batch %d: %v", name, j, err)
			}
			ins, del := batch.Counts()
			if ins != p.inserts[j] || del != p.deletes[j] {
				t.Fatalf("%s: batch %d decodes to %d inserts and %d deletes, want %d and %d", name, j, ins, del, p.inserts[j], p.deletes[j])
			}
		}
	}
}

// ackBody is an ingest reply as bubbled would send it for ordinal o.
func ackBody(p *servePlan, o int, firstID uint64) []byte {
	return []byte(fmt.Sprintf(`{"ordinal":%d,"applied":%d,"inserted":%d,"deleted":%d,"rebuilt":0,"rounds":0,"first_id":%d}`,
		o, o+1, p.inserts[o], p.deletes[o], firstID))
}

func TestTamperedRepliesFailTheChecks(t *testing.T) {
	p := plans(t, 5)["trickle"]
	cfg := tinyTrickleConfig(1)
	session := func() *serveSession {
		return newServeSession(testEnv(t, "serve_trickle", false), cfg, p, nil, newReport())
	}

	good := session()
	good.checkAck(0, reply{status: 200, body: ackBody(p, 0, p.firstID(0))}, map[int]bool{}, sample{v: 1})
	good.checkFinal(tenantStatus{Applied: 1, Points: p.pointsAfter(1)})
	good.checkPlot([]byte(fmt.Sprintf(`{"applied":1,"total_weight":%d}`, p.pointsAfter(1))), 1)
	if len(good.rep.problems) != 0 {
		t.Fatalf("untampered replies fail the checks: %v", good.rep.problems)
	}

	cases := map[string]func(s *serveSession){
		"wrong first_id": func(s *serveSession) {
			s.checkAck(0, reply{status: 200, body: ackBody(p, 0, p.firstID(0)+1)}, map[int]bool{}, sample{v: 1})
		},
		"missing first_id": func(s *serveSession) {
			s.checkAck(0, reply{status: 200, body: []byte(`{"ordinal":0,"applied":1}`)}, map[int]bool{}, sample{v: 1})
		},
		"wrong ordinal": func(s *serveSession) {
			s.checkAck(0, reply{status: 200, body: ackBody(p, 1, p.firstID(1))}, map[int]bool{}, sample{v: 1})
		},
		"short status": func(s *serveSession) {
			s.checkAck(0, reply{status: 200, body: ackBody(p, 0, p.firstID(0))}, map[int]bool{}, sample{v: 1})
			s.checkFinal(tenantStatus{Applied: 0, Points: p.boot})
		},
		"status missing points": func(s *serveSession) {
			s.checkAck(0, reply{status: 200, body: ackBody(p, 0, p.firstID(0))}, map[int]bool{}, sample{v: 1})
			s.checkFinal(tenantStatus{Applied: 1, Points: p.pointsAfter(1) - 1})
		},
		"plot weight": func(s *serveSession) {
			s.checkPlot([]byte(fmt.Sprintf(`{"applied":0,"total_weight":%d}`, p.boot+1)), -1)
		},
	}
	for name, tamper := range cases {
		s := session()
		tamper(s)
		if len(s.rep.problems) == 0 {
			t.Errorf("%s: the checks pass a tampered reply", name)
		}
	}
}

func TestSelfTimeSubtractsCoveredChildren(t *testing.T) {
	client := trace.Record{ID: 9, Name: "bench.apply_batch", Start: -10, Dur: 120}
	recs := []trace.Record{
		client,
		{ID: 1, Parent: 9, Name: "server.ingest", Start: 0, Dur: 100},
		{ID: 2, Parent: 1, Name: "core.batch", Start: 10, Dur: 80},
		{ID: 3, Parent: 2, Name: "core.search", Start: 10, Dur: 30},
		{ID: 4, Parent: 2, Name: "core.maintain", Start: 35, Dur: 30}, // overlaps search by 5
		{ID: 5, Parent: 4, Name: "core.split", Start: 40, Dur: 10},
		{ID: 6, Parent: 2, Name: "wal.fsync", Start: 85, Dur: 20}, // runs past its parent's end
	}
	s := newSpanSet(recs)
	want := map[string]int64{"server.ingest": 20, "core.batch": 80 - 55 - 5, "core.search": 30, "core.maintain": 20 + 10, "wal.fsync": 20}
	ls := s.layers()
	for bucket, ns := range want {
		if ls.selfNs[bucket] != ns {
			t.Errorf("%s: self time %d, want %d", bucket, ls.selfNs[bucket], ns)
		}
	}
	if got, want := s.unattributed([]trace.Record{client}), 20.0/120; got != want {
		t.Errorf("unattributed share %v, want %v", got, want)
	}
}

func TestParseSteal(t *testing.T) {
	got, err := parseSteal("cpu  4705 150 1120 16250 520 0 30 250 0 0")
	if err != nil || got != 2.5 {
		t.Fatalf("parseSteal = %v, %v; want 2.5", got, err)
	}
	if _, err := parseSteal("intr 1 2 3"); err == nil {
		t.Fatal("parseSteal accepted a non-cpu line")
	}
}

// TestTracedReadersParseBubbledOutput drives a tiny traced bubbled and
// reads its /metrics text and its spans the way a traced run does.
func TestTracedReadersParseBubbledOutput(t *testing.T) {
	p := plans(t, 7)["trickle"]
	tr := newTracer()
	proc, err := startBubbled(t.TempDir(), tr)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := proc.stop(); err != nil {
			t.Error(err)
		}
	}()
	c := newConn(proc.base)
	defer c.close()
	if rp, err := c.do(http.MethodPut, "/tenants/"+tenant, p.create); err != nil || rp.status != http.StatusCreated {
		t.Fatalf("create: %v %d %s", err, rp.status, rp.body)
	}
	m0, err := scrape(c)
	if err != nil {
		t.Fatal(err)
	}
	var ids []int64
	for j := 0; j < 3; j++ {
		rp, err := c.do(http.MethodPost, "/tenants/"+tenant+"/batches", p.bodies[j])
		if err != nil || rp.status != http.StatusOK || rp.reqID == 0 {
			t.Fatalf("batch %d: %v %d %s (request id %d)", j, err, rp.status, rp.body, rp.reqID)
		}
		ids = append(ids, rp.reqID)
	}
	m1, err := scrape(c)
	if err != nil {
		t.Fatal(err)
	}
	if d := counterDelta(m0, m1, "core.batches"); d != 3 {
		t.Errorf("core.batches advanced by %v over 3 batches", d)
	}
	if d := counterDelta(m0, m1, "wal.syncs"); d < 1 {
		t.Errorf("wal.syncs advanced by %v over 3 batches", d)
	}

	s := newSpanSet(tr.Snapshot())
	byID := map[int64]bool{}
	for _, r := range s.named("server.ingest") {
		id, _ := r.Attr(trace.AttrRequestID)
		byID[id] = true
		if len(s.childrenOf(r)) == 0 {
			t.Errorf("server.ingest %d has no child spans", id)
		}
	}
	for _, id := range ids {
		if !byID[id] {
			t.Errorf("no server.ingest span carries request id %d", id)
		}
	}
	ls := s.layers()
	for _, name := range []string{"server.ingest", "core.batch", "wal.fsync"} {
		if ls.count[name] == 0 {
			t.Errorf("no %s span recorded", name)
		}
	}
	if tr.Dropped() != 0 {
		t.Errorf("tracer dropped %d spans", tr.Dropped())
	}

	// The trace file a traced run writes is loadable Chrome trace JSON.
	env := testEnv(t, "serve_trickle", true)
	path, err := writeTrace(env, s.recs)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var ct trace.ChromeTrace
	if err := json.Unmarshal(raw, &ct); err != nil || len(ct.TraceEvents) != len(s.recs) {
		t.Fatalf("trace file holds %d events (%v), want %d", len(ct.TraceEvents), err, len(s.recs))
	}
}

// runTiny runs one workload function and requires a clean report with
// every metric of its kind.
func runTiny(t *testing.T, name string, traced bool, fn func(*runEnv) (*report, error)) *report {
	t.Helper()
	env := testEnv(t, name, traced)
	rep, err := fn(env)
	if err != nil {
		t.Fatal(err)
	}
	checkCatalogue(rep, traced)
	if len(rep.problems) > 0 {
		t.Fatalf("%s: checks failed: %s", name, strings.Join(rep.problems, "; "))
	}
	if rep.attempted == 0 || rep.failed != 0 {
		t.Fatalf("%s: %d attempted, %d failed", name, rep.attempted, rep.failed)
	}
	return rep
}

func TestTinyWorkloadsPassTheirChecks(t *testing.T) {
	runTiny(t, "recluster", false, timedRecluster(tinyReclusterConfig))
	runTiny(t, "recluster", true, tracedRecluster(tinyReclusterConfig))
	runTiny(t, "serve_trickle", false, timedServe(tinyTrickleConfig))
	runTiny(t, "serve_trickle", true, tracedServe(tinyTrickleConfig))
	runTiny(t, "serve_window", false, timedServe(tinyWindowConfig))
	rep := runTiny(t, "serve_window", true, tracedServe(tinyWindowConfig))
	if rep.metrics["wal.recover_ms"].Value <= 0 || rep.metrics["server.tax_ratio"].Value <= 0 {
		t.Errorf("traced serve_window lacks recovery or tax figures: %v", rep.metrics)
	}
}

// TestCatalogueMatchesBenchmarkJSON keeps BENCHMARK.json, the metric
// catalogue and the workload table in step.
func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	// serve_window is left out of BENCHMARK.json while it crashes bubbled
	// (README.md, "Workloads").
	names := []string{"serve_window"}
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if got, want := strings.Join(names, ","), strings.Join(workloadNames(), ","); got != want {
		t.Errorf("BENCHMARK.json workloads plus serve_window are %s, program has %s", got, want)
	}
	same := func(kind string, declared []struct{ Name, Unit string }, units map[string]string) {
		if len(declared) != len(units) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the catalogue has %d", kind, len(declared), len(units))
		}
		for _, m := range declared {
			if u, ok := units[m.Name]; !ok || u != m.Unit {
				t.Errorf("%s: %s [%s] is not in the catalogue (catalogue unit %q)", kind, m.Name, m.Unit, u)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEndUnits)
	same("per_layer", spec.PerLayer, perLayerUnits)
}
