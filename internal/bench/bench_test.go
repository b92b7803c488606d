package bench

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
)

var update = flag.Bool("update", false, "rewrite BENCH_incbubbles.json")

// golden is the committed count baseline at the repository root.
var golden = filepath.Join("..", "..", "BENCH_incbubbles.json")

var (
	runOnce   sync.Once
	runReport *Report
	runErr    error
)

// pinnedRun runs the suite once per test binary: TestReportShape and
// TestPinnedCounts check the same report.
func pinnedRun(t *testing.T) *Report {
	t.Helper()
	runOnce.Do(func() { runReport, runErr = Run() })
	if runErr != nil {
		t.Fatal(runErr)
	}
	return runReport
}

// TestReportShape checks that every workload produced complete output
// and still exercises the mechanism its name promises. It reads the run
// TestPinnedCounts pins, so regenerating the baseline cannot bless a
// workload that stopped doing its job.
func TestReportShape(t *testing.T) {
	rep := pinnedRun(t)
	if rep.Schema != Schema {
		t.Fatalf("schema = %q", rep.Schema)
	}
	want := []string{"assign", "maintain", "mergesplit", "mergesplit_bigk",
		"wal_append", "recovery", "optics", "serve_ingest"}
	if len(rep.Benchmarks) != len(want) {
		t.Fatalf("got %d benchmarks, want %d", len(rep.Benchmarks), len(want))
	}
	for i, b := range rep.Benchmarks {
		if b.Name != want[i] {
			t.Fatalf("benchmark %d = %q, want %q", i, b.Name, want[i])
		}
		if b.Ops <= 0 || b.Spans <= 0 || len(b.Phases) == 0 {
			t.Fatalf("%s: degenerate result %+v", b.Name, b)
		}
		if b.DistanceComputedPerOp <= 0 {
			t.Fatalf("%s: no distance work recorded", b.Name)
		}
	}
	// The maintenance workloads must actually exercise merge/split, or
	// the suite is not measuring what its name promises. At three points
	// per bubble, mergesplit_bigk's donors are empty bubbles: their merge
	// half releases no point and so records no span.
	for _, name := range []string{"maintain", "mergesplit", "mergesplit_bigk"} {
		if !hasPhase(rep, name, "core.split") {
			t.Fatalf("%s: no split spans; workload scale too small", name)
		}
	}
	for _, name := range []string{"maintain", "mergesplit"} {
		if !hasPhase(rep, name, "core.merge") {
			t.Fatalf("%s: no merge spans; workload scale too small", name)
		}
	}
	if !hasPhase(rep, "wal_append", "wal.fsync") {
		t.Fatal("wal_append: no fsync spans")
	}
	if !hasPhase(rep, "recovery", "wal.replay") {
		t.Fatal("recovery: no replay span")
	}
	// The serving probe must record the request root span and the core
	// work beneath it — the end-to-end tracing claim.
	if !hasPhase(rep, "serve_ingest", "server.ingest") {
		t.Fatal("serve_ingest: no server.ingest spans; request tracing not exercised")
	}
	if !hasPhase(rep, "serve_ingest", "core.batch") {
		t.Fatal("serve_ingest: no core.batch spans under the served requests")
	}
}

func hasPhase(rep *Report, bench, phase string) bool {
	for _, b := range rep.Benchmarks {
		if b.Name != bench {
			continue
		}
		for _, p := range b.Phases {
			if p.Name == phase {
				return true
			}
		}
	}
	return false
}

// TestPinnedCounts holds the suite's counts to the committed
// BENCH_incbubbles.json byte for byte. A count change must be
// deliberate: regenerate the file with `make bench` (this test with
// -update) and commit it with the change that moved the counts.
func TestPinnedCounts(t *testing.T) {
	rep := pinnedRun(t)
	got, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	if *update {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run `make bench`)", err)
	}
	if bytes.Equal(got, want) {
		return
	}
	var base Report
	if err := json.Unmarshal(want, &base); err != nil {
		t.Fatalf("%s does not parse: %v (run `make bench`)", golden, err)
	}
	diffs := countDiffs(&base, rep)
	if len(diffs) == 0 {
		diffs = []string{"same counts, different order or formatting"}
	}
	t.Errorf("counts differ from %s (old → new; `make bench` regenerates it for a deliberate change):\n%s",
		golden, strings.Join(diffs, "\n"))
}

// countDiffs lists every count where cur differs from base, one
// "workload [phase] metric: old → new" line each, in key order.
func countDiffs(base, cur *Report) []string {
	old, now := flatten(base), flatten(cur)
	keys := make([]string, 0, len(old)+len(now))
	for k := range old {
		keys = append(keys, k)
	}
	for k := range now {
		if _, ok := old[k]; !ok {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	var out []string
	for _, k := range keys {
		o, ok := old[k]
		if !ok {
			o = "absent"
		}
		n, ok := now[k]
		if !ok {
			n = "absent"
		}
		if o != n {
			out = append(out, fmt.Sprintf("%s: %s → %s", k, o, n))
		}
	}
	return out
}

// flatten maps every field of a report to its printed value.
func flatten(r *Report) map[string]string {
	m := map[string]string{"schema": r.Schema, "seed": fmt.Sprint(r.Seed)}
	for _, b := range r.Benchmarks {
		m[b.Name+" ops"] = fmt.Sprint(b.Ops)
		m[b.Name+" distance_computed_per_op"] = fmt.Sprint(b.DistanceComputedPerOp)
		m[b.Name+" distance_pruned_per_op"] = fmt.Sprint(b.DistancePrunedPerOp)
		m[b.Name+" spans"] = fmt.Sprint(b.Spans)
		for _, p := range b.Phases {
			k := b.Name + " " + p.Name + " "
			m[k+"spans"] = fmt.Sprint(p.Spans)
			m[k+"distance_computed"] = fmt.Sprint(p.DistanceComputed)
			m[k+"distance_pruned"] = fmt.Sprint(p.DistancePruned)
		}
	}
	return m
}

// BenchmarkWorkloads times each workload's measured section with
// tracing off. Setup runs outside the timer, so one op is one whole run
// of the workload (its report entry's ops updates); -benchmem counts
// its allocations.
//
//	go test -run '^$' -bench Workloads/mergesplit_bigk -count 10 ./internal/bench
func BenchmarkWorkloads(b *testing.B) {
	for _, w := range workloads() {
		b.Run(w.name, func(b *testing.B) {
			scratch := b.TempDir()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				exec, _, err := w.setup(scratch, nil)
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				if err := exec(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
