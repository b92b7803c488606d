package bench

import (
	"encoding/json"
	"strings"
	"testing"
)

// runShort runs the suite once at the test scale with a single timed rep.
func runShort(t *testing.T) *Report {
	t.Helper()
	rep, err := Run(Config{Preset: PresetShort, Seed: 1, Reps: 1, ScratchDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestReportShape checks every workload produced sane, complete output.
func TestReportShape(t *testing.T) {
	rep := runShort(t)
	if rep.Schema != Schema {
		t.Fatalf("schema = %q", rep.Schema)
	}
	want := []string{"assign", "assign_traced", "maintain",
		"mergesplit", "mergesplit_bigk",
		"wal_append", "recovery", "optics",
		"serve_ingest", "serve_ingest_traced"}
	if len(rep.Benchmarks) != len(want) {
		t.Fatalf("got %d benchmarks, want %d", len(rep.Benchmarks), len(want))
	}
	for i, b := range rep.Benchmarks {
		if b.Name != want[i] {
			t.Fatalf("benchmark %d = %q, want %q", i, b.Name, want[i])
		}
		if b.Ops <= 0 || b.NsPerOp <= 0 || b.Spans <= 0 || len(b.Phases) == 0 {
			t.Fatalf("%s: degenerate result %+v", b.Name, b)
		}
		if b.DroppedSpans != 0 {
			t.Fatalf("%s: metrics rep dropped %d spans", b.Name, b.DroppedSpans)
		}
		if b.DistanceComputedPerOp <= 0 {
			t.Fatalf("%s: no distance work recorded", b.Name)
		}
	}
	// The maintenance workloads must actually exercise merge/split, or
	// the suite is not measuring what its name promises.
	for _, name := range []string{"maintain", "mergesplit", "mergesplit_bigk"} {
		if !hasPhase(rep, name, "core.merge") || !hasPhase(rep, name, "core.split") {
			t.Fatalf("%s: no merge/split spans; workload scale too small", name)
		}
	}
	if !hasPhase(rep, "wal_append", "wal.fsync") {
		t.Fatal("wal_append: no fsync spans")
	}
	if !hasPhase(rep, "recovery", "wal.replay") {
		t.Fatal("recovery: no replay span")
	}
	// The serving probes must record the request root span and show the
	// core work parenting under it — the end-to-end tracing claim.
	for _, name := range []string{"serve_ingest", "serve_ingest_traced"} {
		if !hasPhase(rep, name, "server.ingest") {
			t.Fatalf("%s: no server.ingest spans; request tracing not exercised", name)
		}
		if !hasPhase(rep, name, "core.batch") {
			t.Fatalf("%s: no core.batch spans under the served requests", name)
		}
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

// TestDeterministicProjectionByteStable is the suite's core promise: two
// independent runs under the same preset and seed serialize to identical
// bytes once the machine-dependent fields are projected away.
func TestDeterministicProjectionByteStable(t *testing.T) {
	a, b := runShort(t), runShort(t)
	da, err := json.Marshal(a.Deterministic())
	if err != nil {
		t.Fatal(err)
	}
	db, err := json.Marshal(b.Deterministic())
	if err != nil {
		t.Fatal(err)
	}
	if string(da) != string(db) {
		t.Fatalf("deterministic projections differ:\n%s\n---\n%s", da, db)
	}
	// And the projection really did drop the noisy fields.
	if strings.Contains(string(da), `"ns_per_op":0}`) == false &&
		!strings.Contains(string(da), `"ns_per_op":0,`) {
		t.Fatalf("projection kept ns_per_op: %s", da)
	}
}

// TestDiffFlagsInjectedSlowdown doubles one workload's wall clock and one
// workload's distance work; both must be flagged, and the pristine report
// must pass clean.
func TestDiffFlagsInjectedSlowdown(t *testing.T) {
	base := runShort(t)

	clean := *base
	if regs, _, err := Diff(base, &clean, DiffOptions{}); err != nil || len(regs) != 0 {
		t.Fatalf("pristine report flagged: regs=%v err=%v", regs, err)
	}

	slow := *base
	slow.Benchmarks = append([]Result(nil), base.Benchmarks...)
	slow.Benchmarks[0].NsPerOp *= 2
	slow.Benchmarks[2].DistanceComputedPerOp *= 1.05
	regs, _, err := Diff(base, &slow, DiffOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(regs) != 2 {
		t.Fatalf("want 2 regressions, got %v", regs)
	}
	if regs[0].Benchmark != base.Benchmarks[0].Name || regs[0].Metric != "ns_per_op" {
		t.Fatalf("first regression = %v", regs[0])
	}
	if regs[1].Benchmark != base.Benchmarks[2].Name || regs[1].Metric != "distance_computed_per_op" {
		t.Fatalf("second regression = %v", regs[1])
	}
}

// TestDiffToleratesNoise: changes inside the thresholds pass.
func TestDiffToleratesNoise(t *testing.T) {
	base := runShort(t)
	noisy := *base
	noisy.Benchmarks = append([]Result(nil), base.Benchmarks...)
	noisy.Benchmarks[0].NsPerOp *= 1.2 // inside the 30% time gate
	noisy.Benchmarks[1].NsPerOp *= 0.5 // improvements never fail
	regs, notes, err := Diff(base, &noisy, DiffOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(regs) != 0 {
		t.Fatalf("noise flagged: %v", regs)
	}
	if len(notes) == 0 {
		t.Fatal("big improvement produced no re-baselining note")
	}
}

// TestDiffStructuralChecks covers missing benchmarks, new benchmarks and
// incomparable reports.
func TestDiffStructuralChecks(t *testing.T) {
	base := runShort(t)

	missing := *base
	missing.Benchmarks = base.Benchmarks[1:]
	regs, _, err := Diff(base, &missing, DiffOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(regs) != 1 || regs[0].Metric != "missing" {
		t.Fatalf("missing benchmark not flagged: %v", regs)
	}

	extra := *base
	extra.Benchmarks = append([]Result{{Name: "novel", Ops: 1}}, base.Benchmarks...)
	regs, notes, err := Diff(base, &extra, DiffOptions{})
	if err != nil || len(regs) != 0 {
		t.Fatalf("new benchmark treated as regression: regs=%v err=%v", regs, err)
	}
	if len(notes) != 1 || !strings.Contains(notes[0], "novel") {
		t.Fatalf("new benchmark note missing: %v", notes)
	}

	other := *base
	other.Seed = 99
	if _, _, err := Diff(base, &other, DiffOptions{}); err == nil {
		t.Fatal("seed mismatch not rejected")
	}
	badSchema := *base
	badSchema.Schema = "incbubbles-bench/v0"
	if _, _, err := Diff(base, &badSchema, DiffOptions{}); err == nil {
		t.Fatal("schema mismatch not rejected")
	}
}

// TestDiffGatesTracedOverhead forges a full-preset report where the traced
// serving probe exceeds its untraced twin by more than the 5% budget: the
// in-report gate must flag it. The same excess at the short preset must
// pass — subsecond smoke runs are too noisy to gate wall clock on.
func TestDiffGatesTracedOverhead(t *testing.T) {
	base := runShort(t)
	slow := *base
	slow.Benchmarks = append([]Result(nil), base.Benchmarks...)
	var plain float64
	for _, b := range slow.Benchmarks {
		if b.Name == "serve_ingest" {
			plain = b.NsPerOp
		}
	}
	for i := range slow.Benchmarks {
		if slow.Benchmarks[i].Name == "serve_ingest_traced" {
			slow.Benchmarks[i].NsPerOp = plain * 1.10
		}
	}
	regs, _, err := Diff(base, &slow, DiffOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range regs {
		if r.Metric == "ns_per_op_vs_untraced" {
			t.Fatalf("short-preset report gated on wall clock: %v", r)
		}
	}

	fullBase := *base
	fullBase.Preset = string(PresetFull)
	fullSlow := slow
	fullSlow.Preset = string(PresetFull)
	regs, _, err = Diff(&fullBase, &fullSlow, DiffOptions{})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, r := range regs {
		if r.Benchmark == "serve_ingest_traced" && r.Metric == "ns_per_op_vs_untraced" {
			found = true
		}
	}
	if !found {
		t.Fatalf("traced overhead violation not flagged: %v", regs)
	}
}

// TestTracedTimingOverhead reports (without asserting — wall clock is not
// a stable test signal) how the traced assignment run compares to the
// untraced one, so the number is visible in verbose test logs.
func TestTracedTimingOverhead(t *testing.T) {
	rep := runShort(t)
	var plain, traced float64
	for _, b := range rep.Benchmarks {
		switch b.Name {
		case "assign":
			plain = b.NsPerOp
		case "assign_traced":
			traced = b.NsPerOp
		}
	}
	if plain <= 0 || traced <= 0 {
		t.Fatal("overhead probe workloads missing")
	}
	t.Logf("assignment ns/op: untraced %.0f, traced %.0f (%+.1f%%)",
		plain, traced, (traced/plain-1)*100)
}
