package experiments

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"incbubbles/internal/synth"
	"incbubbles/internal/telemetry"
)

var update = flag.Bool("update", false, "rewrite golden files")

// goldenConfig is a deliberately small Table 1 configuration: two datasets,
// two repetitions, three batches — seconds, not minutes — while still
// exercising both schemes end to end.
func goldenConfig() (Config, []DatasetSpec) {
	cfg := Config{
		Points:  400,
		Bubbles: 12,
		Reps:    2,
		Batches: 3,
		Seed:    7,
	}
	specs := []DatasetSpec{
		{Name: "Random2d", Kind: synth.Random, Dim: 2},
		{Name: "Complex2d", Kind: synth.Complex, Dim: 2},
	}
	return cfg, specs
}

func renderTable1(t *testing.T, cfg Config, specs []DatasetSpec) []byte {
	t.Helper()
	rows, err := Table1(cfg, specs)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteTable1(&buf, rows); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestTable1Golden pins the full experiments pipeline — scenario
// generation, incremental maintenance, complete rebuilds, OPTICS,
// extraction, F-score, formatting — to a byte-identical golden output for
// a fixed seed. Run with -update to regenerate after an intentional
// change. The run doubles as the audited acceptance check: invariant
// auditing is on, so any violation fails the run, and the shared telemetry
// sink's batch counter must line up with the configured workload.
//
// The golden bytes are tied to the exact floating-point semantics of the
// build platform; regenerate if the reference architecture changes.
func TestTable1Golden(t *testing.T) {
	cfg, specs := goldenConfig()
	sink := telemetry.NewSink()
	cfg.Audit = true
	cfg.Telemetry = sink
	got := renderTable1(t, cfg, specs)

	golden := filepath.Join("testdata", "table1.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/experiments -run TestTable1Golden -update`)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("Table 1 output diverged from golden file\ngot:\n%s\nwant:\n%s", got, want)
	}

	// The incremental summarizer applies Batches batches per rep per
	// dataset; every one must have been counted exactly once.
	wantBatches := uint64(cfg.Reps * cfg.Batches * len(specs))
	if got := sink.Counter(telemetry.MetricCoreBatches).Value(); got != wantBatches {
		t.Errorf("core.batches = %d, want %d", got, wantBatches)
	}
	if got := sink.Counter(telemetry.MetricDistanceComputed).Value(); got == 0 {
		t.Error("no distance computations reported")
	}
	if got := sink.Counter(telemetry.MetricCoreAuditRuns).Value(); got == 0 {
		t.Error("audit enabled but no audit passes ran")
	}
	if got := sink.Counter(telemetry.MetricCoreAuditViolation).Value(); got != 0 {
		t.Errorf("audit recorded %d violations", got)
	}
}

// TestTable1GoldenParallelReps re-renders the golden configuration with
// concurrent repetitions and a parallel assignment pipeline: the output
// must stay byte-identical to the serial rendering — worker counts must
// never leak into results.
func TestTable1GoldenParallelReps(t *testing.T) {
	cfg, specs := goldenConfig()
	serial := renderTable1(t, cfg, specs)
	cfg.Workers = 3
	parallel := renderTable1(t, cfg, specs)
	if !bytes.Equal(serial, parallel) {
		t.Errorf("Workers=3 output diverged\nserial:\n%s\nparallel:\n%s", serial, parallel)
	}
}
