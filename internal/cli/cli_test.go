package cli

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"incbubbles/internal/experiments"
)

func tinyConfig() experiments.Config {
	return experiments.Config{
		Points:  800,
		Bubbles: 20,
		Reps:    1,
		Batches: 2,
		MinPts:  6,
		Seed:    3,
	}
}

func TestParseFracs(t *testing.T) {
	got, err := ParseFracs("0.02, 0.1")
	if err != nil || len(got) != 2 || got[0] != 0.02 || got[1] != 0.1 {
		t.Fatalf("ParseFracs=%v err=%v", got, err)
	}
	if got, err := ParseFracs(""); got != nil || err != nil {
		t.Fatalf("empty ParseFracs=%v err=%v", got, err)
	}
	for _, bad := range []string{"x", "0", "-0.1", "0.6"} {
		if _, err := ParseFracs(bad); err == nil {
			t.Errorf("bad fracs %q accepted", bad)
		}
	}
}

func TestRunIncbenchExperiments(t *testing.T) {
	cases := []struct {
		experiment string
		want       string
	}{
		{"table1", "Table 1"},
		{"fig7", "Figure 7"},
		{"fig8", "Figure 8"},
		{"fig9", "rebuilt"},
		{"fig10", "pruned"},
		{"fig11", "saving"},
		{"sweep", "Figures 9-11"},
		{"ablation", "Ablation"},
	}
	for _, c := range cases {
		c := c
		t.Run(c.experiment, func(t *testing.T) {
			var buf bytes.Buffer
			opts := IncbenchOptions{
				Experiment: c.experiment,
				Config:     tinyConfig(),
				Fracs:      "0.1",
				Datasets:   "Random2d",
			}
			if err := RunIncbench(context.Background(), opts, &buf); err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(buf.String(), c.want) {
				t.Fatalf("output missing %q:\n%s", c.want, buf.String())
			}
		})
	}
}

func TestRunIncbenchUnknowns(t *testing.T) {
	var buf bytes.Buffer
	if err := RunIncbench(context.Background(), IncbenchOptions{Experiment: "nope", Config: tinyConfig()}, &buf); err == nil {
		t.Error("unknown experiment accepted")
	}
	if err := RunIncbench(context.Background(), IncbenchOptions{Experiment: "table1", Config: tinyConfig(), Datasets: "NotADataset"}, &buf); err == nil {
		t.Error("unknown dataset accepted")
	}
	if err := RunIncbench(context.Background(), IncbenchOptions{Experiment: "fig9", Config: tinyConfig(), Fracs: "bogus"}, &buf); err == nil {
		t.Error("bad fracs accepted")
	}
}

func TestRunIncbenchFig8CSVDir(t *testing.T) {
	dir := t.TempDir()
	var buf bytes.Buffer
	opts := IncbenchOptions{Experiment: "fig8", Config: tinyConfig(), CSVDir: dir}
	if err := RunIncbench(context.Background(), opts, &buf); err != nil {
		t.Fatal(err)
	}
	files, err := filepath.Glob(filepath.Join(dir, "complex_batch*.csv"))
	if err != nil || len(files) != 3 { // batch 0..2
		t.Fatalf("snapshots=%v err=%v", files, err)
	}
}

func TestRunBubblegenAndQuickcluster(t *testing.T) {
	dir := t.TempDir()
	csvPath := filepath.Join(dir, "db.csv")
	var stdout, stderr bytes.Buffer
	gen := BubblegenOptions{
		Kind:    "complex",
		Dim:     2,
		Points:  800,
		Batches: 2,
		Seed:    4,
		Out:     csvPath,
	}
	if err := RunBubblegen(gen, &stdout, &stderr); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(stderr.String(), "bubblegen:") {
		t.Fatalf("missing progress note: %q", stderr.String())
	}
	f, err := os.Open(csvPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	stdout.Reset()
	stderr.Reset()
	pngPath := filepath.Join(dir, "reach.png")
	qc := QuickclusterOptions{
		Bubbles:     20,
		MinPts:      6,
		Seed:        5,
		Plot:        true,
		Assignments: true,
		PNGOut:      pngPath,
	}
	if err := RunQuickcluster(context.Background(), f, qc, &stdout, &stderr); err != nil {
		t.Fatal(err)
	}
	out := stdout.String()
	for _, want := range []string{"points=800", "clusters=", "F-score", "reachability plot", "id,cluster"} {
		if !strings.Contains(out, want) {
			t.Fatalf("quickcluster output missing %q:\n%s", want, out)
		}
	}
	if fi, err := os.Stat(pngPath); err != nil || fi.Size() == 0 {
		t.Fatalf("png not written: %v", err)
	}
}

func TestRunBubblegenStdoutAndOutdir(t *testing.T) {
	dir := t.TempDir()
	var stdout, stderr bytes.Buffer
	gen := BubblegenOptions{
		Kind:    "random",
		Dim:     2,
		Points:  400,
		Batches: 1,
		Seed:    6,
		Out:     "-",
		OutDir:  dir,
	}
	if err := RunBubblegen(gen, &stdout, &stderr); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(stdout.String(), "id,label,x0") {
		t.Fatalf("stdout CSV missing header: %q", stdout.String()[:40])
	}
	files, _ := filepath.Glob(filepath.Join(dir, "random2d_batch*.csv"))
	if len(files) != 2 {
		t.Fatalf("outdir snapshots=%v", files)
	}
}

func TestRunBubblegenUnknownKind(t *testing.T) {
	var a, b bytes.Buffer
	if err := RunBubblegen(BubblegenOptions{Kind: "nope"}, &a, &b); err == nil {
		t.Error("unknown kind accepted")
	}
}

func TestRunQuickclusterBadInput(t *testing.T) {
	var a, b bytes.Buffer
	if err := RunQuickcluster(context.Background(), strings.NewReader("not,a,csv"), QuickclusterOptions{Bubbles: 5, MinPts: 3}, &a, &b); err == nil {
		t.Error("malformed CSV accepted")
	}
}

// TestRunIncbenchRecovery runs the crash-recovery demonstration end to
// end: it must report an identical recovered state.
func TestRunIncbenchRecovery(t *testing.T) {
	var out bytes.Buffer
	opts := IncbenchOptions{
		Experiment:      "recovery",
		Config:          tinyConfig(),
		WALDir:          t.TempDir(),
		CheckpointEvery: 2,
	}
	if err := RunIncbench(context.Background(), opts, &out); err != nil {
		t.Fatalf("recovery experiment: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "IDENTICAL") {
		t.Fatalf("recovery output:\n%s", out.String())
	}
}

// TestRunQuickclusterDurableResume runs quickcluster twice against the
// same WAL directory: the second run must resume the persisted summary
// (no CSV read) and produce identical cluster output.
func TestRunQuickclusterDurableResume(t *testing.T) {
	dir := t.TempDir()
	csvPath := filepath.Join(dir, "db.csv")
	var stdout, stderr bytes.Buffer
	gen := BubblegenOptions{Kind: "complex", Dim: 2, Points: 600, Batches: 1, Seed: 7, Out: csvPath}
	if err := RunBubblegen(gen, &stdout, &stderr); err != nil {
		t.Fatal(err)
	}
	walDir := filepath.Join(dir, "wal")
	qc := QuickclusterOptions{Bubbles: 15, MinPts: 5, Seed: 8, WALDir: walDir}

	f, err := os.Open(csvPath)
	if err != nil {
		t.Fatal(err)
	}
	stdout.Reset()
	stderr.Reset()
	err = RunQuickcluster(context.Background(), f, qc, &stdout, &stderr)
	f.Close()
	if err != nil {
		t.Fatalf("durable run: %v", err)
	}
	first := stdout.String()
	if !strings.Contains(stderr.String(), "persisted") {
		t.Fatalf("no persistence note: %q", stderr.String())
	}

	// Resume: input reader is never touched.
	stdout.Reset()
	stderr.Reset()
	if err := RunQuickcluster(context.Background(), strings.NewReader("ignored"), qc, &stdout, &stderr); err != nil {
		t.Fatalf("resumed run: %v", err)
	}
	if !strings.Contains(stderr.String(), "resumed") {
		t.Fatalf("no resume note: %q", stderr.String())
	}
	if stdout.String() != first {
		t.Fatalf("resumed output differs:\n--- first\n%s--- resumed\n%s", first, stdout.String())
	}
}

// TestRunQuickclusterCancelled verifies the build honours a cancelled
// context and reports it.
func TestRunQuickclusterCancelled(t *testing.T) {
	dir := t.TempDir()
	csvPath := filepath.Join(dir, "db.csv")
	var stdout, stderr bytes.Buffer
	gen := BubblegenOptions{Kind: "random", Dim: 2, Points: 400, Batches: 1, Seed: 9, Out: csvPath}
	if err := RunBubblegen(gen, &stdout, &stderr); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(csvPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	stdout.Reset()
	if err := RunQuickcluster(ctx, f, QuickclusterOptions{Bubbles: 10, MinPts: 5}, &stdout, &stderr); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}
