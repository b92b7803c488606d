// Command perfbench is the repository's end-to-end benchmark. One
// invocation runs one workload at one seed and prints, as the last line
// of standard output, a single JSON object:
//
//	{"correct": true, "attempted": 280, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end metrics of BENCHMARK.json;
// with -trace 1 the run is the separate traced run and the metrics are
// the per-layer ones. Every correctness check runs in both; a failed
// check prints the result with "correct": false and exits 1. An
// operational error (a server that will not start, a scratch directory
// that cannot be made) exits 2 without a result line.
//
// Run it through run.sh, which builds it from the checkout first:
//
//	bash perfbench/run.sh --workload serve_trickle --seed 3 --seconds 16 --trace 0
//
// README.md describes the workloads, every metric, and which end-to-end
// metric each per-layer metric is expected to move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

const (
	exitOK        = 0
	exitIncorrect = 1
	exitError     = 2
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// workload is one named benchmark workload: timed runs the end-to-end
// measurement, traced the separate per-layer run on the same inputs.
type workload struct {
	timed  func(env *runEnv) (*report, error)
	traced func(env *runEnv) (*report, error)
}

// workloads are the runnable workloads. serve_window is left out of
// BENCHMARK.json while two in-flight batches can crash bubbled
// (README.md, "Workloads").
var workloads = map[string]workload{
	"recluster":     {timed: timedRecluster(reclusterConfigFor), traced: tracedRecluster(reclusterConfigFor)},
	"serve_trickle": {timed: timedServe(trickleConfig), traced: tracedServe(trickleConfig)},
	"serve_window":  {timed: timedServe(windowConfig), traced: tracedServe(windowConfig)},
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "workload seed; the same seed gives byte-identical inputs")
	seconds := fs.Int("seconds", 16, "intended length of the timed section; fixes the batch count")
	traced := fs.Int("trace", 0, "0 measures the end-to-end metrics, 1 runs the traced per-layer run")
	out := fs.String("out", ".bench_build", "directory for the run's scratch state and trace files")
	if err := fs.Parse(args); err != nil {
		return exitError
	}
	w, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want one of %s)\n", *name, strings.Join(workloadNames(), ", "))
		return exitError
	}
	if *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(stderr, "perfbench: -seconds must be positive and -trace 0 or 1")
		return exitError
	}
	env, err := newRunEnv(*name, *seed, *seconds, *traced == 1, *out, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return exitError
	}
	defer env.close()

	fn := w.timed
	if env.traced {
		fn = w.traced
	}
	rep, err := fn(env)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return exitError
	}
	checkCatalogue(rep, env.traced)
	if err := rep.write(stdout, env); err != nil {
		fmt.Fprintf(stderr, "perfbench: writing result: %v\n", err)
		return exitError
	}
	if len(rep.problems) > 0 {
		for _, p := range rep.problems {
			fmt.Fprintf(stderr, "perfbench: check failed: %s\n", p)
		}
		return exitIncorrect
	}
	return exitOK
}

// runEnv is what every workload gets: its seed, the run length, and a
// private scratch directory removed when the run ends.
type runEnv struct {
	workload string
	seed     int64
	seconds  int
	traced   bool
	outDir   string // persistent outputs (trace files)
	scratch  string // removed by close
	log      io.Writer
	diag     *diagnostics
	steal    *stealMonitor
	nextDir  int
}

func newRunEnv(name string, seed int64, seconds int, traced bool, out string, log io.Writer) (*runEnv, error) {
	out, err := filepath.Abs(out)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(out, 0o755); err != nil {
		return nil, err
	}
	scratch, err := os.MkdirTemp(out, fmt.Sprintf("run-%s-%d-", name, seed))
	if err != nil {
		return nil, err
	}
	return &runEnv{
		workload: name, seed: seed, seconds: seconds, traced: traced,
		outDir: out, scratch: scratch, log: log, diag: startDiagnostics(),
		steal: startStealMonitor(),
	}, nil
}

// freshDir returns a new empty directory under the run's scratch root.
func (e *runEnv) freshDir(tag string) (string, error) {
	e.nextDir++
	dir := filepath.Join(e.scratch, fmt.Sprintf("%03d-%s", e.nextDir, tag))
	return dir, os.MkdirAll(dir, 0o755)
}

func (e *runEnv) close() {
	e.steal.close()
	_ = os.RemoveAll(e.scratch)
}

// logf prints one human-readable progress or sample-count line. These
// lines precede the result; the result line is always last.
func (e *runEnv) logf(format string, args ...any) {
	fmt.Fprintf(e.log, format+"\n", args...)
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report accumulates one run's outcome: operation counts, metrics and
// every failed correctness check.
type report struct {
	attempted int
	failed    int
	metrics   map[string]metric
	samples   map[string]int
	problems  []string
}

func newReport() *report {
	return &report{metrics: map[string]metric{}, samples: map[string]int{}}
}

// set records a metric and the number of samples it summarizes.
func (r *report) set(name string, value float64, unit string, samples int) {
	r.metrics[name] = metric{Value: value, Unit: unit}
	r.samples[name] = samples
}

// check records a failed correctness check unless ok.
func (r *report) check(ok bool, format string, args ...any) {
	if !ok {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// write prints every metric with its sample count, the run diagnostics,
// and the result line.
func (r *report) write(w io.Writer, env *runEnv) error {
	names := make([]string, 0, len(r.metrics))
	for n := range r.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.metrics[n]
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			r.check(false, "metric %s is %v", n, m.Value)
			m.Value = 0
			r.metrics[n] = m
		}
		fmt.Fprintf(w, "%-32s %14.6g %-6s (n=%d)\n", n, m.Value, m.Unit, r.samples[n])
	}
	diag, err := json.Marshal(env.diag.finish(env))
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "diagnostics %s\n", diag)
	res := result{
		Correct:   len(r.problems) == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   r.metrics,
	}
	if res.Attempted < 1 {
		res.Correct = false
		r.problems = append(r.problems, "no operation was attempted")
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
