// Package experiments regenerates every table and figure of the paper's
// evaluation (§5): Table 1 (F-score and compactness of incremental vs
// completely rebuilt data bubbles across eleven dynamic datasets),
// Figure 7 (β vs extent quality measures), Figure 8 (complex-scenario
// snapshots), Figure 9 (fraction of rebuilt bubbles vs update size),
// Figure 10 (triangle-inequality pruning factor) and Figure 11 (distance
// saving factor of the incremental scheme over complete rebuilds).
//
// Absolute numbers depend on the synthetic data generator and scale; the
// shapes the paper reports — who wins, by what factor, and how trends move
// with update size — are what these experiments reproduce.
package experiments

import (
	"errors"
	"fmt"

	"incbubbles/internal/core"
	"incbubbles/internal/dataset"
	"incbubbles/internal/synth"
	"incbubbles/internal/telemetry"
	"incbubbles/internal/trace"
)

// Config scales the experiments. The defaults run in seconds; the paper's
// scale (50k–110k points, 10 repetitions) is reached with
// {Points: 100000, Reps: 10}.
type Config struct {
	Points         int     // initial database size (default 10000)
	Bubbles        int     // data bubbles maintained (default 100)
	Reps           int     // repetitions averaged over (default 3; paper 10)
	Batches        int     // update batches per run (default 10)
	UpdateFraction float64 // |batch| as fraction of |DB| (default 0.10)
	MinPts         int     // OPTICS MinPts (default 10)
	Probability    float64 // Chebyshev containment p (default 0.9)
	Seed           int64   // base seed; rep r uses Seed + r (default 1)
	// EvalEveryBatch evaluates quality after every batch and averages,
	// instead of the default single evaluation after the final batch
	// ("after a set of updates during which N% points have been deleted
	// and M% points have been inserted", §4). Per-batch averaging also
	// charges the incremental scheme for the transient state while a new
	// cluster is still materialising — useful as an ablation.
	EvalEveryBatch bool
	// Workers bounds how many repetitions run concurrently (each rep is
	// fully independent) and is threaded into each summarizer's batch
	// assignment pipeline (core.Config.Workers). ≤0 selects GOMAXPROCS.
	Workers int
	// Audit enables telemetry.Audit invariant checks inside every
	// maintained summarizer. Where the core degrades gracefully on a
	// violation, an experiment must not: any violation aborts the run with
	// an error, so an audited experiments run doubles as an end-to-end
	// invariant check.
	Audit bool
	// Telemetry optionally receives the metrics of every summarizer the
	// experiments construct. One sink may be shared
	// across all repetitions and datasets (its updates are atomic).
	Telemetry *telemetry.Sink
	// Tracer optionally records hierarchical spans from every summarizer
	// the experiments construct. Spans from concurrent repetitions
	// interleave in the ring but each batch's tree stays intact.
	Tracer *trace.Tracer
}

// WithDefaults fills zero fields with the documented defaults.
func (c Config) WithDefaults() Config {
	if c.Points == 0 {
		c.Points = 10000
	}
	if c.Bubbles == 0 {
		c.Bubbles = 100
	}
	if c.Reps == 0 {
		c.Reps = 3
	}
	if c.Batches == 0 {
		c.Batches = 10
	}
	if c.UpdateFraction == 0 {
		c.UpdateFraction = 0.10
	}
	if c.MinPts == 0 {
		c.MinPts = 10
	}
	if c.Probability == 0 {
		c.Probability = 0.9
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// Validate rejects unusable configurations.
func (c Config) Validate() error {
	if c.Points < 100 {
		return errors.New("experiments: need at least 100 points")
	}
	if c.Bubbles < 4 || c.Bubbles > c.Points/2 {
		return fmt.Errorf("experiments: bubbles=%d out of range", c.Bubbles)
	}
	if c.Reps < 1 || c.Batches < 1 {
		return errors.New("experiments: reps and batches must be positive")
	}
	if c.UpdateFraction <= 0 || c.UpdateFraction > 0.5 {
		return errors.New("experiments: update fraction out of (0,0.5]")
	}
	if c.MinPts < 2 {
		return errors.New("experiments: MinPts too small")
	}
	if c.Probability <= 0 || c.Probability >= 1 {
		return errors.New("experiments: probability out of (0,1)")
	}
	return nil
}

// DatasetSpec names one evaluation dataset: a dynamic scenario at a
// dimensionality, as listed in Table 1.
type DatasetSpec struct {
	Name string
	Kind synth.Kind
	Dim  int
}

// Table1Datasets returns the eleven dataset specifications of Table 1.
func Table1Datasets() []DatasetSpec {
	return []DatasetSpec{
		{Name: "Random2d", Kind: synth.Random, Dim: 2},
		{Name: "Appear2d", Kind: synth.Appear, Dim: 2},
		{Name: "Disappear2d", Kind: synth.Disappear, Dim: 2},
		{Name: "Extappear2d", Kind: synth.ExtremeAppear, Dim: 2},
		{Name: "Gradmove2d", Kind: synth.Gradmove, Dim: 2},
		{Name: "Random10d", Kind: synth.Random, Dim: 10},
		{Name: "Extappear10d", Kind: synth.ExtremeAppear, Dim: 10},
		{Name: "Complex2d", Kind: synth.Complex, Dim: 2},
		{Name: "Complex5d", Kind: synth.Complex, Dim: 5},
		{Name: "Complex10d", Kind: synth.Complex, Dim: 10},
		{Name: "Complex20d", Kind: synth.Complex, Dim: 20},
	}
}

// instrument threads the experiment-wide telemetry and audit settings into
// one summarizer's construction options.
func (c Config) instrument(opts core.Options) core.Options {
	opts.Telemetry = c.Telemetry
	opts.Audit = c.Audit
	opts.Tracer = c.Tracer
	return opts
}

// applyBatch feeds one batch to a maintained summarizer, escalating audit
// violations (which the core only reports) into hard errors.
func (c Config) applyBatch(s *core.Summarizer, batch dataset.Batch) (core.BatchStats, error) {
	bs, err := s.ApplyBatch(batch)
	if err != nil {
		return bs, err
	}
	if bs.AuditViolations > 0 {
		return bs, fmt.Errorf("experiments: audit reported %d violations after batch %d: %v",
			bs.AuditViolations, s.Batches()-1, s.LastViolations())
	}
	return bs, nil
}

// scenario builds the synth scenario for a dataset spec and rep.
func (c Config) scenario(spec DatasetSpec, rep int) (*synth.Scenario, error) {
	return synth.NewScenario(synth.Config{
		Kind:           spec.Kind,
		Dim:            spec.Dim,
		InitialPoints:  c.Points,
		UpdateFraction: c.UpdateFraction,
		Batches:        c.Batches,
		Seed:           c.Seed + int64(rep)*7919, // distinct prime stride per rep
	})
}
