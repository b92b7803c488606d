package bench

import (
	"fmt"
	"sort"
)

// DiffOptions sets the regression gates Diff applies.
type DiffOptions struct {
	// TimeThreshold is the allowed relative ns_per_op increase before a
	// workload counts as regressed (default 0.30: wall clock is noisy
	// across machines and CI neighbours).
	TimeThreshold float64
	// CountThreshold is the allowed relative increase of the
	// deterministic work metrics — distance calculations per op and span
	// counts (default 0.02: these are byte-stable under preset+seed, so
	// any real growth is an algorithmic change someone must acknowledge
	// by regenerating the baseline).
	CountThreshold float64
}

func (o DiffOptions) withDefaults() DiffOptions {
	if o.TimeThreshold == 0 {
		o.TimeThreshold = 0.30
	}
	if o.CountThreshold == 0 {
		o.CountThreshold = 0.02
	}
	return o
}

// Regression is one gated metric that grew beyond its threshold.
type Regression struct {
	Benchmark string
	Metric    string
	Base      float64
	Current   float64
	// Limit is the largest current value the gate would have accepted.
	Limit float64
}

func (r Regression) String() string {
	if r.Metric == "missing" {
		return fmt.Sprintf("%s: present in baseline but missing from current report", r.Benchmark)
	}
	return fmt.Sprintf("%s %s: %.4g -> %.4g (limit %.4g)", r.Benchmark, r.Metric, r.Base, r.Current, r.Limit)
}

// tracedPairs maps each tracing-overhead probe to its untraced twin: the
// request-tracing path exists to be left on in production, so the traced
// workload's wall clock must stay within tracedOverheadLimit of the
// untraced one. Wall clock is too noisy to gate at the short (CI smoke)
// preset's subsecond scale, so this gate applies only to full-preset
// reports — the scale the committed baseline pins.
var tracedPairs = map[string]string{
	"serve_ingest_traced": "serve_ingest",
}

// tracedOverheadLimit is the allowed relative wall-clock cost of request
// tracing over the untraced serving path.
const tracedOverheadLimit = 0.05

// Diff compares a current report against a committed baseline and
// returns the regressions plus informational notes (new benchmarks,
// improvements worth re-baselining). Reports from different schemas,
// presets or seeds are not comparable and return an error.
func Diff(base, cur *Report, opts DiffOptions) ([]Regression, []string, error) {
	if base == nil || cur == nil {
		return nil, nil, fmt.Errorf("bench: nil report")
	}
	if base.Schema != cur.Schema {
		return nil, nil, fmt.Errorf("bench: schema mismatch: baseline %q vs current %q", base.Schema, cur.Schema)
	}
	if base.Preset != cur.Preset || base.Seed != cur.Seed {
		return nil, nil, fmt.Errorf("bench: incomparable reports: baseline preset=%s seed=%d, current preset=%s seed=%d",
			base.Preset, base.Seed, cur.Preset, cur.Seed)
	}
	opts = opts.withDefaults()

	curByName := map[string]Result{}
	for _, b := range cur.Benchmarks {
		curByName[b.Name] = b
	}
	var regs []Regression
	var notes []string
	seen := map[string]bool{}
	for _, b := range base.Benchmarks {
		seen[b.Name] = true
		c, ok := curByName[b.Name]
		if !ok {
			regs = append(regs, Regression{Benchmark: b.Name, Metric: "missing"})
			continue
		}
		regs = append(regs, gate(b.Name, "ns_per_op", b.NsPerOp, c.NsPerOp, opts.TimeThreshold)...)
		regs = append(regs, gate(b.Name, "distance_computed_per_op", b.DistanceComputedPerOp, c.DistanceComputedPerOp, opts.CountThreshold)...)
		regs = append(regs, gate(b.Name, "spans", float64(b.Spans), float64(c.Spans), opts.CountThreshold)...)
		if c.DroppedSpans > 0 {
			regs = append(regs, Regression{Benchmark: b.Name, Metric: "dropped_spans",
				Base: float64(b.DroppedSpans), Current: float64(c.DroppedSpans), Limit: 0})
		}
		if b.NsPerOp > 0 && c.NsPerOp < b.NsPerOp*(1-opts.TimeThreshold) {
			notes = append(notes, fmt.Sprintf("%s ns_per_op improved %.4g -> %.4g; consider re-baselining",
				b.Name, b.NsPerOp, c.NsPerOp))
		}
	}
	if cur.Preset == string(PresetFull) {
		tps := make([]string, 0, len(tracedPairs))
		for tp := range tracedPairs {
			tps = append(tps, tp)
		}
		sort.Strings(tps)
		for _, tp := range tps {
			tracedRes, okTraced := curByName[tp]
			plainRes, okPlain := curByName[tracedPairs[tp]]
			if !okTraced || !okPlain || plainRes.NsPerOp <= 0 {
				continue
			}
			if limit := plainRes.NsPerOp * (1 + tracedOverheadLimit); tracedRes.NsPerOp > limit {
				regs = append(regs, Regression{Benchmark: tp, Metric: "ns_per_op_vs_untraced",
					Base: plainRes.NsPerOp, Current: tracedRes.NsPerOp, Limit: limit})
			}
		}
	}
	var extra []string
	for name := range curByName {
		if !seen[name] {
			extra = append(extra, name)
		}
	}
	sort.Strings(extra)
	for _, name := range extra {
		notes = append(notes, fmt.Sprintf("%s: new benchmark, absent from baseline", name))
	}
	return regs, notes, nil
}

// gate returns a regression when cur exceeds base by more than the
// relative threshold. A zero baseline gates any growth at all — the
// metric appeared from nothing.
func gate(bench, metric string, base, cur, threshold float64) []Regression {
	limit := base * (1 + threshold)
	if base == 0 {
		limit = 0
	}
	if cur <= limit {
		return nil
	}
	return []Regression{{Benchmark: bench, Metric: metric, Base: base, Current: cur, Limit: limit}}
}
