package experiments

import (
	"context"
	"fmt"
	"io"

	"incbubbles/internal/bubble"
	"incbubbles/internal/core"
	"incbubbles/internal/eval"
	"incbubbles/internal/extract"
	"incbubbles/internal/parallel"
	"incbubbles/internal/stats"
)

// Table1Row is one (dataset, scheme) row of Table 1: the mean and standard
// deviation over repetitions of the OPTICS F-score and of the total
// compactness of the data bubbles.
type Table1Row struct {
	Dataset     string
	Scheme      string // "complete" or "inc"
	FMean, FStd float64
	CMean, CStd float64
}

// Table1 reproduces the paper's Table 1 for the given dataset specs
// (Table1Datasets() for the full table). For every repetition a dynamic
// scenario is played; the incremental bubbles absorb every batch, and
// after the configured amount of updates a fresh set is completely
// rebuilt on the same database state. OPTICS with cluster-tree extraction
// is applied to both and F-score plus compactness recorded. The reported
// mean and std are across repetitions (set Config.EvalEveryBatch to also
// average over intermediate batches).
func Table1(cfg Config, specs []DatasetSpec) ([]Table1Row, error) {
	cfg = cfg.WithDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	var rows []Table1Row
	for _, spec := range specs {
		incF := make([]float64, cfg.Reps)
		incC := make([]float64, cfg.Reps)
		comF := make([]float64, cfg.Reps)
		comC := make([]float64, cfg.Reps)
		err := parallel.ForEach(context.Background(), cfg.Reps, cfg.Workers, func(rep int) error {
			rif, ric, rcf, rcc, err := cfg.table1Rep(spec, rep)
			if err != nil {
				return fmt.Errorf("%s rep %d: %w", spec.Name, rep, err)
			}
			incF[rep], incC[rep], comF[rep], comC[rep] = rif, ric, rcf, rcc
			return nil
		})
		if err != nil {
			return nil, err
		}
		fm, _, _ := stats.MeanStd(comF)
		cm, _, _ := stats.MeanStd(comC)
		rows = append(rows, Table1Row{
			Dataset: spec.Name, Scheme: "complete",
			FMean: fm, FStd: stats.SampleStd(comF),
			CMean: cm, CStd: stats.SampleStd(comC),
		})
		fm, _, _ = stats.MeanStd(incF)
		cm, _, _ = stats.MeanStd(incC)
		rows = append(rows, Table1Row{
			Dataset: spec.Name, Scheme: "inc",
			FMean: fm, FStd: stats.SampleStd(incF),
			CMean: cm, CStd: stats.SampleStd(incC),
		})
	}
	return rows, nil
}

// table1Rep plays one repetition of one dataset and returns the per-rep
// averages (incremental F, incremental compactness, complete F, complete
// compactness).
func (c Config) table1Rep(spec DatasetSpec, rep int) (incF, incC, comF, comC float64, err error) {
	sc, err := c.scenario(spec, rep)
	if err != nil {
		return 0, 0, 0, 0, err
	}
	seed := c.Seed + int64(rep)*104729
	inc, err := core.New(sc.DB(), c.instrument(core.Options{
		NumBubbles:            c.Bubbles,
		UseTriangleInequality: true,
		Seed:                  seed,
		Config:                core.Config{Probability: c.Probability, Workers: c.Workers},
	}))
	if err != nil {
		return 0, 0, 0, 0, err
	}
	extractParams := extract.Params{}
	var nIncF, nIncC, nComF, nComC stats.Running
	evaluate := func(b int) error {
		// Incremental quality.
		f, err := eval.ClusteringFScore(sc.DB(), inc.Set(), c.MinPts, extractParams)
		if err != nil {
			return err
		}
		nIncF.Add(f)
		nIncC.Add(inc.Set().TotalCompactness())
		// Complete rebuild baseline on the same database state.
		rebuilt, err := bubble.Build(sc.DB(), c.Bubbles, bubble.Options{
			UseTriangleInequality: true,
			RNG:                   stats.NewRNG(seed + int64(b) + 31),
		})
		if err != nil {
			return err
		}
		f, err = eval.ClusteringFScore(sc.DB(), rebuilt, c.MinPts, extractParams)
		if err != nil {
			return err
		}
		nComF.Add(f)
		nComC.Add(rebuilt.TotalCompactness())
		return nil
	}
	for b := 0; b < c.Batches; b++ {
		batch, err := sc.NextBatch()
		if err != nil {
			return 0, 0, 0, 0, err
		}
		if _, err := c.applyBatch(inc, batch); err != nil {
			return 0, 0, 0, 0, err
		}
		if c.EvalEveryBatch || b == c.Batches-1 {
			if err := evaluate(b); err != nil {
				return 0, 0, 0, 0, err
			}
		}
	}
	return nIncF.Mean(), nIncC.Mean(), nComF.Mean(), nComC.Mean(), nil
}

// WriteTable1 renders rows in the paper's layout.
func WriteTable1(w io.Writer, rows []Table1Row) error {
	if _, err := fmt.Fprintf(w, "%-14s %-9s %10s %10s %14s %14s\n",
		"Dataset", "Scheme", "F mean", "F std", "Compact mean", "Compact std"); err != nil {
		return err
	}
	for _, r := range rows {
		if _, err := fmt.Fprintf(w, "%-14s %-9s %10.4f %10.4f %14.1f %14.1f\n",
			r.Dataset, r.Scheme, r.FMean, r.FStd, r.CMean, r.CStd); err != nil {
			return err
		}
	}
	return nil
}
