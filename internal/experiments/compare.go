package experiments

import (
	"fmt"
	"io"
	"time"

	"incbubbles/internal/bubble"
	"incbubbles/internal/cf"
	"incbubbles/internal/dataset"
	"incbubbles/internal/eval"
	"incbubbles/internal/extract"
	"incbubbles/internal/kdtree"
	"incbubbles/internal/optics"
	"incbubbles/internal/stats"
	"incbubbles/internal/synth"
)

// CompareRow is one method's result in the summarization comparison:
// clustering quality and wall-clock cost of summarize+cluster.
type CompareRow struct {
	Method string // "bubbles", "cf", "raw"
	FMean  float64
	FStd   float64
	Millis float64 // mean wall time per run
}

// SummaryCompare contrasts three ways of obtaining a hierarchical
// clustering of the same (static) complex database:
//
//   - "bubbles": data bubbles + OPTICS with the Breunig distance
//     corrections — the representation this paper maintains incrementally;
//   - "cf": the same partition evaluated as plain BIRCH clustering
//     features (weighted centroids, no extent/nnDist corrections) — the
//     contrast [5] drew to motivate data bubbles;
//   - "raw": OPTICS over every point, no summarization — the quality
//     ceiling and cost floor baseline.
//
// Expected shape: bubbles ≈ raw quality at a fraction of the cost; cf
// clearly below both in quality at the same compression rate.
func SummaryCompare(cfg Config) ([]CompareRow, error) {
	cfg = cfg.WithDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	var bubF, cfF, rawF, smpF []float64
	var bubMs, cfMs, rawMs, smpMs stats.Running
	for rep := 0; rep < cfg.Reps; rep++ {
		sc, err := synth.NewScenario(synth.Config{
			Kind:          synth.Complex,
			Dim:           2,
			InitialPoints: cfg.Points,
			Seed:          cfg.Seed + int64(rep)*7919,
		})
		if err != nil {
			return nil, err
		}
		db := sc.DB()

		// Data bubbles.
		start := time.Now()
		set, err := bubble.Build(db, cfg.Bubbles, bubble.Options{
			UseTriangleInequality: true,
			RNG:                   stats.NewRNG(cfg.Seed + int64(rep)*31),
		})
		if err != nil {
			return nil, err
		}
		f, err := eval.ClusteringFScore(db, set, cfg.MinPts, extract.Params{})
		if err != nil {
			return nil, err
		}
		bubMs.Add(float64(time.Since(start).Microseconds()) / 1000)
		bubF = append(bubF, f)

		// Clustering features: the same partition, stripped of the bubble
		// distance corrections.
		start = time.Now()
		f, err = cfFScore(db, set, cfg.MinPts)
		if err != nil {
			return nil, err
		}
		cfMs.Add(float64(time.Since(start).Microseconds()) / 1000)
		cfF = append(cfF, f)

		// Raw OPTICS over all points.
		start = time.Now()
		f, err = rawFScore(db, cfg.MinPts, sc.Config().BoxSize/10)
		if err != nil {
			return nil, err
		}
		rawMs.Add(float64(time.Since(start).Microseconds()) / 1000)
		rawF = append(rawF, f)

		// Uniform random sample of the same size as the bubble set: the
		// classical cheap alternative to sufficient-statistics summaries.
		start = time.Now()
		f, err = sampleFScore(db, cfg.Bubbles, cfg.MinPts, cfg.Seed+int64(rep)*97)
		if err != nil {
			return nil, err
		}
		smpMs.Add(float64(time.Since(start).Microseconds()) / 1000)
		smpF = append(smpF, f)
	}
	mk := func(method string, fs []float64, ms stats.Running) CompareRow {
		m, _, _ := stats.MeanStd(fs)
		return CompareRow{Method: method, FMean: m, FStd: stats.SampleStd(fs), Millis: ms.Mean()}
	}
	return []CompareRow{
		mk("bubbles", bubF, bubMs),
		mk("cf", cfF, cfMs),
		mk("sample", smpF, smpMs),
		mk("raw", rawF, rawMs),
	}, nil
}

// sampleFScore clusters a uniform random sample of sampleSize points with
// OPTICS (each sample point weighted by the points it stands for) and
// transfers the extracted labels to every database point via its nearest
// sample member.
func sampleFScore(db *dataset.DB, sampleSize, minPts int, seed int64) (float64, error) {
	rng := stats.NewRNG(seed)
	ids, err := db.RandomIDs(rng, sampleSize)
	if err != nil {
		return 0, err
	}
	items := make([]kdtree.Item, 0, sampleSize)
	for _, id := range ids {
		rec, err := db.Get(id)
		if err != nil {
			return 0, err
		}
		items = append(items, kdtree.Item{ID: uint64(id), P: rec.P})
	}
	space, err := optics.NewPointSpace(items)
	if err != nil {
		return 0, err
	}
	// MinPts scaled down to the sample's resolution: each sample point
	// represents n/s database points.
	perRep := db.Len() / sampleSize
	if perRep < 1 {
		perRep = 1
	}
	sampleMinPts := minPts / perRep
	if sampleMinPts < 2 {
		sampleMinPts = 2
	}
	res, err := optics.Run(space, optics.Params{MinPts: sampleMinPts})
	if err != nil {
		return 0, err
	}
	labels := extract.ExtractTree(res.Order, extract.Params{MinClusterWeight: 2})
	labelOf := make(map[uint64]int, len(res.Order))
	for i, e := range res.Order {
		labelOf[e.ID] = labels[i]
	}
	tree, err := kdtree.Build(items)
	if err != nil {
		return 0, err
	}
	found := map[dataset.PointID]int{}
	db.ForEach(func(r dataset.Record) {
		nn := tree.KNN(r.P, 1)
		label := labelOf[nn[0].Item.ID]
		if label == extract.Noise {
			label = eval.Noise
		}
		found[r.ID] = label
	})
	truth, flat := eval.AlignWithDB(db, found)
	return eval.FScore(truth, flat)
}

// cfFScore evaluates the bubbles' partition as plain clustering features:
// identical (n, LS, SS) per group, but clustered through CFSpace — no
// extent or nearest-neighbour-distance corrections.
func cfFScore(db *dataset.DB, set *bubble.Set, minPts int) (float64, error) {
	var feats []*cf.Feature
	var owners [][]dataset.PointID // aligned with feats
	for _, b := range set.Bubbles() {
		if b.N() == 0 {
			continue
		}
		f := cf.NewFeature(set.Dim())
		for _, id := range b.MemberIDs() {
			rec, err := db.Get(id)
			if err != nil {
				return 0, err
			}
			if err := f.Add(rec.P); err != nil {
				return 0, err
			}
		}
		feats = append(feats, f)
		owners = append(owners, b.MemberIDs())
	}
	space, err := optics.NewCFSpace(feats)
	if err != nil {
		return 0, err
	}
	res, err := optics.Run(space, optics.Params{MinPts: minPts})
	if err != nil {
		return 0, err
	}
	labels := extract.ExtractTree(res.Order, extract.Params{})
	found := map[dataset.PointID]int{}
	for i, e := range res.Order {
		label := labels[i]
		if label == extract.Noise {
			label = eval.Noise
		}
		for _, id := range owners[e.ID] {
			found[id] = label
		}
	}
	truth, flat := eval.AlignWithDB(db, found)
	return eval.FScore(truth, flat)
}

// rawFScore clusters every database point directly with OPTICS.
func rawFScore(db *dataset.DB, minPts int, eps float64) (float64, error) {
	space, err := optics.NewPointSpaceFromDB(db)
	if err != nil {
		return 0, err
	}
	res, err := optics.Run(space, optics.Params{MinPts: minPts, Eps: eps})
	if err != nil {
		return 0, err
	}
	labels := extract.ExtractTree(res.Order, extract.Params{})
	found := map[dataset.PointID]int{}
	for i, e := range res.Order {
		label := labels[i]
		if label == extract.Noise {
			label = eval.Noise
		}
		found[dataset.PointID(e.ID)] = label
	}
	truth, flat := eval.AlignWithDB(db, found)
	return eval.FScore(truth, flat)
}

// WriteCompare renders the comparison rows.
func WriteCompare(w io.Writer, rows []CompareRow) error {
	if _, err := fmt.Fprintf(w, "%-8s %10s %10s %12s\n", "Method", "F mean", "F std", "time (ms)"); err != nil {
		return err
	}
	for _, r := range rows {
		if _, err := fmt.Fprintf(w, "%-8s %10.4f %10.4f %12.1f\n", r.Method, r.FMean, r.FStd, r.Millis); err != nil {
			return err
		}
	}
	return nil
}
