package incbubbles

import (
	"bytes"
	"testing"
)

func TestSaveLoadBubblesThroughFacade(t *testing.T) {
	db := NewDB(2)
	populate(t, db, 400, 8)
	set, err := BuildBubbles(db, 16, BubbleOptions{UseTriangleInequality: true})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := SaveBubbles(set, &buf); err != nil {
		t.Fatal(err)
	}
	back, err := LoadBubbles(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != set.Len() || back.OwnedPoints() != set.OwnedPoints() {
		t.Fatalf("restored set shape: len=%d owned=%d", back.Len(), back.OwnedPoints())
	}
	// The restored summary clusters identically in structure.
	a, err := ClusterBubbles(set, ClusterOptions{MinPts: 10})
	if err != nil {
		t.Fatal(err)
	}
	b, err := ClusterBubbles(back, ClusterOptions{MinPts: 10})
	if err != nil {
		t.Fatal(err)
	}
	if a.NumClusters() != b.NumClusters() {
		t.Fatalf("cluster counts differ: %d vs %d", a.NumClusters(), b.NumClusters())
	}
}

func TestSingleLinkBubbles(t *testing.T) {
	db := NewDB(2)
	populate(t, db, 600, 9)
	set, err := BuildBubbles(db, 20, BubbleOptions{UseTriangleInequality: true})
	if err != nil {
		t.Fatal(err)
	}
	dend, err := SingleLinkBubbles(set)
	if err != nil {
		t.Fatal(err)
	}
	// Cutting at k=2 must separate the two generating clusters: every
	// non-empty bubble's rep is near (10,10) or (90,90).
	labels := dend.CutK(2)
	sides := map[int]map[bool]int{}
	i := 0
	for _, b := range set.Bubbles() {
		if b.N() == 0 {
			continue
		}
		near := b.Rep()[0] < 50
		if sides[labels[i]] == nil {
			sides[labels[i]] = map[bool]int{}
		}
		sides[labels[i]][near]++
		i++
	}
	if len(sides) != 2 {
		t.Fatalf("CutK(2) produced %d clusters", len(sides))
	}
	for l, m := range sides {
		if len(m) != 1 {
			t.Fatalf("single-link cluster %d mixes both generating clusters: %v", l, m)
		}
	}
}

func TestStreamWindowThroughFacade(t *testing.T) {
	w, err := NewStreamWindow(StreamConfig{Dim: 2, Capacity: 1000, Bubbles: 20, FlushEvery: 100, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	rng := NewRNG(12)
	for i := 0; i < 3000; i++ {
		c := Point{10, 10}
		label := 0
		if i%2 == 1 {
			c = Point{90, 90}
			label = 1
		}
		if err := w.Push(rng.GaussianPoint(c, 2), label); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if !w.Ready() || w.Len() != 1000 {
		t.Fatalf("window state: ready=%v len=%d", w.Ready(), w.Len())
	}
	clus, err := ClusterBubbles(w.Summarizer().Set(), ClusterOptions{MinPts: 10})
	if err != nil {
		t.Fatal(err)
	}
	if clus.NumClusters() != 2 {
		t.Fatalf("window clusters=%d", clus.NumClusters())
	}
}

func TestMacroClusterThroughFacade(t *testing.T) {
	db := NewDB(2)
	populate(t, db, 800, 16)
	set, err := BuildBubbles(db, 24, BubbleOptions{UseTriangleInequality: true})
	if err != nil {
		t.Fatal(err)
	}
	labels, err := MacroCluster(set, 2, 17)
	if err != nil {
		t.Fatal(err)
	}
	if len(labels) != db.Len() {
		t.Fatalf("labelled %d of %d points", len(labels), db.Len())
	}
	f, err := FScore(db, labels)
	if err != nil {
		t.Fatal(err)
	}
	if f < 0.95 {
		t.Fatalf("macro clustering F=%v on separable data", f)
	}
}

func TestApproxQueriesThroughFacade(t *testing.T) {
	db := NewDB(2)
	populate(t, db, 1000, 18)
	set, err := BuildBubbles(db, 30, BubbleOptions{UseTriangleInequality: true})
	if err != nil {
		t.Fatal(err)
	}
	mean, err := EstimateMean(set)
	if err != nil {
		t.Fatal(err)
	}
	// Two equal clusters at (10,10) and (90,90): mean ≈ (50,50).
	if mean[0] < 45 || mean[0] > 55 {
		t.Fatalf("mean=%v", mean)
	}
	v, err := EstimateTotalVariance(set)
	if err != nil || v <= 0 {
		t.Fatalf("variance=%v err=%v", v, err)
	}
	// Half the points sit in the lower-left quadrant.
	est, err := EstimateRangeCount(set, QueryBox{Lo: Point{0, 0}, Hi: Point{50, 50}}, 19)
	if err != nil {
		t.Fatal(err)
	}
	if est < 400 || est > 600 {
		t.Fatalf("range estimate=%v want ≈500", est)
	}
}

func TestRenderersThroughFacade(t *testing.T) {
	db := NewDB(2)
	populate(t, db, 400, 20)
	set, err := BuildBubbles(db, 16, BubbleOptions{UseTriangleInequality: true})
	if err != nil {
		t.Fatal(err)
	}
	clus, err := ClusterBubbles(set, ClusterOptions{MinPts: 10})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := clus.RenderReachability(&buf, 300, 120); err != nil {
		t.Fatal(err)
	}
	if buf.Len() == 0 {
		t.Fatal("empty reachability PNG")
	}
	buf.Reset()
	if err := RenderScatter(&buf, db, clus.PointLabels, 200, 200); err != nil {
		t.Fatal(err)
	}
	if buf.Len() == 0 {
		t.Fatal("empty scatter PNG")
	}
	buf.Reset()
	if err := RenderBubbles(&buf, db, set, 200, 200); err != nil {
		t.Fatal(err)
	}
	if buf.Len() == 0 {
		t.Fatal("empty bubbles PNG")
	}
}

func TestAdaptiveCountThroughFacade(t *testing.T) {
	db := NewDB(2)
	populate(t, db, 800, 13)
	sum, err := NewSummarizer(db, SummarizerOptions{
		NumBubbles: 16,
		Seed:       14,
		Config:     SummarizerConfig{AdaptiveCount: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := NewRNG(15)
	var batch Batch
	for i := 0; i < 800; i++ {
		batch = append(batch, Update{Op: OpInsert, P: rng.GaussianPoint(Point{500, 500}, 2), Label: 2})
	}
	applied, err := batch.Apply(db)
	if err != nil {
		t.Fatal(err)
	}
	bs, err := sum.ApplyBatch(applied)
	if err != nil {
		t.Fatal(err)
	}
	if bs.BubblesAdded == 0 {
		t.Fatalf("adaptive growth inert through facade: %+v", bs)
	}
}
