package incbubbles

import (
	"testing"
)

// populate fills a DB with two separable clusters via the public API only.
func populate(t *testing.T, db *DB, n int, seed int64) {
	t.Helper()
	rng := NewRNG(seed)
	for i := 0; i < n/2; i++ {
		if _, err := db.Insert(rng.GaussianPoint(Point{10, 10}, 2), 0); err != nil {
			t.Fatal(err)
		}
	}
	for i := n / 2; i < n; i++ {
		if _, err := db.Insert(rng.GaussianPoint(Point{90, 90}, 2), 1); err != nil {
			t.Fatal(err)
		}
	}
}

func TestPublicAPIEndToEnd(t *testing.T) {
	db := NewDB(2)
	populate(t, db, 1000, 1)

	sum, err := NewSummarizer(db, SummarizerOptions{NumBubbles: 30, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}

	// Apply a hand-built batch through the public types.
	rng := NewRNG(3)
	var batch Batch
	victims, err := db.RandomIDs(rng, 40)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range victims {
		batch = append(batch, Update{Op: OpDelete, ID: id})
	}
	for i := 0; i < 40; i++ {
		batch = append(batch, Update{Op: OpInsert, P: rng.GaussianPoint(Point{10, 10}, 2), Label: 0})
	}
	applied, err := batch.Apply(db)
	if err != nil {
		t.Fatal(err)
	}
	bs, err := sum.ApplyBatch(applied)
	if err != nil {
		t.Fatal(err)
	}
	if bs.Deleted != 40 || bs.Inserted != 40 {
		t.Fatalf("batch stats: %+v", bs)
	}

	clus, err := ClusterBubbles(sum.Set(), ClusterOptions{MinPts: 10})
	if err != nil {
		t.Fatal(err)
	}
	if clus.NumClusters() != 2 {
		t.Fatalf("clusters=%d want 2", clus.NumClusters())
	}
	if len(clus.PointLabels) != db.Len() {
		t.Fatalf("point labels=%d want %d", len(clus.PointLabels), db.Len())
	}
	f, err := FScore(db, clus.PointLabels)
	if err != nil {
		t.Fatal(err)
	}
	if f < 0.95 {
		t.Fatalf("F=%v on trivially separable data", f)
	}
}

func TestBuildBubblesBaseline(t *testing.T) {
	db := NewDB(2)
	populate(t, db, 600, 4)
	set, err := BuildBubbles(db, 20, BubbleOptions{UseTriangleInequality: true})
	if err != nil {
		t.Fatal(err)
	}
	if set.Len() != 20 || set.OwnedPoints() != 600 {
		t.Fatalf("set: len=%d owned=%d", set.Len(), set.OwnedPoints())
	}
	clus, err := ClusterBubbles(set, ClusterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if clus.NumClusters() != 2 {
		t.Fatalf("clusters=%d", clus.NumClusters())
	}
}

func TestScenarioThroughFacade(t *testing.T) {
	sc, err := NewScenario(ScenarioConfig{Kind: ScenarioComplex, InitialPoints: 800, Batches: 3, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	sum, err := NewSummarizer(sc.DB(), SummarizerOptions{NumBubbles: 20, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		b, err := sc.NextBatch()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sum.ApplyBatch(b); err != nil {
			t.Fatal(err)
		}
	}
	if sum.Batches() != 3 {
		t.Fatalf("Batches=%d", sum.Batches())
	}
	cl := sum.Classify()
	if len(cl.Betas) != 20 {
		t.Fatalf("classification over %d bubbles", len(cl.Betas))
	}
}

func TestSummarizerDefaultsTriangleInequality(t *testing.T) {
	db := NewDB(2)
	populate(t, db, 200, 7)
	sum, err := NewSummarizer(db, SummarizerOptions{NumBubbles: 10})
	if err != nil {
		t.Fatal(err)
	}
	if !sum.Set().Options().UseTriangleInequality {
		t.Fatal("facade did not default pruning on")
	}
}
