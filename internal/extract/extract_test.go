package extract

import (
	"math"
	"testing"

	"incbubbles/internal/bubble"
	"incbubbles/internal/dataset"
	"incbubbles/internal/kdtree"
	"incbubbles/internal/optics"
	"incbubbles/internal/stats"
	"incbubbles/internal/vecmath"
)

// mkEntries builds an ordering with the given reachabilities, weight 1,
// core = reach (good enough for threshold extraction tests).
func mkEntries(reaches []float64) []optics.Entry {
	out := make([]optics.Entry, len(reaches))
	for i, r := range reaches {
		out[i] = optics.Entry{Obj: i, ID: uint64(i), Reach: r, Core: r / 2, Weight: 1}
	}
	return out
}

func TestTreeEmptyAndTrivial(t *testing.T) {
	if Tree(nil, Params{}) != nil {
		t.Fatal("Tree(nil) != nil")
	}
	root := Tree(mkEntries([]float64{math.Inf(1), 1, 1, 1}), Params{})
	if root == nil || !root.IsLeaf() {
		t.Fatalf("flat plot should be a single leaf: %+v", root)
	}
}

func TestTreeTwoValleys(t *testing.T) {
	// Plot: inf, low plateau, huge bar, low plateau → two leaf clusters.
	reaches := []float64{math.Inf(1), 1, 1, 1, 1, 1, 50, 1, 1, 1, 1, 1}
	root := Tree(mkEntries(reaches), Params{MinClusterWeight: 2})
	if root == nil {
		t.Fatal("nil tree")
	}
	leaves := root.Leaves()
	if len(leaves) != 2 {
		t.Fatalf("leaves=%d want 2 (%+v)", len(leaves), leaves)
	}
	if leaves[0].Start != 0 || leaves[0].End != 6 {
		t.Fatalf("left leaf=%+v", leaves[0])
	}
	if leaves[1].Start != 6 || leaves[1].End != 12 {
		t.Fatalf("right leaf=%+v", leaves[1])
	}
	labels := Labels(mkEntries(reaches), root)
	// The split object opens the right cluster: it carries that label.
	if labels[6] != 1 {
		t.Fatalf("split bar labelled %d want 1", labels[6])
	}
	if labels[0] != 0 || labels[11] != 1 {
		t.Fatalf("labels=%v", labels)
	}
}

func TestTreeInsignificantMaximumIgnored(t *testing.T) {
	// A bump barely above its flanks: avg/flank ratio > 0.75 → no split.
	reaches := []float64{math.Inf(1), 10, 10, 10, 11, 10, 10, 10}
	root := Tree(mkEntries(reaches), Params{MinClusterWeight: 2})
	if !root.IsLeaf() {
		t.Fatalf("insignificant bump split the node: %+v", root)
	}
}

func TestTreeMinClusterWeightPrunes(t *testing.T) {
	// Significant split but right side too small → stays leaf-less child.
	reaches := []float64{math.Inf(1), 1, 1, 1, 1, 1, 1, 1, 50, 1}
	root := Tree(mkEntries(reaches), Params{MinClusterWeight: 3})
	leaves := root.Leaves()
	if len(leaves) != 1 {
		t.Fatalf("leaves=%d want 1", len(leaves))
	}
	if leaves[0].End != 8 {
		t.Fatalf("surviving leaf=%+v", leaves[0])
	}
	labels := Labels(mkEntries(reaches), root)
	if labels[9] != Noise {
		t.Fatal("pruned region not noise")
	}
}

func TestTreeWeightsCount(t *testing.T) {
	// Same shape as the pruning test, but the small right region carries
	// heavy bubbles, so it survives as a cluster.
	entries := mkEntries([]float64{math.Inf(1), 1, 1, 1, 1, 1, 1, 1, 50, 1})
	entries[9].Weight = 100
	root := Tree(entries, Params{MinClusterWeight: 3})
	// Right region weight is 100 ≥ 3 but it is a single entry; left is 8.
	leaves := root.Leaves()
	if len(leaves) != 2 {
		t.Fatalf("weighted leaves=%d want 2", len(leaves))
	}
}

func TestTreeNestedHierarchy(t *testing.T) {
	// Two macro clusters; the first splits again into two micro clusters.
	reaches := []float64{
		math.Inf(1),
		1, 1, 1, 5, 1, 1, 1, // micro split at 5 inside first macro
		60, // macro split
		1, 1, 1, 1, 1, 1,
	}
	root := Tree(mkEntries(reaches), Params{MinClusterWeight: 2})
	leaves := root.Leaves()
	if len(leaves) != 3 {
		t.Fatalf("leaves=%d want 3", len(leaves))
	}
}

func TestExtractTreeConvenience(t *testing.T) {
	reaches := []float64{math.Inf(1), 1, 1, 1, 50, 1, 1, 1}
	labels := ExtractTree(mkEntries(reaches), Params{MinClusterWeight: 2})
	if labels[1] == Noise || labels[5] == Noise || labels[1] == labels[5] {
		t.Fatalf("labels=%v", labels)
	}
}

func TestEndToEndPointExtraction(t *testing.T) {
	rng := stats.NewRNG(11)
	var items []kdtree.Item
	centers := []vecmath.Point{{0, 0}, {60, 0}, {0, 60}}
	id := uint64(0)
	for _, c := range centers {
		for i := 0; i < 150; i++ {
			items = append(items, kdtree.Item{ID: id, P: rng.GaussianPoint(c, 2)})
			id++
		}
	}
	ps, err := optics.NewPointSpace(items)
	if err != nil {
		t.Fatal(err)
	}
	res, err := optics.Run(ps, optics.Params{MinPts: 8})
	if err != nil {
		t.Fatal(err)
	}
	labels := ExtractTree(res.Order, Params{})
	found := map[int]int{}
	for _, l := range labels {
		if l != Noise {
			found[l]++
		}
	}
	if len(found) != 3 {
		t.Fatalf("found %d clusters want 3 (%v)", len(found), found)
	}
	for l, n := range found {
		if n < 100 {
			t.Fatalf("cluster %d only %d entries", l, n)
		}
	}
}

// End-to-end on bubbles: weighted extraction finds both clusters.
func TestEndToEndBubbleExtraction(t *testing.T) {
	rng := stats.NewRNG(12)
	db := dataset.MustNew(2)
	for i := 0; i < 500; i++ {
		db.Insert(rng.GaussianPoint(vecmath.Point{0, 0}, 2), 0)
	}
	for i := 0; i < 500; i++ {
		db.Insert(rng.GaussianPoint(vecmath.Point{70, 70}, 2), 1)
	}
	set, err := bubble.Build(db, 40, bubble.Options{UseTriangleInequality: true, RNG: stats.NewRNG(13)})
	if err != nil {
		t.Fatal(err)
	}
	bs, err := optics.NewBubbleSpace(set)
	if err != nil {
		t.Fatal(err)
	}
	res, err := optics.Run(bs, optics.Params{MinPts: 10})
	if err != nil {
		t.Fatal(err)
	}
	labels := ExtractTree(res.Order, Params{})
	// Count points (weights) per extracted cluster.
	weights := map[int]int{}
	for i, l := range labels {
		if l != Noise {
			weights[l] += res.Order[i].Weight
		}
	}
	if len(weights) != 2 {
		t.Fatalf("found %d bubble clusters want 2 (%v)", len(weights), weights)
	}
	for l, w := range weights {
		if w < 350 {
			t.Fatalf("cluster %d covers only %d points", l, w)
		}
	}
}
