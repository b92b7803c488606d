package optics

import (
	"bytes"
	"math"
	"testing"

	"incbubbles/internal/bubble"
	"incbubbles/internal/dataset"
	"incbubbles/internal/kdtree"
	"incbubbles/internal/stats"
	"incbubbles/internal/vecmath"
)

func twoClusterItems(t *testing.T, perCluster int, seed int64) []kdtree.Item {
	t.Helper()
	rng := stats.NewRNG(seed)
	items := make([]kdtree.Item, 0, 2*perCluster)
	for i := 0; i < perCluster; i++ {
		items = append(items, kdtree.Item{ID: uint64(i), P: rng.GaussianPoint(vecmath.Point{0, 0}, 1)})
	}
	for i := 0; i < perCluster; i++ {
		items = append(items, kdtree.Item{ID: uint64(perCluster + i), P: rng.GaussianPoint(vecmath.Point{100, 100}, 1)})
	}
	return items
}

func TestSeedQueue(t *testing.T) {
	reach := []float64{5, 1, 3, 2, 4}
	q := newSeedQueue(5, reach)
	for i := 0; i < 5; i++ {
		q.push(i)
	}
	if !q.contains(3) {
		t.Fatal("contains broken")
	}
	// Decrease key of object 0 to the minimum.
	reach[0] = 0.5
	q.decrease(0)
	want := []int{0, 1, 3, 2, 4}
	for _, w := range want {
		if got := q.pop(); got != w {
			t.Fatalf("pop=%d want %d", got, w)
		}
	}
	if q.len() != 0 {
		t.Fatalf("len=%d", q.len())
	}
	// A drained queue holds nothing and serves the next component.
	for i := 0; i < 5; i++ {
		if q.contains(i) {
			t.Fatalf("drained queue still contains %d", i)
		}
	}
	reach[4], reach[2] = 0, 9
	q.push(2)
	q.push(4)
	if got := q.pop(); got != 4 || !q.contains(2) || q.contains(4) {
		t.Fatalf("reused queue: pop=%d contains(2)=%v contains(4)=%v", got, q.contains(2), q.contains(4))
	}
}

func TestSeedQueueTieBreak(t *testing.T) {
	reach := []float64{1, 1, 1}
	q := newSeedQueue(3, reach)
	q.push(2)
	q.push(0)
	q.push(1)
	if got := q.pop(); got != 0 {
		t.Fatalf("tie break pop=%d", got)
	}
}

func TestRunValidation(t *testing.T) {
	items := twoClusterItems(t, 10, 1)
	ps, err := NewPointSpace(items)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(nil, Params{MinPts: 5}); err == nil {
		t.Error("nil space accepted")
	}
	if _, err := Run(ps, Params{MinPts: 0}); err == nil {
		t.Error("MinPts=0 accepted")
	}
	if _, err := Run(ps, Params{MinPts: 5, Eps: -1}); err == nil {
		t.Error("negative eps accepted")
	}
	if _, err := Run(ps, Params{MinPts: 5, Eps: math.NaN()}); err == nil {
		t.Error("NaN eps accepted")
	}
	if _, err := NewPointSpace(nil); err == nil {
		t.Error("empty point space accepted")
	}
	if _, err := NewPointSpace([]kdtree.Item{{ID: 1, P: vecmath.Point{0}}, {ID: 1, P: vecmath.Point{1}}}); err == nil {
		t.Error("duplicate IDs accepted")
	}
}

func TestPointOrderingSeparatesClusters(t *testing.T) {
	items := twoClusterItems(t, 100, 2)
	ps, err := NewPointSpace(items)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(ps, Params{MinPts: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Order) != 200 {
		t.Fatalf("order length=%d", len(res.Order))
	}
	// Every object appears exactly once.
	seen := map[int]bool{}
	for _, e := range res.Order {
		if seen[e.Obj] {
			t.Fatalf("object %d emitted twice", e.Obj)
		}
		seen[e.Obj] = true
	}
	// The two clusters are 100 apart with σ=1: exactly two entries should
	// have reachability > 20 (the jump into each cluster); the rest small.
	big := 0
	for _, e := range res.Order {
		if e.Reach > 20 || math.IsInf(e.Reach, 1) {
			big++
		}
	}
	if big != 2 {
		t.Fatalf("expected 2 cluster-boundary bars, got %d", big)
	}
	// Cluster membership is contiguous in the ordering: once we cross the
	// second boundary we must never see the first cluster again.
	var blocks []int
	cur := -1
	for _, e := range res.Order {
		side := 0
		if items[e.Obj].P[0] > 50 {
			side = 1
		}
		if side != cur {
			blocks = append(blocks, side)
			cur = side
		}
	}
	if len(blocks) != 2 {
		t.Fatalf("ordering interleaves clusters: blocks=%v", blocks)
	}
}

func TestRunDeterministic(t *testing.T) {
	items := twoClusterItems(t, 50, 3)
	run := func() []Entry {
		ps, _ := NewPointSpace(items)
		res, err := Run(ps, Params{MinPts: 4})
		if err != nil {
			t.Fatal(err)
		}
		return res.Order
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic at %d: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestEpsTruncatesReachability(t *testing.T) {
	items := twoClusterItems(t, 50, 4)
	ps, _ := NewPointSpace(items)
	res, err := Run(ps, Params{MinPts: 4, Eps: 10})
	if err != nil {
		t.Fatal(err)
	}
	// With eps=10 the two clusters are separate components: two Inf bars.
	inf := 0
	for _, e := range res.Order {
		if math.IsInf(e.Reach, 1) {
			inf++
		}
	}
	if inf != 2 {
		t.Fatalf("expected 2 infinite bars with small eps, got %d", inf)
	}
}

func TestPointCoreDist(t *testing.T) {
	items := []kdtree.Item{
		{ID: 0, P: vecmath.Point{0}},
		{ID: 1, P: vecmath.Point{1}},
		{ID: 2, P: vecmath.Point{2}},
	}
	ps, _ := NewPointSpace(items)
	nb := ps.Neighbors(0, math.Inf(1))
	if got := ps.CoreDist(0, nb, 2); got != 1 {
		t.Fatalf("CoreDist minPts=2: %v", got)
	}
	if got := ps.CoreDist(0, nb, 3); got != 2 {
		t.Fatalf("CoreDist minPts=3: %v", got)
	}
	if got := ps.CoreDist(0, nb, 4); !math.IsInf(got, 1) {
		t.Fatalf("CoreDist minPts=4: %v", got)
	}
	if ps.Weight(0) != 1 || ps.ID(1) != 1 {
		t.Fatal("point space weight/id wrong")
	}
	if !ps.Point(2).Equal(vecmath.Point{2}) {
		t.Fatal("Point accessor wrong")
	}
}

func buildBubbleSet(t *testing.T, seed int64) (*bubble.Set, *dataset.DB) {
	t.Helper()
	rng := stats.NewRNG(seed)
	db := dataset.MustNew(2)
	for i := 0; i < 400; i++ {
		db.Insert(rng.GaussianPoint(vecmath.Point{0, 0}, 2), 0)
	}
	for i := 0; i < 400; i++ {
		db.Insert(rng.GaussianPoint(vecmath.Point{80, 80}, 2), 1)
	}
	set, err := bubble.Build(db, 30, bubble.Options{
		UseTriangleInequality: true,
		RNG:                   stats.NewRNG(seed + 1),
	})
	if err != nil {
		t.Fatal(err)
	}
	return set, db
}

func TestBubbleSpace(t *testing.T) {
	set, db := buildBubbleSet(t, 5)
	bs, err := NewBubbleSpace(set)
	if err != nil {
		t.Fatal(err)
	}
	if bs.Len() == 0 || bs.Len() > set.Len() {
		t.Fatalf("space Len=%d", bs.Len())
	}
	var w int
	for i := 0; i < bs.Len(); i++ {
		w += bs.Weight(i)
	}
	if w != db.Len() {
		t.Fatalf("weights sum to %d want %d", w, db.Len())
	}
	// Row i holds every object exactly once, at its matrix distance, with
	// itself at 0; the matrix is symmetric.
	dm := bs.DistanceMatrix()
	for i := 0; i < bs.Len(); i++ {
		nb := bs.Neighbors(i, math.Inf(1))
		if len(nb) != bs.Len() {
			t.Fatalf("row %d holds %d entries, want %d", i, len(nb), bs.Len())
		}
		seen := make([]bool, bs.Len())
		for _, e := range nb {
			if seen[e.Idx] {
				t.Fatalf("row %d lists object %d twice", i, e.Idx)
			}
			seen[e.Idx] = true
			if e.Dist != dm[i][e.Idx] || e.Dist != dm[e.Idx][i] {
				t.Fatalf("row %d: object %d at %v, matrix holds %v and %v", i, e.Idx, e.Dist, dm[i][e.Idx], dm[e.Idx][i])
			}
			if e.Idx == i && e.Dist != 0 {
				t.Fatalf("row %d: self at %v", i, e.Dist)
			}
		}
	}
}

func TestBubbleDistanceFormula(t *testing.T) {
	// Two singleton-free bubbles with controlled stats: use real sets.
	set, _ := buildBubbleSet(t, 6)
	bs, err := NewBubbleSpace(set)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < bs.Len(); i++ {
		for j := i + 1; j < bs.Len(); j++ {
			d := bs.row(i)[j].Dist
			if d < 0 {
				t.Fatalf("negative bubble distance %v", d)
			}
			dRep := vecmath.Distance(bs.reps[i], bs.reps[j])
			sep := dRep - (bs.extents[i] + bs.extents[j])
			var want float64
			if sep >= 0 {
				want = sep + bs.nn1[i] + bs.nn1[j]
			} else {
				want = math.Max(bs.nn1[i], bs.nn1[j])
			}
			if math.Abs(d-want) > 1e-12 {
				t.Fatalf("distance formula mismatch at (%d,%d)", i, j)
			}
		}
	}
}

func TestBubbleOrderingSeparatesClusters(t *testing.T) {
	set, _ := buildBubbleSet(t, 7)
	bs, err := NewBubbleSpace(set)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(bs, Params{MinPts: 10})
	if err != nil {
		t.Fatal(err)
	}
	// Reps are at (0,0) and (80,80): once the ordering jumps between the
	// two regions there must be exactly one transition (two blocks).
	var blocks []int
	cur := -1
	for _, e := range res.Order {
		rep := set.Bubble(bs.BubbleIndex(e.Obj)).Rep()
		side := 0
		if rep[0] > 40 {
			side = 1
		}
		if side != cur {
			blocks = append(blocks, side)
			cur = side
		}
	}
	if len(blocks) != 2 {
		t.Fatalf("bubble ordering interleaves clusters: %v", blocks)
	}
	// One big reachability jump into the second cluster.
	big := 0
	for _, e := range res.Order {
		if e.Reach > 30 || math.IsInf(e.Reach, 1) {
			big++
		}
	}
	if big != 2 {
		t.Fatalf("expected 2 boundary bars, got %d", big)
	}
}

func TestBubbleCoreDistSmallBubble(t *testing.T) {
	set, _ := buildBubbleSet(t, 8)
	bs, err := NewBubbleSpace(set)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < bs.Len(); i++ {
		nb := bs.Neighbors(i, math.Inf(1))
		// MinPts below own population: core dist = own nnDist estimate.
		mp := bs.Weight(i)
		if mp > 1 {
			got := bs.CoreDist(i, nb, mp)
			if math.Abs(got-bs.NNDist(i, mp)) > 1e-12 {
				t.Fatalf("core dist should be nnDist for minPts ≤ n")
			}
		}
		// Gigantic MinPts: falls back to neighbour accumulation and stays
		// finite because total weight covers it, or Inf if not.
		got := bs.CoreDist(i, nb, 10_000_000)
		if !math.IsInf(got, 1) {
			t.Fatalf("impossible MinPts produced finite core dist %v", got)
		}
	}
}

func TestExpandAndPlot(t *testing.T) {
	set, db := buildBubbleSet(t, 9)
	bs, _ := NewBubbleSpace(set)
	res, err := Run(bs, Params{MinPts: 10})
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalWeight() != db.Len() {
		t.Fatalf("TotalWeight=%d want %d", res.TotalWeight(), db.Len())
	}
	exp := res.Expand(func(obj int) float64 { return bs.NNDist(obj, res.MinPts) })
	if len(exp) != db.Len() {
		t.Fatalf("Expand len=%d want %d", len(exp), db.Len())
	}
	var buf bytes.Buffer
	if err := res.WritePlot(&buf, 40); err != nil {
		t.Fatal(err)
	}
	if buf.Len() == 0 {
		t.Fatal("empty plot")
	}
	if got := len(res.Reachabilities()); got != len(res.Order) {
		t.Fatalf("Reachabilities len=%d", got)
	}
}

func TestEmptyBubblesExcluded(t *testing.T) {
	set, _ := buildBubbleSet(t, 10)
	// Drain one bubble.
	ids, err := set.TakeMembers(0)
	if err != nil {
		t.Fatal(err)
	}
	_ = ids // points now untracked; fine for this test
	bs, err := NewBubbleSpace(set)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < bs.Len(); i++ {
		if bs.BubbleIndex(i) == 0 {
			t.Fatal("empty bubble included in space")
		}
	}
}
