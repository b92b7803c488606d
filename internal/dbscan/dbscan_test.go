package dbscan

import (
	"testing"

	"incbubbles/internal/dataset"
	"incbubbles/internal/stats"
	"incbubbles/internal/vecmath"
)

func TestParamsValidation(t *testing.T) {
	db := dataset.MustNew(2)
	db.Insert(vecmath.Point{0, 0}, 0)
	if _, err := Static(db, Params{Eps: 0, MinPts: 3}, nil); err == nil {
		t.Error("eps=0 accepted")
	}
	if _, err := Static(db, Params{Eps: 1, MinPts: 0}, nil); err == nil {
		t.Error("MinPts=0 accepted")
	}
	if _, err := NewIncremental(0, Params{Eps: 1, MinPts: 3}, nil); err == nil {
		t.Error("dim=0 accepted")
	}
}

func TestStaticTwoClustersPlusNoise(t *testing.T) {
	rng := stats.NewRNG(1)
	db := dataset.MustNew(2)
	for i := 0; i < 200; i++ {
		db.Insert(rng.GaussianPoint(vecmath.Point{0, 0}, 1), 0)
	}
	for i := 0; i < 200; i++ {
		db.Insert(rng.GaussianPoint(vecmath.Point{50, 50}, 1), 1)
	}
	lone, _ := db.Insert(vecmath.Point{25, 25}, dataset.Noise)

	var counter vecmath.Counter
	labels, err := Static(db, Params{Eps: 1.5, MinPts: 5}, &counter)
	if err != nil {
		t.Fatal(err)
	}
	if counter.Computed() == 0 {
		t.Fatal("distance counting inert")
	}
	if labels[lone] != Noise {
		t.Fatalf("isolated point labelled %d", labels[lone])
	}
	clusters := map[int]map[int]int{} // found label -> truth label -> count
	db.ForEach(func(r dataset.Record) {
		l := labels[r.ID]
		if l == Noise {
			return
		}
		if clusters[l] == nil {
			clusters[l] = map[int]int{}
		}
		clusters[l][r.Label]++
	})
	if len(clusters) != 2 {
		t.Fatalf("found %d clusters want 2", len(clusters))
	}
	for l, truth := range clusters {
		if len(truth) != 1 {
			t.Fatalf("cluster %d mixes ground truths: %v", l, truth)
		}
	}
}

func TestStaticEmptyDB(t *testing.T) {
	db := dataset.MustNew(2)
	labels, err := Static(db, Params{Eps: 1, MinPts: 3}, nil)
	if err != nil || len(labels) != 0 {
		t.Fatalf("empty static: %v %v", labels, err)
	}
}

func TestGridAndLinearIndexAgree(t *testing.T) {
	rng := stats.NewRNG(2)
	grid := newGridIndex(2, 1.5)
	lin := &linearIndex{points: make(map[dataset.PointID]vecmath.Point)}
	pts := map[dataset.PointID]vecmath.Point{}
	for i := 0; i < 300; i++ {
		id := dataset.PointID(i)
		p := rng.UniformPoint(2, 0, 20)
		grid.insert(id, p)
		lin.insert(id, p)
		pts[id] = p
	}
	// Delete a third.
	for i := 0; i < 300; i += 3 {
		grid.remove(dataset.PointID(i))
		lin.remove(dataset.PointID(i))
		delete(pts, dataset.PointID(i))
	}
	if grid.len() != lin.len() {
		t.Fatalf("lens differ: %d vs %d", grid.len(), lin.len())
	}
	for trial := 0; trial < 50; trial++ {
		q := rng.UniformPoint(2, 0, 20)
		collect := func(ix rangeIndex) map[dataset.PointID]bool {
			out := map[dataset.PointID]bool{}
			ix.neighbors(q, func(id dataset.PointID, p vecmath.Point) {
				if vecmath.Distance(q, p) <= 1.5 {
					out[id] = true
				}
			})
			return out
		}
		g, l := collect(grid), collect(lin)
		if len(g) != len(l) {
			t.Fatalf("neighbor sets differ: %d vs %d", len(g), len(l))
		}
		for id := range g {
			if !l[id] {
				t.Fatalf("grid found %d, linear did not", id)
			}
		}
	}
}

func TestIncrementalBasicLifecycle(t *testing.T) {
	inc, err := NewIncremental(2, Params{Eps: 2, MinPts: 3}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Build a tight triple: all three become one cluster.
	for i, p := range []vecmath.Point{{0, 0}, {1, 0}, {0, 1}} {
		if err := inc.Insert(dataset.PointID(i), p); err != nil {
			t.Fatal(err)
		}
	}
	labels := inc.Labels()
	if labels[0] == Noise || labels[0] != labels[1] || labels[1] != labels[2] {
		t.Fatalf("triple not one cluster: %v", labels)
	}
	// A far point stays noise.
	inc.Insert(99, vecmath.Point{100, 100})
	if inc.Labels()[99] != Noise {
		t.Fatal("far point not noise")
	}
	// Duplicate and unknown ids rejected.
	if err := inc.Insert(0, vecmath.Point{0, 0}); err == nil {
		t.Fatal("duplicate insert accepted")
	}
	if err := inc.Delete(12345); err == nil {
		t.Fatal("unknown delete accepted")
	}
	if err := inc.Insert(100, vecmath.Point{0}); err == nil {
		t.Fatal("wrong-dim insert accepted")
	}
	// Delete one of the triple: nobody is core anymore (MinPts 3).
	if err := inc.Delete(1); err != nil {
		t.Fatal(err)
	}
	labels = inc.Labels()
	if labels[0] != Noise || labels[2] != Noise {
		t.Fatalf("after deletion: %v", labels)
	}
	if err := inc.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestIncrementalMergeAndSplit(t *testing.T) {
	inc, err := NewIncremental(2, Params{Eps: 1.5, MinPts: 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Two separate pairs.
	inc.Insert(0, vecmath.Point{0, 0})
	inc.Insert(1, vecmath.Point{1, 0})
	inc.Insert(2, vecmath.Point{10, 0})
	inc.Insert(3, vecmath.Point{11, 0})
	labels := inc.Labels()
	if labels[0] == labels[2] {
		t.Fatalf("separate pairs share a label: %v", labels)
	}
	// Bridge points merge them.
	bridgeIDs := []dataset.PointID{4, 5, 6, 7, 8, 9}
	for i, x := range []float64{2, 3.4, 4.8, 6.2, 7.6, 9} {
		inc.Insert(bridgeIDs[i], vecmath.Point{x, 0})
	}
	labels = inc.Labels()
	if labels[0] != labels[3] {
		t.Fatalf("bridge did not merge: %v", labels)
	}
	if err := inc.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Remove the bridge: the cluster must split again.
	for _, id := range bridgeIDs {
		if err := inc.Delete(id); err != nil {
			t.Fatal(err)
		}
	}
	labels = inc.Labels()
	if labels[0] != labels[1] || labels[2] != labels[3] {
		t.Fatalf("pairs broken after split: %v", labels)
	}
	if labels[0] == labels[2] {
		t.Fatalf("split not detected: %v", labels)
	}
	if err := inc.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// samePartition compares two clusterings as partitions over the same key
// set: noise must match exactly; clustered points must induce identical
// co-membership for core-deterministic pairs. Border assignment in DBSCAN
// is order-dependent, so only points whose labels are unambiguous — here
// approximated by requiring identical partitions over non-noise points
// with a tolerance list — are compared strictly. For the generator used
// in the property test below, ambiguous borders are rare; we compare
// partitions exactly and rely on the incremental/static tie-break both
// being "smallest reachable", which holds for these data.
func samePartition(a, b map[dataset.PointID]int) bool {
	if len(a) != len(b) {
		return false
	}
	// Noise sets must agree (noise status is deterministic in DBSCAN).
	for id, la := range a {
		lb, ok := b[id]
		if !ok {
			return false
		}
		if (la == Noise) != (lb == Noise) {
			return false
		}
	}
	// Co-membership must agree for non-noise points.
	repA := map[int]dataset.PointID{}
	mapped := map[dataset.PointID]dataset.PointID{}
	for id, la := range a {
		if la == Noise {
			continue
		}
		if r, ok := repA[la]; ok {
			mapped[id] = r
		} else {
			repA[la] = id
			mapped[id] = id
		}
	}
	// b-side grouping must map to identical representatives.
	groupB := map[int][]dataset.PointID{}
	for id, lb := range b {
		if lb == Noise {
			continue
		}
		groupB[lb] = append(groupB[lb], id)
	}
	for _, ids := range groupB {
		want := mapped[ids[0]]
		for _, id := range ids[1:] {
			if mapped[id] != want {
				return false
			}
		}
	}
	// And a-side groups must not be split in b.
	groupA := map[int][]dataset.PointID{}
	for id, la := range a {
		if la == Noise {
			continue
		}
		groupA[la] = append(groupA[la], id)
	}
	for _, ids := range groupA {
		want := b[ids[0]]
		for _, id := range ids[1:] {
			if b[id] != want {
				return false
			}
		}
	}
	return true
}

// The gold-standard test: IncrementalDBSCAN must agree with a from-scratch
// Static run after every update, across random churn.
func TestIncrementalMatchesStatic(t *testing.T) {
	for _, seed := range []int64{3, 4, 5} {
		rng := stats.NewRNG(seed)
		params := Params{Eps: 2.5, MinPts: 4}
		inc, err := NewIncremental(2, params, nil)
		if err != nil {
			t.Fatal(err)
		}
		db := dataset.MustNew(2)
		centers := []vecmath.Point{{0, 0}, {15, 15}, {30, 0}}
		for step := 0; step < 220; step++ {
			if db.Len() == 0 || rng.Float64() < 0.65 {
				var p vecmath.Point
				if rng.Float64() < 0.1 {
					p = rng.UniformPoint(2, -5, 35) // noise
				} else {
					p = rng.GaussianPoint(centers[rng.Intn(3)], 1.2)
				}
				id, err := db.Insert(p, 0)
				if err != nil {
					t.Fatal(err)
				}
				if err := inc.Insert(id, p); err != nil {
					t.Fatal(err)
				}
			} else {
				id, err := db.RandomID(rng)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := db.Delete(id); err != nil {
					t.Fatal(err)
				}
				if err := inc.Delete(id); err != nil {
					t.Fatal(err)
				}
			}
			if step%20 == 19 {
				if err := inc.CheckInvariants(); err != nil {
					t.Fatalf("seed %d step %d: %v", seed, step, err)
				}
				static, err := Static(db, params, nil)
				if err != nil {
					t.Fatal(err)
				}
				if !samePartition(inc.Labels(), static) {
					t.Fatalf("seed %d step %d: incremental diverged from static", seed, step)
				}
			}
		}
	}
}

func TestDeferredSplitResolution(t *testing.T) {
	inc, err := NewIncremental(2, Params{Eps: 1.5, MinPts: 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Chain A - bridge - B.
	coords := []vecmath.Point{{0, 0}, {1, 0}, {2.4, 0}, {3.8, 0}, {5.2, 0}, {6.6, 0}}
	for i, p := range coords {
		if err := inc.Insert(dataset.PointID(i), p); err != nil {
			t.Fatal(err)
		}
	}
	if l := inc.Labels(); l[0] != l[5] {
		t.Fatalf("chain not one cluster: %v", l)
	}
	// Remove interior bridge points: marks the cluster dirty rather than
	// recomputing immediately.
	if err := inc.Delete(2); err != nil {
		t.Fatal(err)
	}
	if err := inc.Delete(3); err != nil {
		t.Fatal(err)
	}
	if len(inc.dirty) == 0 {
		t.Fatal("split deletions did not defer a dirty check")
	}
	// Reading resolves: the chain is now two components.
	l := inc.Labels()
	if len(inc.dirty) != 0 {
		t.Fatal("Labels did not flush")
	}
	if l[0] != l[1] || l[4] != l[5] || l[0] == l[4] {
		t.Fatalf("split not resolved: %v", l)
	}
	if err := inc.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestDirtyMergePropagation(t *testing.T) {
	inc, err := NewIncremental(2, Params{Eps: 1.5, MinPts: 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Cluster with a removable bridge.
	coords := []vecmath.Point{{0, 0}, {1, 0}, {2.4, 0}, {3.8, 0}, {4.8, 0}}
	for i, p := range coords {
		if err := inc.Insert(dataset.PointID(i), p); err != nil {
			t.Fatal(err)
		}
	}
	if err := inc.Delete(2); err != nil { // suspected split → dirty
		t.Fatal(err)
	}
	// Insert into one fragment before any read: the merge target must
	// inherit the dirty flag, and the final read must still detect the
	// split correctly.
	if err := inc.Insert(10, vecmath.Point{0.5, 0.5}); err != nil {
		t.Fatal(err)
	}
	l := inc.Labels()
	if l[0] == l[4] {
		t.Fatalf("stale merge across split: %v", l)
	}
	if l[0] != l[10] {
		t.Fatalf("inserted point detached: %v", l)
	}
	if err := inc.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestIncrementalHighDimUsesLinearIndex(t *testing.T) {
	params := Params{Eps: 5, MinPts: 3}
	inc, err := NewIncremental(10, params, nil)
	if err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRNG(6)
	db := dataset.MustNew(10)
	for i := 0; i < 120; i++ {
		p := rng.GaussianPoint(make(vecmath.Point, 10), 1)
		id, _ := db.Insert(p, 0)
		if err := inc.Insert(id, p); err != nil {
			t.Fatal(err)
		}
	}
	static, err := Static(db, params, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !samePartition(inc.Labels(), static) {
		t.Fatal("high-dim incremental diverged from static")
	}
}
