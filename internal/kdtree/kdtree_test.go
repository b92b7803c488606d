package kdtree

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"incbubbles/internal/stats"
	"incbubbles/internal/vecmath"
)

func randomItems(rng *stats.RNG, n, d int) []Item {
	items := make([]Item, n)
	for i := range items {
		items[i] = Item{ID: uint64(i), P: rng.GaussianPoint(make(vecmath.Point, d), 10)}
	}
	return items
}

func bruteRange(items []Item, q vecmath.Point, eps float64) []Neighbor {
	var out []Neighbor
	for _, it := range items {
		if d := vecmath.Distance(q, it.P); d <= eps {
			out = append(out, Neighbor{Item: it, Dist: d})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Dist < out[j].Dist })
	return out
}

func bruteKNN(items []Item, q vecmath.Point, k int) []Neighbor {
	all := bruteRange(items, q, math.Inf(1))
	if len(all) > k {
		all = all[:k]
	}
	return all
}

func TestBuildValidation(t *testing.T) {
	if _, err := Build(nil); err != ErrEmpty {
		t.Errorf("Build(nil) err=%v", err)
	}
	if _, err := Build([]Item{{P: vecmath.Point{1}}, {P: vecmath.Point{1, 2}}}); err == nil {
		t.Error("mixed dims accepted")
	}
	tr, err := Build([]Item{{ID: 1, P: vecmath.Point{1, 2}}})
	if err != nil || tr.Len() != 1 {
		t.Fatalf("Build singleton: %v %v", tr, err)
	}
}

func TestRangeBasic(t *testing.T) {
	items := []Item{
		{ID: 0, P: vecmath.Point{0, 0}},
		{ID: 1, P: vecmath.Point{1, 0}},
		{ID: 2, P: vecmath.Point{5, 5}},
	}
	tr, _ := Build(items)
	got := tr.Range(vecmath.Point{0, 0}, 1.5)
	if len(got) != 2 {
		t.Fatalf("Range returned %d items", len(got))
	}
	if got[0].Item.ID != 0 || got[1].Item.ID != 1 {
		t.Fatalf("Range order wrong: %+v", got)
	}
	if tr.Range(vecmath.Point{0, 0}, -1) != nil {
		t.Error("negative eps returned items")
	}
	// Inclusive boundary.
	got = tr.Range(vecmath.Point{0, 0}, 1.0)
	if len(got) != 2 {
		t.Fatalf("boundary not inclusive: %d", len(got))
	}
}

func TestKNNBasic(t *testing.T) {
	items := []Item{
		{ID: 0, P: vecmath.Point{0, 0}},
		{ID: 1, P: vecmath.Point{1, 0}},
		{ID: 2, P: vecmath.Point{5, 5}},
	}
	tr, _ := Build(items)
	got := tr.KNN(vecmath.Point{0.2, 0}, 2)
	if len(got) != 2 || got[0].Item.ID != 0 || got[1].Item.ID != 1 {
		t.Fatalf("KNN=%+v", got)
	}
	if tr.KNN(vecmath.Point{0, 0}, 0) != nil {
		t.Error("KNN(0) returned items")
	}
	if got := tr.KNN(vecmath.Point{0, 0}, 10); len(got) != 3 {
		t.Errorf("KNN(k>n) len=%d", len(got))
	}
}

// Property: Range matches brute force exactly (same IDs, same order by
// distance with stable handling of near-ties).
func TestRangeMatchesBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		rng := stats.NewRNG(seed)
		d := 1 + rng.Intn(4)
		items := randomItems(rng, 1+rng.Intn(200), d)
		tr, err := Build(items)
		if err != nil {
			return false
		}
		for trial := 0; trial < 10; trial++ {
			q := rng.GaussianPoint(make(vecmath.Point, d), 12)
			eps := rng.Uniform(0, 15)
			got := tr.Range(q, eps)
			want := bruteRange(items, q, eps)
			if len(got) != len(want) {
				return false
			}
			gotIDs := map[uint64]bool{}
			for _, n := range got {
				gotIDs[n.Item.ID] = true
			}
			for _, n := range want {
				if !gotIDs[n.Item.ID] {
					return false
				}
			}
			for i := 1; i < len(got); i++ {
				if got[i].Dist < got[i-1].Dist {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: KNN matches brute force distances.
func TestKNNMatchesBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		rng := stats.NewRNG(seed)
		d := 1 + rng.Intn(4)
		items := randomItems(rng, 1+rng.Intn(200), d)
		tr, err := Build(items)
		if err != nil {
			return false
		}
		for trial := 0; trial < 10; trial++ {
			q := rng.GaussianPoint(make(vecmath.Point, d), 12)
			k := 1 + rng.Intn(12)
			got := tr.KNN(q, k)
			want := bruteKNN(items, q, k)
			if len(got) != len(want) {
				return false
			}
			for i := range got {
				if math.Abs(got[i].Dist-want[i].Dist) > 1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestDuplicatePoints(t *testing.T) {
	items := make([]Item, 10)
	for i := range items {
		items[i] = Item{ID: uint64(i), P: vecmath.Point{1, 1}}
	}
	tr, _ := Build(items)
	if got := tr.Range(vecmath.Point{1, 1}, 0); len(got) != 10 {
		t.Fatalf("duplicates in range: %d", len(got))
	}
	if got := tr.KNN(vecmath.Point{1, 1}, 5); len(got) != 5 {
		t.Fatalf("duplicates in KNN: %d", len(got))
	}
}

func TestBuildDoesNotMutateInput(t *testing.T) {
	items := []Item{
		{ID: 0, P: vecmath.Point{3, 0}},
		{ID: 1, P: vecmath.Point{1, 0}},
		{ID: 2, P: vecmath.Point{2, 0}},
	}
	if _, err := Build(items); err != nil {
		t.Fatal(err)
	}
	if items[0].ID != 0 || items[0].P[0] != 3 {
		t.Fatal("Build reordered caller's slice")
	}
}
