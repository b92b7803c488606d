package linkage

import (
	"math"
	"testing"
	"testing/quick"

	"incbubbles/internal/stats"
	"incbubbles/internal/vecmath"
)

// fromPoints builds the dendrogram of weighted points under Euclidean
// distance.
func fromPoints(pts []vecmath.Point, weights []int) (*Dendrogram, error) {
	var c vecmath.Counter
	dist := make([][]float64, len(pts))
	for i := range dist {
		dist[i] = make([]float64, len(pts))
	}
	for i := range pts {
		for j := i + 1; j < len(pts); j++ {
			d := c.Distance(pts[i], pts[j])
			dist[i][j] = d
			dist[j][i] = d
		}
	}
	return NewFromMatrix(dist, weights)
}

func TestValidation(t *testing.T) {
	if _, err := NewFromMatrix(nil, nil); err == nil {
		t.Error("empty matrix accepted")
	}
	if _, err := NewFromMatrix([][]float64{{0, 1}}, nil); err == nil {
		t.Error("ragged matrix accepted")
	}
	if _, err := NewFromMatrix([][]float64{{0}}, []int{1, 2}); err == nil {
		t.Error("weight mismatch accepted")
	}
}

func TestSingleObject(t *testing.T) {
	d, err := fromPoints([]vecmath.Point{{0}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Merges) != 0 || d.Len() != 1 {
		t.Fatalf("singleton dendrogram: %+v", d)
	}
	if l := d.CutHeight(1); len(l) != 1 || l[0] != 0 {
		t.Fatalf("CutHeight=%v", l)
	}
}

func TestLineSingleLink(t *testing.T) {
	// 1-d points 0, 1, 2, 10: single link merges 0-1-2 chain first.
	pts := []vecmath.Point{{0}, {1}, {2}, {10}}
	d, err := fromPoints(pts, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Merges) != 3 {
		t.Fatalf("merges=%d", len(d.Merges))
	}
	h := d.Heights()
	if h[0] != 1 || h[1] != 1 || h[2] != 8 {
		t.Fatalf("heights=%v", h)
	}
	labels := d.CutHeight(1.5)
	if labels[0] != labels[1] || labels[1] != labels[2] {
		t.Fatalf("chain not merged: %v", labels)
	}
	if labels[3] == labels[0] {
		t.Fatalf("outlier merged: %v", labels)
	}
	labels = d.CutHeight(100)
	for _, l := range labels {
		if l != labels[0] {
			t.Fatalf("full cut not single cluster: %v", labels)
		}
	}
}

func TestCutK(t *testing.T) {
	pts := []vecmath.Point{{0}, {1}, {10}, {11}, {50}}
	d, err := fromPoints(pts, nil)
	if err != nil {
		t.Fatal(err)
	}
	labels := d.CutK(3)
	distinct := map[int]bool{}
	for _, l := range labels {
		distinct[l] = true
	}
	if len(distinct) != 3 {
		t.Fatalf("CutK(3) produced %d clusters: %v", len(distinct), labels)
	}
	if labels[0] != labels[1] || labels[2] != labels[3] {
		t.Fatalf("pairs split: %v", labels)
	}
	if got := d.CutK(0); len(mapSet(got)) != 1 {
		t.Fatalf("CutK clamps low: %v", got)
	}
	if got := d.CutK(99); len(mapSet(got)) != 5 {
		t.Fatalf("CutK clamps high: %v", got)
	}
}

func mapSet(labels []int) map[int]bool {
	m := map[int]bool{}
	for _, l := range labels {
		m[l] = true
	}
	return m
}

// Property: CutK(k) yields exactly k clusters for all valid k, and the
// merge heights are non-decreasing (single-link monotonicity).
func TestDendrogramProperties(t *testing.T) {
	f := func(seed int64) bool {
		rng := stats.NewRNG(seed)
		n := 2 + rng.Intn(30)
		pts := make([]vecmath.Point, n)
		for i := range pts {
			pts[i] = rng.GaussianPoint(vecmath.Point{0, 0}, 10)
		}
		d, err := fromPoints(pts, nil)
		if err != nil {
			return false
		}
		h := d.Heights()
		for i := 1; i < len(h); i++ {
			if h[i] < h[i-1] {
				return false
			}
		}
		for k := 1; k <= n; k++ {
			if len(mapSet(d.CutK(k))) != k {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestDisconnectedMatrix(t *testing.T) {
	inf := math.Inf(1)
	dist := [][]float64{
		{0, 1, inf},
		{1, 0, inf},
		{inf, inf, 0},
	}
	d, err := NewFromMatrix(dist, nil)
	if err != nil {
		t.Fatal(err)
	}
	labels := d.CutHeight(10)
	if labels[0] != labels[1] || labels[2] == labels[0] {
		t.Fatalf("disconnected handling wrong: %v", labels)
	}
	// Full merge at infinity still possible.
	labels = d.CutHeight(inf)
	if len(mapSet(labels)) != 1 {
		t.Fatalf("infinite cut: %v", labels)
	}
}

func TestWeightsCarried(t *testing.T) {
	d, err := fromPoints([]vecmath.Point{{0}, {5}}, []int{10, 20})
	if err != nil {
		t.Fatal(err)
	}
	if d.Len() != 2 || len(d.Merges) != 1 {
		t.Fatalf("dendrogram=%+v", d)
	}
}
