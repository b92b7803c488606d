package optics

import (
	"context"
	"errors"
	"math"
	"sort"
	"testing"

	"incbubbles/internal/bubble"
	"incbubbles/internal/core"
	"incbubbles/internal/dataset"
	"incbubbles/internal/synth"
	"incbubbles/internal/vecmath"
)

// sortedBubbleSpace is the bubble space as it was built before the row
// store: a k×k distance matrix plus every object's neighbours sorted by
// (distance, index), with Neighbors copying the prefix within eps and
// CoreDist walking it in order. It is the oracle FuzzBubbleSpace holds
// BubbleSpace to.
type sortedBubbleSpace struct {
	set     *bubble.Set
	idx     []int
	weights []int
	dists   [][]float64
	order   [][]Neighbor
}

func newSortedBubbleSpace(set *bubble.Set) (*sortedBubbleSpace, error) {
	s := &sortedBubbleSpace{set: set}
	var reps []vecmath.Point
	var extents, nn1 []float64
	for i, b := range set.Bubbles() {
		if b.N() == 0 {
			continue
		}
		s.idx = append(s.idx, i)
		reps = append(reps, b.Rep())
		extents = append(extents, b.Extent())
		nn1 = append(nn1, b.NNDist(1))
		s.weights = append(s.weights, b.N())
	}
	if len(s.idx) == 0 {
		return nil, errors.New("optics: no non-empty bubbles")
	}
	n := len(s.idx)
	s.dists = make([][]float64, n)
	for i := range s.dists {
		s.dists[i] = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			d := math.Max(nn1[i], nn1[j])
			if sep := vecmath.Distance(reps[i], reps[j]) - (extents[i] + extents[j]); sep >= 0 {
				d = sep + nn1[i] + nn1[j]
			}
			s.dists[i][j] = d
			s.dists[j][i] = d
		}
	}
	s.order = make([][]Neighbor, n)
	for i := range s.order {
		row := make([]Neighbor, n)
		for j := range row {
			row[j] = Neighbor{Idx: j, Dist: s.dists[i][j]}
		}
		sort.Slice(row, func(a, b int) bool {
			if row[a].Dist != row[b].Dist {
				return row[a].Dist < row[b].Dist
			}
			return row[a].Idx < row[b].Idx
		})
		s.order[i] = row
	}
	return s, nil
}

func (s *sortedBubbleSpace) Len() int         { return len(s.idx) }
func (s *sortedBubbleSpace) Weight(i int) int { return s.weights[i] }
func (s *sortedBubbleSpace) ID(i int) uint64  { return uint64(s.idx[i]) }
func (s *sortedBubbleSpace) nnDist(i, k int) float64 {
	return s.set.Bubble(s.idx[i]).NNDist(k)
}

func (s *sortedBubbleSpace) Neighbors(i int, eps float64) []Neighbor {
	row := s.order[i]
	if !math.IsInf(eps, 1) {
		row = row[:sort.Search(len(row), func(k int) bool { return row[k].Dist > eps })]
	}
	return append([]Neighbor(nil), row...)
}

func (s *sortedBubbleSpace) CoreDist(i int, neighbors []Neighbor, minPts int) float64 {
	if s.weights[i] >= minPts {
		return s.nnDist(i, minPts)
	}
	cum := 0
	for _, nb := range neighbors {
		cum += s.weights[nb.Idx]
		if cum >= minPts {
			if nb.Idx == i {
				return s.nnDist(i, s.weights[i])
			}
			return nb.Dist
		}
	}
	return math.Inf(1)
}

// progReader hands out a program's bytes in order and reports exhaustion.
type progReader struct {
	prog []byte
	at   int
}

func (r *progReader) done() bool { return r.at >= len(r.prog) }

func (r *progReader) next() int {
	if r.done() {
		return 0
	}
	r.at++
	return int(r.prog[r.at-1])
}

// programSet builds the bubble set a FuzzBubbleSpace program describes.
// The first byte gives the dimension (1..3). Then each bubble takes one
// op byte, until the program ends or 16 bubbles exist. When op%4 == 3 and
// an earlier bubble exists, the new bubble receives copies of earlier
// bubble (op/4)%i's points, so their statistics and every distance to
// them tie exactly. Otherwise the bubble gets op%9 points (0 leaves it
// empty), one byte per coordinate on an 8-wide integer grid.
func programSet(t *testing.T, prog []byte) *bubble.Set {
	t.Helper()
	r := &progReader{prog: prog}
	dim := 1 + r.next()%3
	set, err := bubble.NewSet(dim, bubble.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var members [][]vecmath.Point
	var id dataset.PointID
	for len(members) < 16 && !r.done() {
		op := r.next()
		var pts []vecmath.Point
		if op%4 == 3 && len(members) > 0 {
			pts = members[(op/4)%len(members)]
		} else {
			for k := 0; k < op%9; k++ {
				p := make(vecmath.Point, dim)
				for c := range p {
					p[c] = float64(r.next() % 8)
				}
				pts = append(pts, p)
			}
		}
		seed := make(vecmath.Point, dim)
		if len(pts) > 0 {
			seed = pts[0]
		}
		b, err := set.AddBubble(seed)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range pts {
			if err := set.AssignTo(b, id, p); err != nil {
				t.Fatal(err)
			}
			id++
		}
		members = append(members, pts)
	}
	return set
}

// complexSet summarizes a synthetic Complex database of the given shape
// through core, as the recluster loop does, and applies batches to it.
func complexSet(tb testing.TB, dim, points, bubbles, batches int, seed int64) *bubble.Set {
	tb.Helper()
	sc, err := synth.NewScenario(synth.Config{Kind: synth.Complex, Dim: dim, InitialPoints: points, Batches: max(batches, 1), Seed: seed})
	if err != nil {
		tb.Fatal(err)
	}
	sum, err := core.New(sc.DB(), core.Options{NumBubbles: bubbles, UseTriangleInequality: true, Seed: seed})
	if err != nil {
		tb.Fatal(err)
	}
	for b := 0; b < batches; b++ {
		batch, err := sc.NextBatch()
		if err != nil {
			tb.Fatal(err)
		}
		if _, err := sum.ApplyBatchContext(context.Background(), batch); err != nil {
			tb.Fatal(err)
		}
	}
	return sum.Set()
}

// sameEntries reports whether two orderings are bit-identical.
func sameEntries(a, b []Entry) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Obj != b[i].Obj || a[i].ID != b[i].ID || a[i].Weight != b[i].Weight ||
			math.Float64bits(a[i].Reach) != math.Float64bits(b[i].Reach) ||
			math.Float64bits(a[i].Core) != math.Float64bits(b[i].Core) {
			return false
		}
	}
	return true
}

// checkAgainstSorted requires BubbleSpace over set to match the sorted
// reference: the same objects and distance matrix, the same
// neighbourhoods in any order, and a bit-identical OPTICS ordering for
// every MinPts in {1, 2, 5, 10, Σn, Σn+1} at eps = +Inf and at a finite
// eps that equals a matrix entry, so the Dist <= eps boundary is hit.
func checkAgainstSorted(t *testing.T, set *bubble.Set) {
	t.Helper()
	ref, refErr := newSortedBubbleSpace(set)
	bs, err := NewBubbleSpaceWorkers(set, 2)
	if (refErr == nil) != (err == nil) {
		t.Fatalf("reference error %v, row store error %v", refErr, err)
	}
	if err != nil {
		return
	}
	n := ref.Len()
	if bs.Len() != n {
		t.Fatalf("Len %d, reference %d", bs.Len(), n)
	}
	total := 0
	for i := 0; i < n; i++ {
		if bs.Weight(i) != ref.Weight(i) || bs.ID(i) != ref.ID(i) {
			t.Fatalf("object %d: weight/ID %d/%d, reference %d/%d", i, bs.Weight(i), bs.ID(i), ref.Weight(i), ref.ID(i))
		}
		total += bs.Weight(i)
	}
	if computed, _ := bs.ctr.Snapshot(); computed != uint64(n*(n-1)/2) {
		t.Fatalf("build counted %d distances, want n(n−1)/2 = %d", computed, n*(n-1)/2)
	}
	dm := bs.DistanceMatrix()
	for i := range dm {
		for j := range dm[i] {
			if math.Float64bits(dm[i][j]) != math.Float64bits(ref.dists[i][j]) {
				t.Fatalf("distance (%d,%d) = %v, reference %v", i, j, dm[i][j], ref.dists[i][j])
			}
		}
	}
	// A finite eps taken from the matrix: the median positive distance of
	// row 0 (1 when there is none).
	var row0 []float64
	for _, d := range ref.dists[0] {
		if d > 0 {
			row0 = append(row0, d)
		}
	}
	eps := 1.0
	if len(row0) > 0 {
		sort.Float64s(row0)
		eps = row0[len(row0)/2]
	}
	for _, e := range []float64{math.Inf(1), eps} {
		// Each neighbourhood holds exactly the reference's objects: no
		// object twice, each at its matrix distance within eps, and as
		// many as the reference lists.
		seen := make([]int, n)
		for i := 0; i < n; i++ {
			got := bs.Neighbors(i, e)
			if want := len(ref.Neighbors(i, e)); len(got) != want {
				t.Fatalf("eps %v: object %d has %d neighbours, reference %d", e, i, len(got), want)
			}
			for _, nb := range got {
				if seen[nb.Idx] == i+1 || nb.Dist != dm[i][nb.Idx] || nb.Dist > e {
					t.Fatalf("eps %v: object %d lists %+v twice, off the matrix or beyond eps", e, i, nb)
				}
				seen[nb.Idx] = i + 1
			}
		}
		for _, minPts := range []int{1, 2, 5, 10, total, total + 1} {
			p := Params{MinPts: minPts, Eps: e}
			want, err := Run(ref, p)
			if err != nil {
				t.Fatal(err)
			}
			got, err := Run(bs, p)
			if err != nil {
				t.Fatal(err)
			}
			if !sameEntries(got.Order, want.Order) {
				t.Fatalf("MinPts %d eps %v: ordering differs from the sorted reference", minPts, e)
			}
		}
	}
}

// FuzzBubbleSpace is the differential oracle of the row store: over the
// small sets programSet builds, BubbleSpace must give the sorted
// reference's distance matrix and a bit-identical OPTICS ordering.
func FuzzBubbleSpace(f *testing.F) {
	// Two 1-d bubbles below every MinPts above 2.
	f.Add([]byte{0, 2, 1, 3, 1, 6})
	// A single bubble.
	f.Add([]byte{1, 4, 1, 1, 2, 2, 3, 3, 4, 4})
	// Duplicated statistics: bubbles 1 and 3 copy bubble 0, so three
	// bubbles tie on every distance; bubble 2 is empty.
	f.Add([]byte{1, 3, 0, 0, 1, 1, 2, 0, 3, 0, 7, 5, 5, 5, 6, 4, 6, 3, 5, 5, 5, 7})
	// Two bubbles on one grid cell tie with each other at distance 0, and
	// four empty bubbles trail the program.
	f.Add([]byte{2, 2, 1, 1, 1, 1, 1, 1, 2, 1, 1, 1, 1, 1, 1, 8, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0})
	// Every bubble empty: both spaces must refuse the set.
	f.Add([]byte{1, 0, 9, 18})
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) > 512 {
			prog = prog[:512]
		}
		checkAgainstSorted(t, programSet(t, prog))
	})
}

// TestBubbleSpaceReclusterShape runs FuzzBubbleSpace's check at the
// recluster loop's shape: 500 10-d bubbles over 20k Complex points,
// three batches in. It is a test of its own rather than a fuzz seed
// because every mutation of such a seed would cost a full summarization.
func TestBubbleSpaceReclusterShape(t *testing.T) {
	checkAgainstSorted(t, complexSet(t, 10, 20000, 500, 3, 1))
}
