// Package kdtree provides a static k-d tree over labelled points, used for
// the ε-neighbourhood and k-nearest-neighbour queries that OPTICS on raw
// points requires. The tree is built once per clustering run; the dynamic
// database is handled at the data-bubble layer, not here.
package kdtree

import (
	"errors"
	"math"
	"sort"

	"incbubbles/internal/vecmath"
)

// Item is one indexed entry: a point plus an opaque identifier.
type Item struct {
	ID uint64
	P  vecmath.Point
}

// Neighbor is a query result: an item and its distance to the query point.
type Neighbor struct {
	Item Item
	Dist float64
}

// Tree is an immutable k-d tree. Query-time distance computations are
// tallied into the tree's own counter.
type Tree struct {
	dim     int
	items   []Item // reordered into tree layout
	nodes   []node
	root    int
	counter *vecmath.Counter
}

type node struct {
	axis        int
	split       float64
	item        int // index into items
	left, right int // node indices, -1 for none
}

// ErrEmpty is returned when building a tree from no items.
var ErrEmpty = errors.New("kdtree: no items")

// Build constructs a tree over items. The slice is copied; items must all
// share one dimensionality.
func Build(items []Item) (*Tree, error) {
	if len(items) == 0 {
		return nil, ErrEmpty
	}
	dim := items[0].P.Dim()
	for _, it := range items {
		if it.P.Dim() != dim {
			return nil, errors.New("kdtree: mixed dimensionalities")
		}
	}
	t := &Tree{dim: dim, items: append([]Item(nil), items...), counter: new(vecmath.Counter)}
	t.nodes = make([]node, 0, len(items))
	t.root = t.build(0, len(t.items), 0)
	return t, nil
}

// build arranges items[lo:hi] into a subtree and returns its node index.
func (t *Tree) build(lo, hi, depth int) int {
	if lo >= hi {
		return -1
	}
	axis := depth % t.dim
	mid := (lo + hi) / 2
	// Median split via full sort on the axis: O(n log n) per level worst
	// case but simple and cache-friendly for the sizes we index.
	sub := t.items[lo:hi]
	sort.Slice(sub, func(i, j int) bool { return sub[i].P[axis] < sub[j].P[axis] })
	idx := len(t.nodes)
	t.nodes = append(t.nodes, node{axis: axis, split: t.items[mid].P[axis], item: mid})
	left := t.build(lo, mid, depth+1)
	right := t.build(mid+1, hi, depth+1)
	t.nodes[idx].left = left
	t.nodes[idx].right = right
	return idx
}

// Len returns the number of indexed items.
func (t *Tree) Len() int { return len(t.items) }

// Range returns all items within distance eps of q (inclusive), sorted by
// ascending distance. q itself is included when indexed.
func (t *Tree) Range(q vecmath.Point, eps float64) []Neighbor {
	if eps < 0 {
		return nil
	}
	var out []Neighbor
	eps2 := eps * eps
	t.rangeSearch(t.root, q, eps, eps2, &out)
	sort.Slice(out, func(i, j int) bool { return out[i].Dist < out[j].Dist })
	return out
}

func (t *Tree) rangeSearch(ni int, q vecmath.Point, eps, eps2 float64, out *[]Neighbor) {
	if ni < 0 {
		return
	}
	n := &t.nodes[ni]
	it := t.items[n.item]
	if d2 := t.counter.SquaredDistance(q, it.P); d2 <= eps2 {
		*out = append(*out, Neighbor{Item: it, Dist: sqrt(d2)})
	}
	diff := q[n.axis] - n.split
	if diff <= eps {
		t.rangeSearch(n.left, q, eps, eps2, out)
	}
	if diff >= -eps {
		t.rangeSearch(n.right, q, eps, eps2, out)
	}
}

// KNN returns the k nearest items to q sorted by ascending distance
// (fewer when the tree holds fewer than k items).
func (t *Tree) KNN(q vecmath.Point, k int) []Neighbor {
	if k <= 0 {
		return nil
	}
	h := &maxHeap{}
	t.knnSearch(t.root, q, k, h)
	out := make([]Neighbor, len(*h))
	for i := len(*h) - 1; i >= 0; i-- {
		out[i] = h.pop()
	}
	return out
}

func (t *Tree) knnSearch(ni int, q vecmath.Point, k int, h *maxHeap) {
	if ni < 0 {
		return
	}
	n := &t.nodes[ni]
	it := t.items[n.item]
	d2 := t.counter.SquaredDistance(q, it.P)
	if h.len() < k {
		h.push(Neighbor{Item: it, Dist: sqrt(d2)})
	} else if d := sqrt(d2); d < h.top().Dist {
		h.pop()
		h.push(Neighbor{Item: it, Dist: d})
	}
	diff := q[n.axis] - n.split
	near, far := n.left, n.right
	if diff > 0 {
		near, far = far, near
	}
	t.knnSearch(near, q, k, h)
	if h.len() < k || abs(diff) < h.top().Dist {
		t.knnSearch(far, q, k, h)
	}
}

func sqrt(x float64) float64 {
	if x <= 0 {
		return 0
	}
	return math.Sqrt(x)
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
