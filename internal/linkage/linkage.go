// Package linkage implements single-link agglomerative hierarchical
// clustering (the Single-Link method the paper's introduction names as the
// classical hierarchical alternative to OPTICS) over weighted objects such
// as data bubbles. The dendrogram is built from the minimum spanning tree
// of the pairwise distances — equivalent to single-link — and supports
// horizontal cuts by height or by target cluster count.
package linkage

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// Merge is one agglomeration step: clusters A and B (cluster IDs) merge at
// the given distance into a new cluster with ID n+step, following the
// usual dendrogram numbering (leaves are 0..n−1).
type Merge struct {
	A, B int
	Dist float64
}

// Dendrogram is the full single-link merge history of n objects.
type Dendrogram struct {
	n       int
	weights []int
	Merges  []Merge
}

// NewFromMatrix builds the single-link dendrogram of n objects from a
// symmetric pairwise distance matrix. weights may be nil (all 1).
func NewFromMatrix(dist [][]float64, weights []int) (*Dendrogram, error) {
	n := len(dist)
	if n == 0 {
		return nil, errors.New("linkage: empty distance matrix")
	}
	for i, row := range dist {
		if len(row) != n {
			return nil, fmt.Errorf("linkage: row %d has %d columns, want %d", i, len(row), n)
		}
	}
	if weights == nil {
		weights = make([]int, n)
		for i := range weights {
			weights[i] = 1
		}
	}
	if len(weights) != n {
		return nil, errors.New("linkage: weights length mismatch")
	}

	// Prim's MST over the complete graph: O(n²), fine for summary sizes.
	inTree := make([]bool, n)
	best := make([]float64, n)
	from := make([]int, n)
	for i := range best {
		best[i] = math.Inf(1)
		from[i] = -1
	}
	type edge struct {
		a, b int
		d    float64
	}
	var edges []edge
	cur := 0
	inTree[0] = true
	for count := 1; count < n; count++ {
		for j := 0; j < n; j++ {
			if !inTree[j] && dist[cur][j] < best[j] {
				best[j] = dist[cur][j]
				from[j] = cur
			}
		}
		next, nd := -1, math.Inf(1)
		for j := 0; j < n; j++ {
			if !inTree[j] && best[j] < nd {
				next, nd = j, best[j]
			}
		}
		if next < 0 { // disconnected (infinite distances): connect at +Inf
			for j := 0; j < n; j++ {
				if !inTree[j] {
					next, nd = j, math.Inf(1)
					from[j] = cur
					break
				}
			}
		}
		edges = append(edges, edge{a: from[next], b: next, d: nd})
		inTree[next] = true
		cur = next
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].d != edges[j].d {
			return edges[i].d < edges[j].d
		}
		if edges[i].a != edges[j].a {
			return edges[i].a < edges[j].a
		}
		return edges[i].b < edges[j].b
	})

	// Kruskal replay over the MST edges yields the single-link merges.
	d := &Dendrogram{n: n, weights: append([]int(nil), weights...)}
	uf := newUnionFind(n)
	clusterID := make([]int, n) // representative → current cluster ID
	for i := range clusterID {
		clusterID[i] = i
	}
	next := n
	for _, e := range edges {
		ra, rb := uf.find(e.a), uf.find(e.b)
		if ra == rb {
			continue
		}
		d.Merges = append(d.Merges, Merge{A: clusterID[ra], B: clusterID[rb], Dist: e.d})
		r := uf.union(ra, rb)
		clusterID[r] = next
		next++
	}
	return d, nil
}

// Len returns the number of leaf objects.
func (d *Dendrogram) Len() int { return d.n }

// CutHeight assigns objects to clusters by undoing every merge above h:
// objects connected by merges with Dist ≤ h share a label. Labels are
// consecutive integers starting at 0 in first-seen order.
func (d *Dendrogram) CutHeight(h float64) []int {
	uf := newUnionFind(d.n)
	// Replay merges by leaf pairs: track one leaf representative per
	// cluster ID.
	leafOf := make([]int, d.n+len(d.Merges))
	for i := 0; i < d.n; i++ {
		leafOf[i] = i
	}
	for i, m := range d.Merges {
		la, lb := leafOf[m.A], leafOf[m.B]
		if m.Dist <= h {
			uf.union(uf.find(la), uf.find(lb))
		}
		leafOf[d.n+i] = la
	}
	return uf.labels()
}

// CutK assigns objects to exactly k clusters by applying the first n−k
// merges (k is clamped to [1, n]).
func (d *Dendrogram) CutK(k int) []int {
	if k < 1 {
		k = 1
	}
	if k > d.n {
		k = d.n
	}
	uf := newUnionFind(d.n)
	leafOf := make([]int, d.n+len(d.Merges))
	for i := 0; i < d.n; i++ {
		leafOf[i] = i
	}
	apply := d.n - k
	if apply > len(d.Merges) {
		apply = len(d.Merges)
	}
	for i := 0; i < len(d.Merges); i++ {
		m := d.Merges[i]
		la, lb := leafOf[m.A], leafOf[m.B]
		if i < apply {
			uf.union(uf.find(la), uf.find(lb))
		}
		leafOf[d.n+i] = la
	}
	return uf.labels()
}

// Heights returns the merge distances in order.
func (d *Dendrogram) Heights() []float64 {
	out := make([]float64, len(d.Merges))
	for i, m := range d.Merges {
		out[i] = m.Dist
	}
	return out
}

type unionFind struct {
	parent []int
	rank   []int
}

func newUnionFind(n int) *unionFind {
	uf := &unionFind{parent: make([]int, n), rank: make([]int, n)}
	for i := range uf.parent {
		uf.parent[i] = i
	}
	return uf
}

func (u *unionFind) find(x int) int {
	for u.parent[x] != x {
		u.parent[x] = u.parent[u.parent[x]]
		x = u.parent[x]
	}
	return x
}

func (u *unionFind) union(a, b int) int {
	if a == b {
		return a
	}
	if u.rank[a] < u.rank[b] {
		a, b = b, a
	}
	u.parent[b] = a
	if u.rank[a] == u.rank[b] {
		u.rank[a]++
	}
	return a
}

// labels returns consecutive cluster labels per element.
func (u *unionFind) labels() []int {
	out := make([]int, len(u.parent))
	next := 0
	seen := map[int]int{}
	for i := range u.parent {
		r := u.find(i)
		l, ok := seen[r]
		if !ok {
			l = next
			seen[r] = l
			next++
		}
		out[i] = l
	}
	return out
}
