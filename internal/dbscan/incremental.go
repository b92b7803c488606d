package dbscan

import (
	"errors"
	"fmt"
	"sort"

	"incbubbles/internal/dataset"
	"incbubbles/internal/vecmath"
)

// Incremental maintains a DBSCAN clustering under single-point insertions
// and deletions, following IncrementalDBSCAN (Ester et al. 1998): updates
// only touch the ε-neighbourhood of the changed point, with cluster
// creation, absorption and merging handled by a bounded re-expansion and
// deletions re-checking connectivity of the affected cluster only (the
// potential-split case, inherently the expensive direction).
//
// Internally the clustering is the connected components of the core graph
// (core points adjacent when within ε). Core labels are maintained
// eagerly; border points are resolved on demand in Labels.
type Incremental struct {
	params  Params
	dim     int
	counter *vecmath.Counter

	ix       rangeIndex
	pts      map[dataset.PointID]vecmath.Point
	nbrCount map[dataset.PointID]int // |N_eps(q)| including q itself
	coreLbl  map[dataset.PointID]int // labels of core points only
	members  map[int]map[dataset.PointID]struct{}
	// dirty holds labels whose connectivity may have been broken by
	// deletions and must be recomputed before the clustering is read.
	// Deferring the recomputation amortises bursts of deletions in one
	// region (e.g. a cluster draining away) into a single re-derivation.
	dirty map[int]struct{}
	next  int
}

// NewIncremental creates an empty maintained clustering.
func NewIncremental(dim int, params Params, counter *vecmath.Counter) (*Incremental, error) {
	if dim <= 0 {
		return nil, errors.New("dbscan: dimension must be positive")
	}
	if err := params.validate(); err != nil {
		return nil, err
	}
	if counter == nil {
		counter = new(vecmath.Counter) // count unconditionally; callers may discard the tally
	}
	return &Incremental{
		params:   params,
		dim:      dim,
		counter:  counter,
		ix:       newRangeIndex(dim, params.Eps),
		pts:      make(map[dataset.PointID]vecmath.Point),
		nbrCount: make(map[dataset.PointID]int),
		coreLbl:  make(map[dataset.PointID]int),
		members:  make(map[int]map[dataset.PointID]struct{}),
		dirty:    make(map[int]struct{}),
	}, nil
}

func (inc *Incremental) dist2(p, q vecmath.Point) float64 {
	return inc.counter.SquaredDistance(p, q)
}

// rangeIDs returns the ids within ε of p in ascending order.
func (inc *Incremental) rangeIDs(p vecmath.Point) []dataset.PointID {
	eps2 := inc.params.Eps * inc.params.Eps
	var out []dataset.PointID
	inc.ix.neighbors(p, func(id dataset.PointID, q vecmath.Point) {
		if inc.dist2(p, q) <= eps2 {
			out = append(out, id)
		}
	})
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func (inc *Incremental) isCore(id dataset.PointID) bool {
	return inc.nbrCount[id] >= inc.params.MinPts
}

// Insert adds point p with identity id and restructures the clustering.
func (inc *Incremental) Insert(id dataset.PointID, p vecmath.Point) error {
	if p.Dim() != inc.dim {
		return fmt.Errorf("dbscan: point dimensionality %d want %d", p.Dim(), inc.dim)
	}
	if _, dup := inc.pts[id]; dup {
		return fmt.Errorf("dbscan: duplicate id %d", id)
	}
	inc.ix.insert(id, p)
	inc.pts[id] = p.Clone()

	nb := inc.rangeIDs(p) // includes id itself
	inc.nbrCount[id] = len(nb)
	var newCores []dataset.PointID // cores created by this insertion
	for _, q := range nb {
		if q == id {
			continue
		}
		inc.nbrCount[q]++
		if inc.nbrCount[q] == inc.params.MinPts {
			newCores = append(newCores, q) // q became core because of p
		}
	}
	if inc.isCore(id) {
		newCores = append(newCores, id)
	}
	if len(newCores) == 0 {
		return nil // noise or border: no core-graph change
	}

	// Case analysis of Ester et al. (creation / absorption / merge) via a
	// tiny union-find over the new core-graph vertices and the cluster
	// labels they touch. New vertices connect to each other when within ε
	// and to a label when adjacent to one of its cores. No cluster-wide
	// re-expansion is needed: merging clusters moves the smaller member
	// set under the larger label.
	eps2 := inc.params.Eps * inc.params.Eps
	n := len(newCores)
	uf := newInsertUF(n)
	labelNode := map[int]int{} // cluster label -> union-find node
	node := func(lbl int) int {
		if v, ok := labelNode[lbl]; ok {
			return v
		}
		v := uf.addNode()
		labelNode[lbl] = v
		return v
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if inc.dist2(inc.pts[newCores[i]], inc.pts[newCores[j]]) <= eps2 {
				uf.union(i, j)
			}
		}
		for _, r := range inc.coreNeighbors(inc.pts[newCores[i]], newCores[i]) {
			if lbl, ok := inc.coreLbl[r]; ok {
				uf.union(i, node(lbl))
			}
		}
	}
	// Resolve each component.
	compLabels := map[int][]int{} // root -> labels in component
	for lbl, v := range labelNode {
		r := uf.find(v)
		compLabels[r] = append(compLabels[r], lbl)
	}
	compCores := map[int][]dataset.PointID{}
	for i, q := range newCores {
		r := uf.find(i)
		compCores[r] = append(compCores[r], q)
	}
	for root, cores := range compCores {
		labels := compLabels[root]
		switch len(labels) {
		case 0: // creation
			target := inc.next
			inc.next++
			inc.assignCores(cores, target)
		case 1: // absorption
			inc.assignCores(cores, labels[0])
		default: // merge: fold smaller clusters into the largest
			target := labels[0]
			for _, lbl := range labels[1:] {
				if len(inc.members[lbl]) > len(inc.members[target]) {
					target = lbl
				}
			}
			dirtyMerge := false
			for _, lbl := range labels {
				if _, d := inc.dirty[lbl]; d {
					dirtyMerge = true
				}
				if lbl == target {
					continue
				}
				for q := range inc.members[lbl] {
					inc.coreLbl[q] = target
					if inc.members[target] == nil {
						inc.members[target] = make(map[dataset.PointID]struct{})
					}
					inc.members[target][q] = struct{}{}
				}
				delete(inc.members, lbl)
				delete(inc.dirty, lbl)
			}
			if dirtyMerge {
				// A possibly-split cluster was merged into: the merged
				// label inherits the pending connectivity check.
				inc.dirty[target] = struct{}{}
			}
			inc.assignCores(cores, target)
		}
	}
	return nil
}

// assignCores labels the given (new) core points with target.
func (inc *Incremental) assignCores(ids []dataset.PointID, target int) {
	if inc.members[target] == nil {
		inc.members[target] = make(map[dataset.PointID]struct{})
	}
	for _, q := range ids {
		inc.coreLbl[q] = target
		inc.members[target][q] = struct{}{}
	}
}

// insertUF is a small growable union-find for the per-insertion case
// analysis.
type insertUF struct {
	parent []int
}

func newInsertUF(n int) *insertUF {
	uf := &insertUF{parent: make([]int, n)}
	for i := range uf.parent {
		uf.parent[i] = i
	}
	return uf
}

func (u *insertUF) addNode() int {
	u.parent = append(u.parent, len(u.parent))
	return len(u.parent) - 1
}

func (u *insertUF) find(x int) int {
	for u.parent[x] != x {
		u.parent[x] = u.parent[u.parent[x]]
		x = u.parent[x]
	}
	return x
}

func (u *insertUF) union(a, b int) {
	ra, rb := u.find(a), u.find(b)
	if ra != rb {
		u.parent[rb] = ra
	}
}

// Delete removes the point with identity id and restructures the
// clustering (the potential-split case re-derives the components of the
// affected clusters only).
func (inc *Incremental) Delete(id dataset.PointID) error {
	p, ok := inc.pts[id]
	if !ok {
		return fmt.Errorf("dbscan: unknown id %d", id)
	}
	nb := inc.rangeIDs(p)
	wasCore := inc.isCore(id)

	inc.ix.remove(id)
	delete(inc.pts, id)
	delete(inc.nbrCount, id)
	if lbl, ok := inc.coreLbl[id]; ok {
		delete(inc.coreLbl, id)
		delete(inc.members[lbl], id)
		if len(inc.members[lbl]) == 0 {
			delete(inc.members, lbl)
		}
	}

	affected := map[int]struct{}{}
	// suspects collects, per removed core-graph vertex, the set of core
	// neighbours whose mutual connectivity must be re-established.
	var suspects [][]dataset.PointID
	structural := wasCore
	var lostCores []dataset.PointID
	for _, q := range nb {
		if q == id {
			continue
		}
		inc.nbrCount[q]--
		if inc.nbrCount[q] == inc.params.MinPts-1 {
			// q lost core status: detach it from the core graph.
			structural = true
			lostCores = append(lostCores, q)
			if lbl, ok := inc.coreLbl[q]; ok {
				affected[lbl] = struct{}{}
				delete(inc.coreLbl, q)
				delete(inc.members[lbl], q)
				if len(inc.members[lbl]) == 0 {
					delete(inc.members, lbl)
				}
			}
		} else if inc.isCore(q) {
			if lbl, ok := inc.coreLbl[q]; ok && wasCore {
				affected[lbl] = struct{}{}
			}
		}
	}
	if !structural || len(affected) == 0 {
		return nil
	}
	// Split pre-check (the locality observation of Ester et al.): removing
	// vertex v can only split its component if v's core neighbours are no
	// longer pairwise connected. When, for every removed vertex, the
	// surviving core neighbours form a clique under ε, connectivity is
	// preserved and the expensive recomputation is skipped — the common
	// case for interior deletions.
	if wasCore {
		suspects = append(suspects, inc.coreNeighbors(p, id))
	}
	for _, q := range lostCores {
		suspects = append(suspects, inc.coreNeighbors(inc.pts[q], q))
	}
	split := false
	for _, s := range suspects {
		if !inc.pairwiseConnected(s) {
			split = true
			break
		}
	}
	if !split {
		return nil
	}
	for lbl := range affected {
		inc.dirty[lbl] = struct{}{}
	}
	return nil
}

// Flush resolves all deferred split checks, re-deriving the components of
// every dirty cluster. Reads (Labels, CheckInvariants) flush implicitly;
// callers that meter maintenance cost per batch call it explicitly.
func (inc *Incremental) Flush() {
	if len(inc.dirty) == 0 {
		return
	}
	affected := inc.dirty
	inc.dirty = make(map[int]struct{})
	inc.recomputeComponents(affected)
}

// coreNeighbors returns the current core points within ε of p, excluding
// the given id.
func (inc *Incremental) coreNeighbors(p vecmath.Point, excl dataset.PointID) []dataset.PointID {
	var out []dataset.PointID
	for _, q := range inc.rangeIDs(p) {
		if q == excl {
			continue
		}
		if _, ok := inc.coreLbl[q]; ok {
			out = append(out, q)
		}
	}
	return out
}

// pairwiseConnected reports whether the given cores are mutually within ε
// of one another (a clique in the core graph), which guarantees that
// removing their common neighbour cannot disconnect them.
func (inc *Incremental) pairwiseConnected(ids []dataset.PointID) bool {
	if len(ids) <= 1 {
		return true
	}
	eps2 := inc.params.Eps * inc.params.Eps
	for i := 0; i < len(ids); i++ {
		for j := i + 1; j < len(ids); j++ {
			if inc.dist2(inc.pts[ids[i]], inc.pts[ids[j]]) > eps2 {
				return false
			}
		}
	}
	return true
}

// recomputeComponents re-derives the connected components of the cores
// holding the affected labels, assigning fresh labels per component (the
// split resolution of IncrementalDBSCAN's deletion case).
func (inc *Incremental) recomputeComponents(affected map[int]struct{}) {
	pool := map[dataset.PointID]struct{}{}
	for lbl := range affected {
		for id := range inc.members[lbl] {
			pool[id] = struct{}{}
		}
		delete(inc.members, lbl)
	}
	ids := make([]dataset.PointID, 0, len(pool))
	for id := range pool {
		delete(inc.coreLbl, id)
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	visited := map[dataset.PointID]bool{}
	for _, start := range ids {
		if visited[start] {
			continue
		}
		lbl := inc.next
		inc.next++
		inc.members[lbl] = make(map[dataset.PointID]struct{})
		queue := []dataset.PointID{start}
		for len(queue) > 0 {
			q := queue[0]
			queue = queue[1:]
			if visited[q] {
				continue
			}
			visited[q] = true
			inc.coreLbl[q] = lbl
			inc.members[lbl][q] = struct{}{}
			for _, r := range inc.rangeIDs(inc.pts[q]) {
				if _, inPool := pool[r]; inPool && !visited[r] {
					queue = append(queue, r)
				}
			}
		}
	}
}

// Labels returns the current clustering: core points carry their
// maintained label, border points adopt the smallest label among core
// points within ε, everything else is Noise. Pending split checks are
// resolved first.
func (inc *Incremental) Labels() map[dataset.PointID]int {
	inc.Flush()
	out := make(map[dataset.PointID]int, len(inc.pts))
	for id, p := range inc.pts {
		if lbl, ok := inc.coreLbl[id]; ok {
			out[id] = lbl
			continue
		}
		best := Noise
		for _, q := range inc.rangeIDs(p) {
			if lbl, ok := inc.coreLbl[q]; ok && (best == Noise || lbl < best) {
				best = lbl
			}
		}
		out[id] = best
	}
	return out
}
