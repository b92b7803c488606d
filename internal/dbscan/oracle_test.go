package dbscan

import (
	"fmt"
	"sort"

	"incbubbles/internal/dataset"
	"incbubbles/internal/vecmath"
)

// This file holds the reference implementations the tests check
// Incremental against: classical DBSCAN and a from-scratch audit of the
// maintained structure.

// Static runs classical DBSCAN over the current contents of db and
// returns cluster labels per point ID (Noise for noise). The counter, if
// non-nil, counts distance computations.
func Static(db *dataset.DB, params Params, counter *vecmath.Counter) (map[dataset.PointID]int, error) {
	if err := params.validate(); err != nil {
		return nil, err
	}
	if counter == nil {
		counter = new(vecmath.Counter) // count unconditionally; callers may discard the tally
	}
	if db.Len() == 0 {
		return map[dataset.PointID]int{}, nil
	}
	ix := newRangeIndex(db.Dim(), params.Eps)
	ids := make([]dataset.PointID, 0, db.Len())
	pts := make(map[dataset.PointID]vecmath.Point, db.Len())
	db.ForEach(func(r dataset.Record) {
		ix.insert(r.ID, r.P)
		ids = append(ids, r.ID)
		pts[r.ID] = r.P
	})
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })

	eps2 := params.Eps * params.Eps
	rangeQuery := func(p vecmath.Point) []dataset.PointID {
		var out []dataset.PointID
		ix.neighbors(p, func(id dataset.PointID, q vecmath.Point) {
			if d2 := counter.SquaredDistance(p, q); d2 <= eps2 {
				out = append(out, id)
			}
		})
		sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
		return out
	}

	labels := make(map[dataset.PointID]int, len(ids))
	for _, id := range ids {
		labels[id] = Noise
	}
	visited := make(map[dataset.PointID]bool, len(ids))
	next := 0
	for _, id := range ids {
		if visited[id] {
			continue
		}
		visited[id] = true
		nb := rangeQuery(pts[id])
		if len(nb) < params.MinPts {
			continue // noise for now; may become border later
		}
		// Expand a new cluster from this core point.
		cluster := next
		next++
		labels[id] = cluster
		queue := append([]dataset.PointID(nil), nb...)
		for len(queue) > 0 {
			q := queue[0]
			queue = queue[1:]
			if labels[q] == Noise {
				labels[q] = cluster // border or to-be-core
			}
			if visited[q] {
				continue
			}
			visited[q] = true
			qnb := rangeQuery(pts[q])
			if len(qnb) >= params.MinPts {
				labels[q] = cluster
				queue = append(queue, qnb...)
			}
		}
	}
	return labels, nil
}

// CheckInvariants validates the maintained structure against a from-
// scratch recomputation of core-ness (tests and debugging). Pending split
// checks are resolved first.
func (inc *Incremental) CheckInvariants() error {
	inc.Flush()
	for id, p := range inc.pts {
		want := len(inc.rangeIDs(p))
		if got := inc.nbrCount[id]; got != want {
			return fmt.Errorf("dbscan: point %d neighbour count %d want %d", id, got, want)
		}
		_, labelled := inc.coreLbl[id]
		if inc.isCore(id) != labelled {
			return fmt.Errorf("dbscan: point %d core=%v labelled=%v", id, inc.isCore(id), labelled)
		}
	}
	for lbl, mem := range inc.members {
		for id := range mem {
			if inc.coreLbl[id] != lbl {
				return fmt.Errorf("dbscan: member map stale for %d", id)
			}
		}
	}
	// Every adjacent pair of cores shares a label (components are
	// label-pure).
	for id := range inc.coreLbl {
		for _, q := range inc.rangeIDs(inc.pts[id]) {
			if _, ok := inc.coreLbl[q]; ok && inc.coreLbl[q] != inc.coreLbl[id] {
				return fmt.Errorf("dbscan: adjacent cores %d,%d in different clusters", id, q)
			}
		}
	}
	return nil
}
