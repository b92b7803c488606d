// Package dbscan implements IncrementalDBSCAN (Ester et al. 1998) — the
// paper's §2 representative of the first strategy for incremental
// clustering: a specialized algorithm that restructures clusters directly
// on every update, against which the summarization-based second strategy
// is positioned. It keeps DBSCAN's (Ester et al. 1996) density model: a
// point is core when its ε-neighbourhood holds at least MinPts points
// (itself included); clusters are the connected components of core points
// within ε, with border points attached and the rest noise. Classical
// DBSCAN, the reference the tests check it against, lives with the tests.
package dbscan

import (
	"math"

	"incbubbles/internal/dataset"
	"incbubbles/internal/vecmath"
)

// rangeIndex answers ε-range queries over a dynamic point set. A
// uniform grid with cell width ε serves low dimensionalities; a linear
// scan covers the rest (3^d cell probes explode with d).
type rangeIndex interface {
	insert(id dataset.PointID, p vecmath.Point)
	remove(id dataset.PointID)
	// neighbors returns all ids within eps of p (inclusive), p's own id
	// included when present. counter distances are counted by the caller.
	neighbors(p vecmath.Point, visit func(id dataset.PointID, q vecmath.Point))
	len() int
}

// maxGridDim bounds the grid index to dimensionalities where scanning the
// 3^d adjacent cells is cheaper than a linear pass.
const maxGridDim = 6

func newRangeIndex(dim int, eps float64) rangeIndex {
	if dim <= maxGridDim {
		return newGridIndex(dim, eps)
	}
	return &linearIndex{points: make(map[dataset.PointID]vecmath.Point)}
}

// linearIndex is the O(n) fallback.
type linearIndex struct {
	points map[dataset.PointID]vecmath.Point
	order  []dataset.PointID // insertion order for deterministic visits
}

func (ix *linearIndex) insert(id dataset.PointID, p vecmath.Point) {
	ix.points[id] = p.Clone()
	ix.order = append(ix.order, id)
}

func (ix *linearIndex) remove(id dataset.PointID) {
	delete(ix.points, id)
	// order entries are lazily skipped; compact when half dead.
	if len(ix.order) > 64 && len(ix.order) > 2*len(ix.points) {
		kept := ix.order[:0]
		for _, oid := range ix.order {
			if _, ok := ix.points[oid]; ok {
				kept = append(kept, oid)
			}
		}
		ix.order = kept
	}
}

func (ix *linearIndex) neighbors(_ vecmath.Point, visit func(dataset.PointID, vecmath.Point)) {
	for _, id := range ix.order {
		if q, ok := ix.points[id]; ok {
			visit(id, q)
		}
	}
}

func (ix *linearIndex) len() int { return len(ix.points) }

// gridIndex hashes points into cells of width eps; candidates for an
// ε-query are the 3^d cells around the query point.
type gridIndex struct {
	dim   int
	eps   float64
	cells map[string][]gridEntry
	pos   map[dataset.PointID]string
	n     int
}

type gridEntry struct {
	id dataset.PointID
	p  vecmath.Point
}

func newGridIndex(dim int, eps float64) *gridIndex {
	return &gridIndex{
		dim:   dim,
		eps:   eps,
		cells: make(map[string][]gridEntry),
		pos:   make(map[dataset.PointID]string),
	}
}

func (ix *gridIndex) key(coords []int64) string {
	// Fixed-width binary key: 8 bytes per axis.
	buf := make([]byte, 0, 8*len(coords))
	for _, c := range coords {
		u := uint64(c)
		buf = append(buf,
			byte(u>>56), byte(u>>48), byte(u>>40), byte(u>>32),
			byte(u>>24), byte(u>>16), byte(u>>8), byte(u))
	}
	return string(buf)
}

func (ix *gridIndex) cellOf(p vecmath.Point) []int64 {
	out := make([]int64, ix.dim)
	for j := 0; j < ix.dim; j++ {
		out[j] = int64(math.Floor(p[j] / ix.eps))
	}
	return out
}

func (ix *gridIndex) insert(id dataset.PointID, p vecmath.Point) {
	k := ix.key(ix.cellOf(p))
	ix.cells[k] = append(ix.cells[k], gridEntry{id: id, p: p.Clone()})
	ix.pos[id] = k
	ix.n++
}

func (ix *gridIndex) remove(id dataset.PointID) {
	k, ok := ix.pos[id]
	if !ok {
		return
	}
	cell := ix.cells[k]
	for i, e := range cell {
		if e.id == id {
			cell[i] = cell[len(cell)-1]
			cell = cell[:len(cell)-1]
			break
		}
	}
	if len(cell) == 0 {
		delete(ix.cells, k)
	} else {
		ix.cells[k] = cell
	}
	delete(ix.pos, id)
	ix.n--
}

func (ix *gridIndex) neighbors(p vecmath.Point, visit func(dataset.PointID, vecmath.Point)) {
	base := ix.cellOf(p)
	offsets := make([]int64, ix.dim)
	for i := range offsets {
		offsets[i] = -1
	}
	coords := make([]int64, ix.dim)
	for {
		for j := range coords {
			coords[j] = base[j] + offsets[j]
		}
		if cell, ok := ix.cells[ix.key(coords)]; ok {
			for _, e := range cell {
				visit(e.id, e.p)
			}
		}
		// Advance the odometer over {-1,0,1}^d.
		j := 0
		for ; j < ix.dim; j++ {
			offsets[j]++
			if offsets[j] <= 1 {
				break
			}
			offsets[j] = -1
		}
		if j == ix.dim {
			return
		}
	}
}

func (ix *gridIndex) len() int { return ix.n }
