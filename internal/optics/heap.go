package optics

import "math"

// seedQueue is an indexed min-heap over object indices keyed by current
// reachability distance, supporting the decrease-key updates OPTICS's
// OrderSeeds structure needs. Ties break on smaller object index so runs
// are deterministic. A queue drained by pop is empty again and can be
// reused for the next connected component.
type seedQueue struct {
	heap  []int     // object indices
	pos   []int     // object index -> heap position, -1 when absent
	reach []float64 // shared reachability array (indexed by object)
}

func newSeedQueue(n int, reach []float64) *seedQueue {
	pos := make([]int, n)
	for i := range pos {
		pos[i] = -1
	}
	return &seedQueue{heap: make([]int, 0, n), pos: pos, reach: reach}
}

func (q *seedQueue) len() int { return len(q.heap) }

func (q *seedQueue) contains(i int) bool { return q.pos[i] >= 0 }

func (q *seedQueue) less(a, b int) bool {
	ra, rb := q.reach[q.heap[a]], q.reach[q.heap[b]]
	if ra != rb {
		return ra < rb
	}
	return q.heap[a] < q.heap[b]
}

func (q *seedQueue) swap(a, b int) {
	q.heap[a], q.heap[b] = q.heap[b], q.heap[a]
	q.pos[q.heap[a]] = a
	q.pos[q.heap[b]] = b
}

func (q *seedQueue) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !q.less(i, parent) {
			break
		}
		q.swap(i, parent)
		i = parent
	}
}

func (q *seedQueue) down(i int) {
	n := len(q.heap)
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && q.less(l, smallest) {
			smallest = l
		}
		if r < n && q.less(r, smallest) {
			smallest = r
		}
		if smallest == i {
			return
		}
		q.swap(i, smallest)
		i = smallest
	}
}

// push inserts object i (must not be present).
func (q *seedQueue) push(i int) {
	q.heap = append(q.heap, i)
	q.pos[i] = len(q.heap) - 1
	q.up(len(q.heap) - 1)
}

// decrease re-establishes heap order after reach[i] decreased.
func (q *seedQueue) decrease(i int) {
	if p := q.pos[i]; p >= 0 {
		q.up(p)
	}
}

// pop removes and returns the object with smallest reachability.
func (q *seedQueue) pop() int {
	top := q.heap[0]
	last := len(q.heap) - 1
	q.swap(0, last)
	q.heap = q.heap[:last]
	q.pos[top] = -1
	if last > 0 {
		q.down(0)
	}
	return top
}

// undefined is the reachability of objects not (yet) reachable.
var undefined = math.Inf(1)
