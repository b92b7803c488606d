package neighbor

import "incbubbles/internal/vecmath"

// Dense is the eager k×k seed distance matrix, extracted verbatim from
// the original bubble.Set implementation. Every mutation recomputes the
// affected row and column immediately, so every entry is always current
// and queries are pure lookups. It is the reference oracle the FastPair
// differential suite compares against, and it remains the default: for
// the paper-scale bubble counts (k ≤ a few hundred) the O(k) eager
// refresh is cheap and the branch-free row lookup keeps the Figure 2
// prune loop at full memory bandwidth.
type Dense struct {
	counter *vecmath.Counter
	pts     []vecmath.Point
	dist    [][]float64
}

// NewDense returns an empty dense index counting through counter.
func NewDense(counter *vecmath.Counter) *Dense {
	return &Dense{counter: counter}
}

// Kind identifies the implementation.
func (d *Dense) Kind() Kind { return KindDense }

// Len returns the number of indexed points.
func (d *Dense) Len() int { return len(d.pts) }

// Add appends p, computing its distance to every existing point — the
// same counted computations the original AddBubble performed.
func (d *Dense) Add(p vecmath.Point) {
	idx := len(d.pts)
	d.pts = append(d.pts, p)
	row := make([]float64, idx+1)
	for j := 0; j < idx; j++ {
		dj := d.counter.Distance(p, d.pts[j])
		row[j] = dj
		d.dist[j] = append(d.dist[j], dj)
	}
	d.dist = append(d.dist, row)
}

// Update repositions point i, eagerly refreshing its row and column.
func (d *Dense) Update(i int, p vecmath.Point) {
	d.pts[i] = p
	for j := range d.pts {
		if j == i {
			d.dist[i][i] = 0
			continue
		}
		dj := d.counter.Distance(p, d.pts[j])
		d.dist[i][j] = dj
		d.dist[j][i] = dj
	}
}

// Remove deletes point i by moving row/column last into slot i and
// truncating — no distances are computed.
func (d *Dense) Remove(i int) {
	last := len(d.pts) - 1
	if i != last {
		d.pts[i] = d.pts[last]
		for j := 0; j <= last; j++ {
			d.dist[j][i] = d.dist[j][last]
			d.dist[i][j] = d.dist[last][j]
		}
		d.dist[i][i] = 0
	}
	d.pts = d.pts[:last]
	d.dist = d.dist[:last]
	for j := range d.dist {
		d.dist[j] = d.dist[j][:last]
	}
}

// Distance returns the always-current cached entry.
//lint:hotpath
func (d *Dense) Distance(i, j int) float64 { return d.dist[i][j] }

// Peek returns the cached entry; dense entries are always current.
//lint:hotpath
func (d *Dense) Peek(i, j int) (float64, bool) { return d.dist[i][j], true }

// Row exposes the distance row of point i as a read-only slice. It is
// the fast path for the Figure 2 prune loop: the hot search scans the
// row directly instead of paying an interface call per candidate. Only
// valid until the next mutation.
//lint:hotpath
func (d *Dense) Row(i int) []float64 { return d.dist[i] }

// ClosestPair scans the cached matrix for the lexicographically smallest
// (distance, i, j): ascending (i, j) iteration with a strict < keeps the
// first — lowest-index — occurrence of the minimum.
//lint:hotpath
func (d *Dense) ClosestPair() (Pair, bool) {
	n := len(d.pts)
	if n < 2 {
		return Pair{}, false
	}
	best := Pair{I: -1}
	for i := 0; i < n; i++ {
		row := d.dist[i]
		for j := i + 1; j < n; j++ {
			if best.I < 0 || row[j] < best.Dist {
				best = Pair{I: i, J: j, Dist: row[j]}
			}
		}
	}
	return best, true
}

// NeighborsWithin returns every j != i with d(i, j) < r, ascending.
func (d *Dense) NeighborsWithin(i int, r float64) []int {
	row := d.dist[i]
	var out []int
	for j := range d.pts {
		if j != i && row[j] < r {
			out = append(out, j)
		}
	}
	return out
}
