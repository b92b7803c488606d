package vecmath

import (
	"math"
	"sync/atomic"
)

// Counter counts Euclidean distance computations. The paper's efficiency
// results (Figures 10 and 11) are expressed in numbers of distance
// calculations saved, so every code path whose cost matters routes distance
// evaluation through a Counter. The zero value is ready to use. Counting is
// atomic so concurrent experiment repetitions may share one counter.
type Counter struct {
	computed uint64
	pruned   uint64
}

// Distance computes the Euclidean distance between p and q and counts one
// computation.
//
//lint:hotpath
func (c *Counter) Distance(p, q Point) float64 {
	atomic.AddUint64(&c.computed, 1)
	return math.Sqrt(SquaredDistance(p, q))
}

// SquaredDistance computes the squared distance, counting one computation.
// A squared distance has the same cost profile as a full distance (one pass
// over the coordinates), so it counts identically.
//
//lint:hotpath
func (c *Counter) SquaredDistance(p, q Point) float64 {
	atomic.AddUint64(&c.computed, 1)
	return SquaredDistance(p, q)
}

// Prune records that one distance computation was avoided by a triangle-
// inequality comparison (a lookup plus comparison rather than a coordinate
// scan).
//
//lint:hotpath
func (c *Counter) Prune() { atomic.AddUint64(&c.pruned, 1) }

// PruneN records n avoided computations at once.
//
//lint:hotpath
func (c *Counter) PruneN(n int) {
	if n > 0 {
		atomic.AddUint64(&c.pruned, uint64(n))
	}
}

// Computed returns the number of distance computations performed.
func (c *Counter) Computed() uint64 { return atomic.LoadUint64(&c.computed) }

// Pruned returns the number of distance computations avoided.
func (c *Counter) Pruned() uint64 { return atomic.LoadUint64(&c.pruned) }

// Total returns computed + pruned: the number of distance computations a
// naive implementation without pruning would have performed.
func (c *Counter) Total() uint64 { return c.Computed() + c.Pruned() }

// PruneFraction returns the fraction of would-be computations that were
// avoided, in [0,1]. It returns 0 when nothing was counted.
func (c *Counter) PruneFraction() float64 {
	t := c.Total()
	if t == 0 {
		return 0
	}
	return float64(c.Pruned()) / float64(t)
}

// Add merges externally accumulated counts into the counter — the merge
// point for the per-worker Tally values of a parallel assignment phase.
//
//lint:hotpath
func (c *Counter) Add(computed, pruned uint64) {
	atomic.AddUint64(&c.computed, computed)
	atomic.AddUint64(&c.pruned, pruned)
}

// Reset zeroes the counter.
func (c *Counter) Reset() {
	atomic.StoreUint64(&c.computed, 0)
	atomic.StoreUint64(&c.pruned, 0)
}

// Snapshot returns the current (computed, pruned) pair.
func (c *Counter) Snapshot() (computed, pruned uint64) {
	return c.Computed(), c.Pruned()
}

// Tally is a plain, non-atomic distance tally owned by a single goroutine.
// The parallel assignment pipeline gives every worker its own Tally and
// folds the tallies into the shared Counter (AddTo) when each worker's
// chunk completes, so the per-point search loop avoids cross-core
// contention on the Counter's cache line while the merged totals stay
// exactly what a serial run would have counted.
type Tally struct {
	Computed uint64
	Pruned   uint64
}

// Distance computes the Euclidean distance between p and q and tallies one
// computation.
//
//lint:hotpath
func (t *Tally) Distance(p, q Point) float64 {
	t.Computed++
	return math.Sqrt(SquaredDistance(p, q))
}

// Prune tallies one avoided distance computation.
//
//lint:hotpath
func (t *Tally) Prune() { t.Pruned++ }

// PruneN tallies n avoided computations at once.
//
//lint:hotpath
func (t *Tally) PruneN(n int) {
	if n > 0 {
		t.Pruned += uint64(n)
	}
}

// Total returns computed + pruned.
func (t *Tally) Total() uint64 { return t.Computed + t.Pruned }

// AddTo folds the tally into c and zeroes the tally.
//
//lint:hotpath
func (t *Tally) AddTo(c *Counter) {
	c.Add(t.Computed, t.Pruned)
	*t = Tally{}
}
