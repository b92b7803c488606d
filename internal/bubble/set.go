package bubble

import (
	"errors"
	"fmt"

	"incbubbles/internal/dataset"
	"incbubbles/internal/stats"
	"incbubbles/internal/trace"
	"incbubbles/internal/vecmath"
)

// Options configures a Set.
type Options struct {
	// UseTriangleInequality enables the §3 pruning of distance
	// calculations during assignment (Lemma 1 / Figure 2). When false,
	// every assignment computes the distance to every seed — the baseline
	// the paper measures speedups against.
	UseTriangleInequality bool
	// Counter receives all distance computations and prunes. Optional; a
	// private counter is used when nil.
	Counter *vecmath.Counter
	// RNG draws Build's seed sample and then the base value its Figure 2
	// probe streams are derived from. The probe streams themselves are
	// O(1)-seeded SplitMix64 values that only order a search's probes,
	// never change its answer. Only Build reads it; optional, a seed-1
	// RNG is used when nil.
	RNG *stats.RNG
	// Workers bounds the worker pool of Build's phase-1 closest-seed
	// fan-out. ≤0 selects GOMAXPROCS; 1 forces the serial path. The built
	// set is bit-identical for every setting.
	Workers int
	// Tracer records Build's seed/search/absorb spans with their
	// distance-calc deltas (internal/trace). Optional; nil records
	// nothing. Purely observational — it never perturbs the build.
	Tracer *trace.Tracer
}

// Set is a collection of data bubbles over one database: the bubbles with
// their member lists, the point→bubble ownership map, and the seed
// distance matrix that powers triangle-inequality pruning (nil when
// pruning is disabled).
type Set struct {
	dim      int
	opts     Options
	bubbles  []*Bubble
	owner    map[dataset.PointID]int
	seedDist *seedMatrix
	counter  *vecmath.Counter
}

// Common errors.
var (
	ErrNoBubbles    = errors.New("bubble: set has no bubbles")
	ErrUnknownPoint = errors.New("bubble: point has no owning bubble")
	ErrBadIndex     = errors.New("bubble: bubble index out of range")
)

// NewSet creates an empty set for d-dimensional data. Seeds are added with
// AddBubble (or by Build).
func NewSet(dim int, opts Options) (*Set, error) {
	if dim <= 0 {
		return nil, errors.New("bubble: dimension must be positive")
	}
	s := &Set{
		dim:     dim,
		opts:    opts,
		owner:   make(map[dataset.PointID]int),
		counter: opts.Counter,
	}
	if s.counter == nil {
		s.counter = &vecmath.Counter{}
	}
	if opts.UseTriangleInequality {
		s.seedDist = &seedMatrix{counter: s.counter}
	}
	return s, nil
}

// Dim returns the dimensionality of the set.
func (s *Set) Dim() int { return s.dim }

// Len returns the number of bubbles.
func (s *Set) Len() int { return len(s.bubbles) }

// Counter returns the distance counter used by the set.
func (s *Set) Counter() *vecmath.Counter { return s.counter }

// Options returns the set's configuration.
func (s *Set) Options() Options { return s.opts }

// Bubble returns the i-th bubble. The caller must not mutate it directly;
// all mutation goes through Set methods so the ownership map and seed
// distance matrix stay consistent.
func (s *Set) Bubble(i int) *Bubble { return s.bubbles[i] }

// Bubbles returns the underlying bubble slice (read-only).
func (s *Set) Bubbles() []*Bubble { return s.bubbles }

// AddBubble appends an empty bubble seeded at p and returns its index,
// extending the seed distance matrix by the new seed's row and column.
func (s *Set) AddBubble(p vecmath.Point) (int, error) {
	if p.Dim() != s.dim {
		return 0, fmt.Errorf("bubble: seed dimensionality %d want %d", p.Dim(), s.dim)
	}
	b := newBubble(s.dim, p)
	idx := len(s.bubbles)
	s.bubbles = append(s.bubbles, b)
	if s.seedDist != nil {
		s.seedDist.add(s.bubbles)
	}
	return idx, nil
}

// SetSeed moves the seed of bubble i to p, refreshing its row and column of
// the seed distance matrix. The bubble's statistics are unchanged; callers
// that want a fresh bubble use ResetBubble.
func (s *Set) SetSeed(i int, p vecmath.Point) error {
	if i < 0 || i >= len(s.bubbles) {
		return ErrBadIndex
	}
	if p.Dim() != s.dim {
		return fmt.Errorf("bubble: seed dimensionality %d want %d", p.Dim(), s.dim)
	}
	s.bubbles[i].seed = p.Clone()
	s.refreshSeedRow(i)
	return nil
}

// ResetBubble empties bubble i and re-seeds it at p. Member ownership
// entries for its former points are NOT touched; callers reassign those
// points explicitly (merge/split do).
func (s *Set) ResetBubble(i int, p vecmath.Point) error {
	if i < 0 || i >= len(s.bubbles) {
		return ErrBadIndex
	}
	if p.Dim() != s.dim {
		return fmt.Errorf("bubble: seed dimensionality %d want %d", p.Dim(), s.dim)
	}
	s.bubbles[i].reset(p)
	s.refreshSeedRow(i)
	return nil
}

func (s *Set) refreshSeedRow(i int) {
	if s.seedDist != nil {
		s.seedDist.update(s.bubbles, i)
	}
}

// SeedDistance returns the cached distance between the seeds of bubbles i
// and j (0 when pruning is disabled, since no matrix is kept). It only
// looks the entry up and never computes, so observers such as telemetry
// audits can read it without perturbing the Figure 10/11 accounting.
func (s *Set) SeedDistance(i, j int) float64 {
	if s.seedDist == nil {
		return 0
	}
	return s.seedDist.dist[i][j]
}

// Owner returns the index of the bubble compressing point id.
func (s *Set) Owner(id dataset.PointID) (int, bool) {
	i, ok := s.owner[id]
	return i, ok
}

// OwnedPoints returns the number of points with an ownership entry.
func (s *Set) OwnedPoints() int { return len(s.owner) }

// AssignTo absorbs point p into bubble i unconditionally (used by split,
// which distributes points between exactly two new seeds).
func (s *Set) AssignTo(i int, id dataset.PointID, p vecmath.Point) error {
	if i < 0 || i >= len(s.bubbles) {
		return ErrBadIndex
	}
	if _, dup := s.owner[id]; dup {
		return fmt.Errorf("bubble: point %d already assigned", id)
	}
	s.bubbles[i].absorb(id, p)
	s.owner[id] = i
	return nil
}

// Release removes point id (with coordinates p) from its owning bubble,
// decrementing the sufficient statistics, and returns the index of the
// bubble it was removed from.
func (s *Set) Release(id dataset.PointID, p vecmath.Point) (int, error) {
	i, ok := s.owner[id]
	if !ok {
		return 0, fmt.Errorf("%w: id %d", ErrUnknownPoint, id)
	}
	if err := s.bubbles[i].release(id, p); err != nil {
		return 0, err
	}
	delete(s.owner, id)
	return i, nil
}

// TakeMembers empties bubble i — zeroing its statistics and removing the
// ownership entries of its points — and returns the IDs it held, in
// ascending order. The slice is the bubble's own, handed over: the
// emptied bubble starts a new one. The seed is left in place (callers
// re-seed via ResetBubble when repositioning). It is the primitive under
// the merge and split operations of the incremental scheme.
func (s *Set) TakeMembers(i int) ([]dataset.PointID, error) {
	if i < 0 || i >= len(s.bubbles) {
		return nil, ErrBadIndex
	}
	b := s.bubbles[i]
	ids := b.members
	for _, id := range ids {
		delete(s.owner, id)
	}
	b.reset(b.seed)
	return ids, nil
}

// RemoveBubble deletes bubble i from the set. The bubble must be empty
// (drain it with TakeMembers first); removing a populated bubble would
// orphan its points. The last bubble is swapped into slot i, ownership
// entries are re-indexed, and the seed distance matrix shrinks
// accordingly. Callers holding bubble indices must treat them as
// invalidated. This is the shrink primitive behind the adaptive
// compression-rate extension (paper §6, future work).
func (s *Set) RemoveBubble(i int) error {
	if i < 0 || i >= len(s.bubbles) {
		return ErrBadIndex
	}
	if s.bubbles[i].n != 0 {
		return fmt.Errorf("bubble: RemoveBubble(%d): bubble holds %d points", i, s.bubbles[i].n)
	}
	last := len(s.bubbles) - 1
	if i != last {
		moved := s.bubbles[last]
		s.bubbles[i] = moved
		for _, id := range moved.members {
			s.owner[id] = i
		}
	}
	s.bubbles = s.bubbles[:last]
	if s.seedDist != nil {
		// The matrix mirrors the same swap-remove: last takes slot i.
		s.seedDist.remove(i)
	}
	return nil
}

// Betas returns the data summarization index β_i = n_i / N for every
// bubble (Definition 2), where N is the given total database size.
func (s *Set) Betas(total int) []float64 {
	betas := make([]float64, len(s.bubbles))
	if total <= 0 {
		return betas
	}
	for i, b := range s.bubbles {
		betas[i] = float64(b.n) / float64(total)
	}
	return betas
}

// TotalCompactness sums the compactness of all bubbles — the Table 1
// quality statistic.
func (s *Set) TotalCompactness() float64 {
	var c float64
	for _, b := range s.bubbles {
		c += b.Compactness()
	}
	return c
}

// CheckInvariants validates internal consistency (tests and debugging):
// ownership entries point at in-range bubbles, every bubble's member list
// is strictly ascending and agrees with the ownership map, and per-bubble
// counts agree with membership sizes.
func (s *Set) CheckInvariants() error {
	counts := make([]int, len(s.bubbles))
	for id, i := range s.owner {
		if i < 0 || i >= len(s.bubbles) {
			return fmt.Errorf("owner of %d out of range: %d", id, i)
		}
		counts[i]++
		if !s.bubbles[i].HasMember(id) {
			return fmt.Errorf("owner map says bubble %d holds %d but its member list disagrees", i, id)
		}
	}
	for i, b := range s.bubbles {
		if b.n != counts[i] {
			return fmt.Errorf("bubble %d: n=%d but %d ownership entries", i, b.n, counts[i])
		}
		if len(b.members) != b.n {
			return fmt.Errorf("bubble %d: n=%d but %d members", i, b.n, len(b.members))
		}
		for k := 1; k < len(b.members); k++ {
			if b.members[k-1] >= b.members[k] {
				return fmt.Errorf("bubble %d: member list not strictly ascending at %d", i, k)
			}
		}
	}
	return nil
}
