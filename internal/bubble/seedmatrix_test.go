package bubble

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"incbubbles/internal/dataset"
	"incbubbles/internal/stats"
	"incbubbles/internal/vecmath"
)

// TestClosestSeedTieBreak pins the tie rule: with deliberately
// equidistant seeds, the search must return the lowest bubble ID under
// every probe order, with and without pruning. Seeds 0 and 1 are 2
// apart. The off-line query is √2 from both, so Lemma 1 cannot prune
// either against the other and the explicit tie adoption decides. The
// midpoint query is 1 from both, so each seed sits exactly 2·minDist from
// the other — Lemma 1's equality case, where pruning the lower ID would
// lose the tie.
func TestClosestSeedTieBreak(t *testing.T) {
	seeds := []vecmath.Point{{0, 0}, {2, 0}, {10, 10}}
	queries := []struct {
		name string
		p    vecmath.Point
		want float64
	}{
		{"off-line", vecmath.Point{1, 1}, math.Sqrt(2)},
		{"midpoint", vecmath.Point{1, 0}, 1},
	}
	cases := []struct {
		name string
		opts Options
	}{
		{"pruning", Options{UseTriangleInequality: true}},
		{"no-pruning", Options{}},
	}
	for _, tc := range cases {
		s, err := NewSet(2, tc.opts)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range seeds {
			if _, err := s.AddBubble(p); err != nil {
				t.Fatal(err)
			}
		}
		f := s.NewFinder()
		for _, q := range queries {
			for seed := int64(1); seed <= 40; seed++ {
				idx, d, err := f.ClosestSeed(q.p, seed)
				if err != nil {
					t.Fatal(err)
				}
				if idx != 0 || d != q.want {
					t.Fatalf("%s %s seed=%d: bubble %d at %g, want bubble 0 at %g",
						tc.name, q.name, seed, idx, d, q.want)
				}
			}
		}
	}
}

// TestBuildWorkerParity builds the same set serially and with a worker
// pool and requires bit-identical bubbles — seeds, counts, sufficient
// statistics — and identical distance accounting.
func TestBuildWorkerParity(t *testing.T) {
	rng := stats.NewRNG(31)
	db := dataset.MustNew(3)
	for i := 0; i < 600; i++ {
		db.Insert(rng.GaussianPoint(vecmath.Point{float64(i % 5), float64(i % 7), 1}, 2), 0)
	}
	build := func(workers int) (*Set, *vecmath.Counter) {
		ctr := &vecmath.Counter{}
		s, err := Build(db, 24, Options{
			UseTriangleInequality: true,
			Counter:               ctr,
			RNG:                   stats.NewRNG(5),
			Workers:               workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		return s, ctr
	}
	ref, refCtr := build(1)
	got, gotCtr := build(4)
	if got.Len() != ref.Len() {
		t.Fatalf("%d bubbles, want %d", got.Len(), ref.Len())
	}
	for i := 0; i < ref.Len(); i++ {
		rb, gb := ref.Bubble(i), got.Bubble(i)
		if !pointsEqual(rb.Seed(), gb.Seed()) || !pointsEqual(rb.LS(), gb.LS()) ||
			rb.N() != gb.N() || rb.SS() != gb.SS() {
			t.Fatalf("bubble %d diverged from the serial build", i)
		}
	}
	if gotCtr.Computed() != refCtr.Computed() || gotCtr.Pruned() != refCtr.Pruned() {
		t.Fatalf("4 workers computed/pruned %d/%d distances, serial %d/%d",
			gotCtr.Computed(), gotCtr.Pruned(), refCtr.Computed(), refCtr.Pruned())
	}
}

func pointsEqual(a, b vecmath.Point) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Byte-program opcodes for FuzzSeedMatrix. Each op is one opcode byte
// plus three argument bytes; indices are taken modulo the current bubble
// count and seeds come from a coarse integer lattice, so coincident seeds
// and exact-distance ties are common.
const (
	opAdd = iota
	opRemove
	opUpdate
	opDistance
	numOps
)

// latticePoint decodes a 3-d lattice seed from three bytes.
func latticePoint(a, b, c byte) vecmath.Point {
	return vecmath.Point{float64(a % 8), float64(b % 8), float64(c % 8)}
}

// matrixMachine drives a pruning-enabled Set through seed mutations
// beside a plain mirror of its seeds, and checks the whole seed distance
// matrix and the distance accounting after every operation.
type matrixMachine struct {
	set   *Set
	seeds []vecmath.Point
	// afterOp, when set, runs after every operation that passed its
	// checks, with the operation's three argument bytes.
	afterOp func(a, b, c byte) error
}

func newMatrixMachine(dim int) *matrixMachine {
	s, err := NewSet(dim, Options{UseTriangleInequality: true})
	if err != nil {
		panic(err) // dim is a positive constant at every call site
	}
	return &matrixMachine{set: s}
}

func (m *matrixMachine) len() int { return len(m.seeds) }

// add appends a bubble seeded at p: len−1 counted distances.
func (m *matrixMachine) add(p vecmath.Point) error {
	before := m.set.Counter().Computed()
	if _, err := m.set.AddBubble(p); err != nil {
		return err
	}
	m.seeds = append(m.seeds, p)
	return m.check("add", before, m.len()-1)
}

// update moves seed i to p: len−1 counted distances.
func (m *matrixMachine) update(i int, p vecmath.Point) error {
	before := m.set.Counter().Computed()
	if err := m.set.SetSeed(i, p); err != nil {
		return err
	}
	m.seeds[i] = p
	return m.check("update", before, m.len()-1)
}

// remove deletes the (empty) bubble i; the last bubble takes slot i and
// no distance is computed.
func (m *matrixMachine) remove(i int) error {
	before := m.set.Counter().Computed()
	if err := m.set.RemoveBubble(i); err != nil {
		return err
	}
	last := m.len() - 1
	m.seeds[i] = m.seeds[last]
	m.seeds = m.seeds[:last]
	return m.check("remove", before, 0)
}

// distance reads one entry, which must be a pure lookup.
func (m *matrixMachine) distance(i, j int) error {
	before := m.set.Counter().Computed()
	m.set.SeedDistance(i, j)
	return m.check("distance", before, 0)
}

// check requires the set's seeds to follow the mirror, every matrix entry
// to equal vecmath.Distance of the current seeds bit for bit with a zero
// diagonal and exact symmetry, and the shared counter to have advanced
// by exactly want distances since before — the check's own lookups
// included, so they must compute nothing.
func (m *matrixMachine) check(op string, before uint64, want int) error {
	if m.set.Len() != m.len() {
		return fmt.Errorf("%s: set has %d bubbles, mirror %d", op, m.set.Len(), m.len())
	}
	for i, p := range m.seeds {
		if !pointsEqual(m.set.Bubble(i).Seed(), p) {
			return fmt.Errorf("%s: bubble %d seed %v, mirror %v", op, i, m.set.Bubble(i).Seed(), p)
		}
	}
	for i := range m.seeds {
		if d := m.set.SeedDistance(i, i); math.Float64bits(d) != 0 {
			return fmt.Errorf("%s: diagonal (%d,%d) = %v, want +0", op, i, i, d)
		}
		for j := i + 1; j < m.len(); j++ {
			dij, dji := m.set.SeedDistance(i, j), m.set.SeedDistance(j, i)
			if math.Float64bits(dij) != math.Float64bits(dji) {
				return fmt.Errorf("%s: asymmetric (%d,%d) = %v vs %v", op, i, j, dij, dji)
			}
			if exact := vecmath.Distance(m.seeds[i], m.seeds[j]); math.Float64bits(dij) != math.Float64bits(exact) {
				return fmt.Errorf("%s: entry (%d,%d) = %v, seeds are %v apart", op, i, j, dij, exact)
			}
		}
	}
	if got := m.set.Counter().Computed() - before; got != uint64(want) {
		return fmt.Errorf("%s at %d bubbles computed %d distances, want %d", op, m.len(), got, want)
	}
	return nil
}

// applyProgram interprets a mutation/lookup byte program against the
// machine, stopping at the first failed check.
func applyProgram(m *matrixMachine, data []byte) error {
	for pc := 0; pc+3 < len(data); pc += 4 {
		op, a, b, c := data[pc]%numOps, data[pc+1], data[pc+2], data[pc+3]
		var err error
		switch {
		case op == opAdd:
			if m.len() >= 48 {
				continue // bound the quadratic checks
			}
			err = m.add(latticePoint(a, b, c))
		case m.len() == 0:
			continue
		case op == opRemove:
			err = m.remove(int(a) % m.len())
		case op == opUpdate:
			err = m.update(int(a)%m.len(), latticePoint(b, c, a))
		case op == opDistance:
			err = m.distance(int(a)%m.len(), int(b)%m.len())
		}
		if err == nil && m.afterOp != nil {
			err = m.afterOp(a, b, c)
		}
		if err != nil {
			return fmt.Errorf("pc %d: %w", pc, err)
		}
	}
	return nil
}

// churnTrace generates the byte program of a §4.2-shaped maintenance
// round: grow a population, then repeat merge→remove→reseed→add churn
// interleaved with the lookups a search phase issues.
func churnTrace(seed int64, rounds int) []byte {
	rng := stats.NewRNG(seed)
	var prog []byte
	emit := func(op byte, args ...byte) {
		for len(args) < 3 {
			args = append(args, byte(rng.Intn(256)))
		}
		prog = append(prog, op, args[0], args[1], args[2])
	}
	for i := 0; i < 12; i++ {
		emit(opAdd)
	}
	for r := 0; r < rounds; r++ {
		emit(opUpdate, byte(rng.Intn(256))) // donor reseeds after the merge
		emit(opRemove, byte(rng.Intn(256))) // merged bubble leaves
		emit(opAdd)                         // split brings a new seed
		emit(opUpdate, byte(rng.Intn(256))) // the split half reseeds too
		for q := 0; q < 3; q++ {
			emit(opDistance)
		}
	}
	return prog
}

// TestSeedMatrixChurnTraces replays the generated §4.2 churn programs —
// the deterministic twin of the fuzz target.
func TestSeedMatrixChurnTraces(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		if err := applyProgram(newMatrixMachine(3), churnTrace(seed, 20)); err != nil {
			t.Errorf("churn trace seed %d: %v", seed, err)
		}
	}
}

// FuzzSeedMatrix feeds arbitrary add/update/remove/lookup programs to a
// set and checks the full matrix and the distance accounting after every
// operation.
func FuzzSeedMatrix(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{opAdd, 1, 2, 3, opAdd, 4, 5, 6, opDistance, 0, 1, 0})
	for seed := int64(1); seed <= 4; seed++ {
		f.Add(churnTrace(seed, 6))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 4096 {
			return // bound program length; the checks are quadratic
		}
		if err := applyProgram(newMatrixMachine(3), data); err != nil {
			t.Fatal(err)
		}
	})
}

// halfLatticePoint decodes a 3-d query on the half-integer lattice that
// holds every midpoint of two latticePoint seeds.
func halfLatticePoint(a, b, c byte) vecmath.Point {
	return vecmath.Point{float64(a%16) / 2, float64(b%16) / 2, float64(c%16) / 2}
}

// newSearchMachine returns a matrixMachine that runs the brute-force
// differential of the Figure 2 search after every operation. Two queries
// derive from the operation's bytes: a half-lattice point, and the
// midpoint of two current seeds, which is equidistant from both and half
// their seed-matrix entry away — Lemma 1's equality case. Each is
// searched through one reused Finder, with probe seeds derived from
// probeSeed, both over all bubbles and with one excluded.
func newSearchMachine(probeSeed int64) *matrixMachine {
	m := newMatrixMachine(3)
	f := m.set.NewFinder()
	searches := 0
	m.afterOp = func(a, b, c byte) error {
		queries := []vecmath.Point{halfLatticePoint(a, b, c)}
		excls := []int{-1}
		if m.len() > 0 {
			queries = append(queries, vecmath.Lerp(m.seeds[int(a)%m.len()], m.seeds[int(b)%m.len()], 0.5))
			excls = append(excls, int(c)%m.len())
		}
		for _, q := range queries {
			for _, excl := range excls {
				searches++
				if err := m.checkSearch(f, q, excl, stats.SubSeed(probeSeed, searches)); err != nil {
					return err
				}
			}
		}
		return nil
	}
	return m
}

// checkSearch requires one search of q through f with probe seed seed,
// excluding bubble excl (−1 for none), to return the minimum of
// (distance, bubble ID) over the mirror's seeds with a bit-equal distance
// — ErrNoBubbles when no seed is a candidate — and to account every
// candidate seed as computed or pruned exactly once.
func (m *matrixMachine) checkSearch(f *Finder, q vecmath.Point, excl int, seed int64) error {
	want, wantD, candidates := -1, 0.0, 0
	for i, p := range m.seeds {
		if i == excl {
			continue
		}
		candidates++
		if d := vecmath.Distance(q, p); want < 0 || d < wantD {
			want, wantD = i, d
		}
	}
	before := f.tally.Total()
	var idx int
	var d float64
	var err error
	if excl < 0 {
		idx, d, err = f.ClosestSeed(q, seed)
	} else {
		idx, d, err = f.ClosestSeedExcluding(q, excl, seed)
	}
	accounted := f.tally.Total() - before
	switch {
	case want < 0 && !errors.Is(err, ErrNoBubbles):
		return fmt.Errorf("search of %v excluding %d among %d seeds: err %v, want ErrNoBubbles", q, excl, m.len(), err)
	case want >= 0 && err != nil:
		return fmt.Errorf("search of %v excluding %d: %w", q, excl, err)
	case want >= 0 && (idx != want || math.Float64bits(d) != math.Float64bits(wantD)):
		return fmt.Errorf("search of %v excluding %d = bubble %d at %v, brute force bubble %d at %v",
			q, excl, idx, d, want, wantD)
	case accounted != uint64(candidates):
		return fmt.Errorf("search of %v excluding %d accounted %d distances for %d candidates",
			q, excl, accounted, candidates)
	}
	return nil
}

// midpointProgram seeds (0,0,0), (2,0,0) and (7,7,7), then looks up
// entry (0,1), whose search query is the midpoint (1,0,0) of the first
// two seeds.
var midpointProgram = []byte{opAdd, 0, 0, 0, opAdd, 2, 0, 0, opAdd, 7, 7, 7, opDistance, 0, 1, 0}

// TestClosestSeedChurnTraces replays the midpoint program and the
// generated §4.2 churn programs through the search differential — the
// deterministic twin of FuzzClosestSeed.
func TestClosestSeedChurnTraces(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		if err := applyProgram(newSearchMachine(seed), midpointProgram); err != nil {
			t.Errorf("midpoint program, probe seed %d: %v", seed, err)
		}
		if err := applyProgram(newSearchMachine(seed), churnTrace(seed, 20)); err != nil {
			t.Errorf("churn trace seed %d: %v", seed, err)
		}
	}
}

// FuzzClosestSeed runs FuzzSeedMatrix's byte programs with a fuzzed probe
// seed and, after every operation, checks Figure 2 searches through a
// Finder against a brute-force scan.
func FuzzClosestSeed(f *testing.F) {
	f.Add(int64(1), []byte{})
	f.Add(int64(2), midpointProgram)
	for seed := int64(1); seed <= 4; seed++ {
		f.Add(seed, churnTrace(seed, 6))
	}
	f.Fuzz(func(t *testing.T, probeSeed int64, data []byte) {
		if len(data) > 4096 {
			return // bound program length, as FuzzSeedMatrix does
		}
		if err := applyProgram(newSearchMachine(probeSeed), data); err != nil {
			t.Fatal(err)
		}
	})
}

// TestSeedMatrixRandomWorkloads runs seeded random mutation/lookup
// sequences, including the merge→remove→reseed→add churn §4.2 produces,
// at k ≥ 64 in 8 dimensions, checking the whole matrix after every
// single operation.
func TestSeedMatrixRandomWorkloads(t *testing.T) {
	const dim = 8
	for seed := int64(1); seed <= 5; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := stats.NewRNG(seed)
			m := newMatrixMachine(dim)
			step := func(err error) {
				t.Helper()
				if err != nil {
					t.Fatal(err)
				}
			}
			point := func() vecmath.Point { return rng.UniformPoint(dim, 0, 10) }
			for i := 0; i < 80; i++ {
				step(m.add(point()))
			}
			for op := 0; op < 400; op++ {
				switch roll := rng.Intn(100); {
				case roll < 35:
					// The shape of a Figure 2 search: Lemma 1 lookups
					// along one candidate's row.
					i := rng.Intn(m.len())
					for probe := 0; probe < 4; probe++ {
						step(m.distance(i, rng.Intn(m.len())))
					}
				case roll < 60:
					step(m.update(rng.Intn(m.len()), point()))
				case roll < 80:
					// §4.2 merge/split churn: the donor reseeds, the merged
					// bubble is drained and removed, a split adds a bubble.
					step(m.update(rng.Intn(m.len()), point()))
					if m.len() > 66 {
						step(m.remove(rng.Intn(m.len())))
					}
					step(m.add(point()))
				default:
					if m.len() > 66 {
						step(m.remove(rng.Intn(m.len())))
					} else {
						step(m.add(point()))
					}
				}
			}
		})
	}
}

// TestSeedMatrixAfterEveryMutation applies a random add/update/remove
// sequence at small bubble counts in 4 dimensions — the population
// wanders from empty down to two bubbles and back — checking the whole
// matrix and the distance accounting after every mutation.
func TestSeedMatrixAfterEveryMutation(t *testing.T) {
	rng := stats.NewRNG(3)
	m := newMatrixMachine(4)
	point := func() vecmath.Point { return rng.UniformPoint(4, 0, 5) }
	for i := 0; i < 200; i++ {
		var err error
		switch rng.Intn(3) {
		case 0:
			err = m.add(point())
		case 1:
			if m.len() > 0 {
				err = m.update(rng.Intn(m.len()), point())
			}
		default:
			if m.len() > 2 {
				err = m.remove(rng.Intn(m.len()))
			} else {
				err = m.add(point())
			}
		}
		if err != nil {
			t.Fatalf("mutation %d: %v", i, err)
		}
	}
}

// TestSeedMatrixRemoveSwapSemantics walks removals down to an empty set,
// so the swap of the last row and column into the freed slot is checked
// at every size on the way down, then refills the emptied matrix.
func TestSeedMatrixRemoveSwapSemantics(t *testing.T) {
	rng := stats.NewRNG(23)
	m := newMatrixMachine(3)
	for i := 0; i < 20; i++ {
		if err := m.add(rng.UniformPoint(3, 0, 4)); err != nil {
			t.Fatal(err)
		}
	}
	for m.len() > 1 {
		if err := m.remove(rng.Intn(m.len())); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.remove(0); err != nil {
		t.Fatal(err)
	}
	for _, p := range []vecmath.Point{{1, 2, 3}, {1, 2, 5}} {
		if err := m.add(p); err != nil {
			t.Fatal(err)
		}
	}
}
