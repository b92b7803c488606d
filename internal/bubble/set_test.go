package bubble

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"incbubbles/internal/dataset"
	"incbubbles/internal/stats"
	"incbubbles/internal/vecmath"
)

func newTestSet(t *testing.T, seeds []vecmath.Point, ti bool) *Set {
	t.Helper()
	s, err := NewSet(len(seeds[0]), Options{
		UseTriangleInequality: ti,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range seeds {
		if _, err := s.AddBubble(p); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

// closest runs one Figure 2 search through a fresh Finder and flushes its
// distance accounting into the set's counter.
func closest(s *Set, p vecmath.Point) (int, float64, error) {
	f := s.NewFinder()
	defer f.Flush()
	return f.ClosestSeed(p, 1)
}

// assignClosest absorbs point p into the bubble closest finds for it.
func assignClosest(s *Set, id dataset.PointID, p vecmath.Point) (int, error) {
	i, _, err := closest(s, p)
	if err != nil {
		return 0, err
	}
	return i, s.AssignTo(i, id, p)
}

func TestNewSetValidation(t *testing.T) {
	if _, err := NewSet(0, Options{}); err == nil {
		t.Error("NewSet(0) accepted")
	}
	s, err := NewSet(2, Options{})
	if err != nil || s.Dim() != 2 || s.Len() != 0 {
		t.Fatalf("NewSet=%v err=%v", s, err)
	}
	if s.Counter() == nil {
		t.Error("no default counter")
	}
}

func TestAddBubbleDimensionCheck(t *testing.T) {
	s := newTestSet(t, []vecmath.Point{{0, 0}}, true)
	if _, err := s.AddBubble(vecmath.Point{1}); err == nil {
		t.Error("wrong-dim seed accepted")
	}
}

func TestSeedDistanceMatrix(t *testing.T) {
	seeds := []vecmath.Point{{0, 0}, {3, 4}, {6, 8}}
	s := newTestSet(t, seeds, true)
	if d := s.SeedDistance(0, 1); d != 5 {
		t.Errorf("SeedDistance(0,1)=%v", d)
	}
	if d := s.SeedDistance(1, 2); d != 5 {
		t.Errorf("SeedDistance(1,2)=%v", d)
	}
	if d := s.SeedDistance(0, 2); d != 10 {
		t.Errorf("SeedDistance(0,2)=%v", d)
	}
	// SetSeed refreshes row and column symmetrically.
	if err := s.SetSeed(1, vecmath.Point{0, 10}); err != nil {
		t.Fatal(err)
	}
	if d := s.SeedDistance(0, 1); d != 10 {
		t.Errorf("after SetSeed: SeedDistance(0,1)=%v", d)
	}
	if s.SeedDistance(1, 0) != s.SeedDistance(0, 1) {
		t.Error("matrix asymmetric")
	}
	if s.SeedDistance(1, 1) != 0 {
		t.Error("diagonal nonzero")
	}
	// Disabled pruning keeps no matrix.
	s2 := newTestSet(t, seeds, false)
	if s2.SeedDistance(0, 1) != 0 {
		t.Error("matrix present without pruning")
	}
}

func TestSetSeedErrors(t *testing.T) {
	s := newTestSet(t, []vecmath.Point{{0, 0}}, true)
	if err := s.SetSeed(5, vecmath.Point{0, 0}); !errors.Is(err, ErrBadIndex) {
		t.Errorf("err=%v", err)
	}
	if err := s.SetSeed(0, vecmath.Point{0}); err == nil {
		t.Error("wrong-dim accepted")
	}
	if err := s.ResetBubble(5, vecmath.Point{0, 0}); !errors.Is(err, ErrBadIndex) {
		t.Errorf("err=%v", err)
	}
	if err := s.ResetBubble(0, vecmath.Point{0}); err == nil {
		t.Error("wrong-dim reset accepted")
	}
}

func TestClosestSeedBasic(t *testing.T) {
	seeds := []vecmath.Point{{0, 0}, {10, 0}, {0, 10}}
	for _, ti := range []bool{false, true} {
		f := newTestSet(t, seeds, ti).NewFinder()
		i, d, err := f.ClosestSeed(vecmath.Point{1, 1}, 1)
		if err != nil || i != 0 {
			t.Fatalf("ti=%v: ClosestSeed=(%d,%v,%v)", ti, i, d, err)
		}
		if math.Abs(d-math.Sqrt(2)) > 1e-12 {
			t.Fatalf("ti=%v: dist=%v", ti, d)
		}
		i, _, err = f.ClosestSeedExcluding(vecmath.Point{1, 1}, 0, 2)
		if err != nil || i == 0 {
			t.Fatalf("ti=%v: Excluding returned %d err=%v", ti, i, err)
		}
	}
}

func TestClosestSeedEmptySet(t *testing.T) {
	s, _ := NewSet(2, Options{})
	if _, _, err := closest(s, vecmath.Point{0, 0}); !errors.Is(err, ErrNoBubbles) {
		t.Errorf("err=%v", err)
	}
}

// Property: the Figure 2 triangle-inequality search returns exactly the
// same winner (or an equidistant one) as the brute-force scan.
func TestTriangleInequalityMatchesBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		rng := stats.NewRNG(seed)
		d := 1 + rng.Intn(4)
		nSeeds := 2 + rng.Intn(40)
		seeds := make([]vecmath.Point, nSeeds)
		for i := range seeds {
			seeds[i] = rng.GaussianPoint(make(vecmath.Point, d), 50)
		}
		ti, _ := NewSet(d, Options{UseTriangleInequality: true})
		bf, _ := NewSet(d, Options{UseTriangleInequality: false})
		for _, p := range seeds {
			ti.AddBubble(p)
			bf.AddBubble(p)
		}
		fTI, fBF := ti.NewFinder(), bf.NewFinder()
		for trial := 0; trial < 20; trial++ {
			p := rng.GaussianPoint(make(vecmath.Point, d), 80)
			_, dTI, err1 := fTI.ClosestSeed(p, stats.SubSeed(seed, trial))
			_, dBF, err2 := fBF.ClosestSeed(p, stats.SubSeed(seed, trial))
			if err1 != nil || err2 != nil {
				return false
			}
			if math.Abs(dTI-dBF) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestTriangleInequalityActuallyPrunes(t *testing.T) {
	rng := stats.NewRNG(5)
	// Well-separated seeds: pruning should fire frequently.
	var seeds []vecmath.Point
	for i := 0; i < 20; i++ {
		seeds = append(seeds, vecmath.Point{float64(i) * 100, 0})
	}
	s := newTestSet(t, seeds, true)
	s.Counter().Reset() // discard matrix-construction counts
	for i := 0; i < 500; i++ {
		p := vecmath.Point{rng.Uniform(0, 1900), rng.Uniform(-5, 5)}
		if _, _, err := closest(s, p); err != nil {
			t.Fatal(err)
		}
	}
	if s.Counter().Pruned() == 0 {
		t.Fatal("no pruning on well-separated seeds")
	}
	frac := s.Counter().PruneFraction()
	if frac < 0.5 {
		t.Errorf("prune fraction only %.2f on well-separated seeds", frac)
	}
	// computed + pruned must equal the brute-force count: 500 queries × 20 seeds.
	if got := s.Counter().Total(); got != 500*20 {
		t.Errorf("Total=%d want %d (accounting broken)", got, 500*20)
	}
}

func TestAssignReleaseOwnership(t *testing.T) {
	s := newTestSet(t, []vecmath.Point{{0, 0}, {100, 100}}, true)
	i, err := assignClosest(s, 1, vecmath.Point{1, 1})
	if err != nil || i != 0 {
		t.Fatalf("assignClosest=(%d,%v)", i, err)
	}
	if _, err := assignClosest(s, 1, vecmath.Point{1, 1}); err == nil {
		t.Error("duplicate assignment accepted")
	}
	owner, ok := s.Owner(1)
	if !ok || owner != 0 {
		t.Fatalf("Owner=(%d,%v)", owner, ok)
	}
	if s.OwnedPoints() != 1 {
		t.Fatalf("OwnedPoints=%d", s.OwnedPoints())
	}
	idx, err := s.Release(1, vecmath.Point{1, 1})
	if err != nil || idx != 0 {
		t.Fatalf("Release=(%d,%v)", idx, err)
	}
	if _, ok := s.Owner(1); ok {
		t.Error("ownership survives release")
	}
	if _, err := s.Release(1, vecmath.Point{1, 1}); !errors.Is(err, ErrUnknownPoint) {
		t.Errorf("double release err=%v", err)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestAssignTo(t *testing.T) {
	s := newTestSet(t, []vecmath.Point{{0, 0}, {100, 100}}, true)
	if err := s.AssignTo(1, 5, vecmath.Point{1, 1}); err != nil {
		t.Fatal(err)
	}
	if owner, _ := s.Owner(5); owner != 1 {
		t.Fatalf("AssignTo ignored target: owner=%d", owner)
	}
	if err := s.AssignTo(1, 5, vecmath.Point{1, 1}); err == nil {
		t.Error("duplicate AssignTo accepted")
	}
	if err := s.AssignTo(9, 6, vecmath.Point{1, 1}); !errors.Is(err, ErrBadIndex) {
		t.Errorf("err=%v", err)
	}
}

func TestBetas(t *testing.T) {
	s := newTestSet(t, []vecmath.Point{{0, 0}, {100, 100}}, false)
	for i := 0; i < 8; i++ {
		assignClosest(s, dataset.PointID(i), vecmath.Point{0, float64(i)})
	}
	for i := 8; i < 10; i++ {
		assignClosest(s, dataset.PointID(i), vecmath.Point{100, 100})
	}
	betas := s.Betas(10)
	if math.Abs(betas[0]-0.8) > 1e-12 || math.Abs(betas[1]-0.2) > 1e-12 {
		t.Fatalf("betas=%v", betas)
	}
	z := s.Betas(0)
	if z[0] != 0 || z[1] != 0 {
		t.Fatalf("Betas(0)=%v", z)
	}
}

func TestBuild(t *testing.T) {
	rng := stats.NewRNG(2)
	db := dataset.MustNew(2)
	for i := 0; i < 500; i++ {
		db.Insert(rng.GaussianPoint(vecmath.Point{0, 0}, 5), 0)
	}
	for i := 0; i < 500; i++ {
		db.Insert(rng.GaussianPoint(vecmath.Point{50, 50}, 5), 1)
	}
	s, err := Build(db, 20, Options{UseTriangleInequality: true, RNG: stats.NewRNG(3)})
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 20 {
		t.Fatalf("Len=%d", s.Len())
	}
	if s.OwnedPoints() != db.Len() {
		t.Fatalf("owned=%d want %d", s.OwnedPoints(), db.Len())
	}
	var total int
	for _, b := range s.Bubbles() {
		total += b.N()
	}
	if total != db.Len() {
		t.Fatalf("bubble counts sum to %d want %d", total, db.Len())
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Every point's owner has the closest-or-equal seed (verify on a sample
	// against brute force).
	recs := db.Snapshot()
	for i := 0; i < 50; i++ {
		r := recs[i*20]
		owner, _ := s.Owner(r.ID)
		var best float64 = math.Inf(1)
		for _, b := range s.Bubbles() {
			if d := vecmath.Distance(r.P, b.Seed()); d < best {
				best = d
			}
		}
		got := vecmath.Distance(r.P, s.Bubble(owner).Seed())
		if got-best > 1e-9 {
			t.Fatalf("point %d assigned to non-closest seed: %v vs %v", r.ID, got, best)
		}
	}
}

func TestBuildValidation(t *testing.T) {
	db := dataset.MustNew(2)
	db.Insert(vecmath.Point{0, 0}, 0)
	if _, err := Build(db, 0, Options{}); err == nil {
		t.Error("zero seeds accepted")
	}
	if _, err := Build(db, 5, Options{}); err == nil {
		t.Error("more seeds than points accepted")
	}
}

func TestTotalCompactness(t *testing.T) {
	s := newTestSet(t, []vecmath.Point{{0, 0}, {10, 10}}, false)
	assignClosest(s, 1, vecmath.Point{0, 0})
	assignClosest(s, 2, vecmath.Point{0, 2})
	assignClosest(s, 3, vecmath.Point{10, 10})
	// Bubble 0 holds (0,0),(0,2): rep (0,1), compactness 1+1=2.
	if got := s.TotalCompactness(); math.Abs(got-2) > 1e-9 {
		t.Fatalf("TotalCompactness=%v", got)
	}
}

func TestCheckInvariantsDetectsCorruption(t *testing.T) {
	s := newTestSet(t, []vecmath.Point{{0, 0}}, true)
	assignClosest(s, 1, vecmath.Point{0, 0})
	// Corrupt: ownership entry for a point the bubble doesn't know.
	s.owner[99] = 0
	if err := s.CheckInvariants(); err == nil {
		t.Error("corruption not detected")
	}
}
