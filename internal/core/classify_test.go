package core

import (
	"testing"

	"incbubbles/internal/dataset"
	"incbubbles/internal/stats"
)

// TestClassifyTieBreakByID pins the merge-candidate ordering contract:
// bubbles with exactly equal β sort by lowest bubble ID, so donor/over
// pairing never depends on sort internals. Bubble 2 gets the largest
// share and bubbles 5 and 7 get exactly equal shares, all over-filled.
func TestClassifyTieBreakByID(t *testing.T) {
	rng := stats.NewRNG(13)
	db := dataset.MustNew(2)
	for i := 0; i < 140; i++ {
		db.Insert(rng.UniformPoint(2, 0, 10), 0)
	}
	s, err := New(db, Options{NumBubbles: 11, Config: Config{Probability: 0.05}, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	// Redistribute ownership to exact counts: 40 / 30 / 30 on bubbles
	// 2, 5, 7 and 5 each on the rest.
	var ids []dataset.PointID
	for i := 0; i < s.Set().Len(); i++ {
		got, err := s.Set().TakeMembers(i)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, got...)
	}
	counts := map[int]int{2: 40, 5: 30, 7: 30}
	for i := 0; i < 11; i++ {
		if counts[i] == 0 {
			counts[i] = 5
		}
	}
	next := 0
	for i := 0; i < 11; i++ {
		for n := 0; n < counts[i]; n++ {
			rec, err := db.Get(ids[next])
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Set().AssignTo(i, rec.ID, rec.P); err != nil {
				t.Fatal(err)
			}
			next++
		}
	}
	cl := s.Classify()
	if len(cl.Over) != 3 || cl.Over[0] != 2 || cl.Over[1] != 5 || cl.Over[2] != 7 {
		t.Fatalf("Over = %v, want [2 5 7]: β-descending with equal-β ties by lowest ID", cl.Over)
	}
}
