package cf

import (
	"testing"

	"incbubbles/internal/vecmath"
)

func TestFeatureBasics(t *testing.T) {
	f := NewFeature(2)
	if f.N() != 0 || f.Centroid() != nil {
		t.Fatal("empty feature stats wrong")
	}
	if err := f.Add(vecmath.Point{0, 0}); err != nil {
		t.Fatal(err)
	}
	if err := f.Add(vecmath.Point{2, 0}); err != nil {
		t.Fatal(err)
	}
	if !f.Centroid().Equal(vecmath.Point{1, 0}) {
		t.Fatalf("centroid=%v", f.Centroid())
	}
	if err := f.Add(vecmath.Point{1}); err == nil {
		t.Fatal("wrong-dim Add accepted")
	}
}

func TestFromPoints(t *testing.T) {
	if _, err := FromPoints(nil); err == nil {
		t.Fatal("empty FromPoints accepted")
	}
	f, err := FromPoints([]vecmath.Point{{0, 0}, {4, 0}})
	if err != nil || f.N() != 2 {
		t.Fatalf("FromPoints=%v err=%v", f, err)
	}
	if _, err := FromPoints([]vecmath.Point{{0, 0}, {4}}); err == nil {
		t.Fatal("mixed dims accepted")
	}
}
