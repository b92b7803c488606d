package cf

import (
	"math"
	"testing"

	"incbubbles/internal/vecmath"
)

func TestFeatureBasics(t *testing.T) {
	f := NewFeature(2)
	if f.N() != 0 || f.Radius() != 0 || f.Centroid() != nil {
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
	// Radius: RMS distance to centroid = 1.
	if math.Abs(f.Radius()-1) > 1e-12 {
		t.Fatalf("radius=%v", f.Radius())
	}
	if err := f.Add(vecmath.Point{1}); err == nil {
		t.Fatal("wrong-dim Add accepted")
	}
	if f.String() == "" {
		t.Fatal("empty String")
	}
}

func TestFeatureRemove(t *testing.T) {
	f := NewFeature(1)
	if err := f.Remove(vecmath.Point{1}); err == nil {
		t.Fatal("remove from empty accepted")
	}
	f.Add(vecmath.Point{1})
	f.Add(vecmath.Point{3})
	if err := f.Remove(vecmath.Point{2, 3}); err == nil {
		t.Fatal("wrong-dim remove accepted")
	}
	if err := f.Remove(vecmath.Point{3}); err != nil {
		t.Fatal(err)
	}
	if !f.Centroid().Equal(vecmath.Point{1}) {
		t.Fatalf("centroid=%v", f.Centroid())
	}
	f.Remove(vecmath.Point{1})
	if f.N() != 0 || f.SS() != 0 {
		t.Fatal("drain did not zero stats")
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
