package plot

import (
	"bytes"
	"image/png"
	"math"
	"testing"

	"incbubbles/internal/bubble"
	"incbubbles/internal/dataset"
	"incbubbles/internal/optics"
	"incbubbles/internal/stats"
	"incbubbles/internal/vecmath"
)

func decode(t *testing.T, buf *bytes.Buffer, wantW, wantH int) {
	t.Helper()
	img, err := png.Decode(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("invalid PNG: %v", err)
	}
	b := img.Bounds()
	if b.Dx() != wantW || b.Dy() != wantH {
		t.Fatalf("image %dx%d want %dx%d", b.Dx(), b.Dy(), wantW, wantH)
	}
}

func mkOrder(reaches []float64) []optics.Entry {
	out := make([]optics.Entry, len(reaches))
	for i, r := range reaches {
		out[i] = optics.Entry{Obj: i, ID: uint64(i), Reach: r, Weight: 1}
	}
	return out
}

func TestReachabilityPNG(t *testing.T) {
	order := mkOrder([]float64{math.Inf(1), 1, 2, 1, 9, 1, 2, 1})
	labels := []int{-1, 0, 0, 0, -1, 1, 1, 1}
	var buf bytes.Buffer
	if err := Reachability(&buf, order, labels, 200, 100); err != nil {
		t.Fatal(err)
	}
	decode(t, &buf, 200, 100)
	// Default sizing path and nil labels.
	buf.Reset()
	if err := Reachability(&buf, order, nil, 0, 0); err != nil {
		t.Fatal(err)
	}
	decode(t, &buf, 800, 240)
}

func TestReachabilityValidation(t *testing.T) {
	var buf bytes.Buffer
	if err := Reachability(&buf, nil, nil, 10, 10); err == nil {
		t.Error("empty ordering accepted")
	}
	if err := Reachability(&buf, mkOrder([]float64{1, 2}), []int{0}, 10, 10); err == nil {
		t.Error("misaligned labels accepted")
	}
}

func TestScatterPNG(t *testing.T) {
	rng := stats.NewRNG(1)
	db := dataset.MustNew(2)
	for i := 0; i < 200; i++ {
		db.Insert(rng.GaussianPoint(vecmath.Point{0, 0}, 3), 0)
	}
	for i := 0; i < 200; i++ {
		db.Insert(rng.GaussianPoint(vecmath.Point{50, 50}, 3), 1)
	}
	var buf bytes.Buffer
	if err := Scatter(&buf, db, nil, 300, 300); err != nil {
		t.Fatal(err)
	}
	decode(t, &buf, 300, 300)
	// Custom labels, including a point missing from the map (noise).
	found := map[dataset.PointID]int{}
	db.ForEach(func(r dataset.Record) {
		if r.ID%2 == 0 {
			found[r.ID] = int(r.ID) % 3
		}
	})
	buf.Reset()
	if err := Scatter(&buf, db, found, 0, 0); err != nil {
		t.Fatal(err)
	}
	decode(t, &buf, 600, 600)
}

func TestScatterValidation(t *testing.T) {
	var buf bytes.Buffer
	if err := Scatter(&buf, dataset.MustNew(2), nil, 10, 10); err == nil {
		t.Error("empty db accepted")
	}
	db1 := dataset.MustNew(1)
	db1.Insert(vecmath.Point{1}, 0)
	if err := Scatter(&buf, db1, nil, 10, 10); err == nil {
		t.Error("1-d db accepted")
	}
}

func TestBubblesPNG(t *testing.T) {
	rng := stats.NewRNG(2)
	db := dataset.MustNew(2)
	for i := 0; i < 500; i++ {
		db.Insert(rng.GaussianPoint(vecmath.Point{10, 10}, 3), 0)
	}
	set, err := bubble.Build(db, 12, bubble.Options{RNG: stats.NewRNG(3)})
	if err != nil {
		t.Fatal(err)
	}
	var reps []vecmath.Point
	var extents []float64
	var labels []int
	for i, b := range set.Bubbles() {
		if b.N() == 0 {
			continue
		}
		reps = append(reps, b.Rep())
		extents = append(extents, b.Extent())
		labels = append(labels, i%3)
	}
	var buf bytes.Buffer
	if err := Bubbles(&buf, db, reps, extents, labels, 400, 400); err != nil {
		t.Fatal(err)
	}
	decode(t, &buf, 400, 400)
	// Without a backing database and without labels.
	buf.Reset()
	if err := Bubbles(&buf, nil, reps, extents, nil, 0, 0); err != nil {
		t.Fatal(err)
	}
	decode(t, &buf, 600, 600)
}

func TestBubblesValidation(t *testing.T) {
	var buf bytes.Buffer
	if err := Bubbles(&buf, nil, nil, nil, nil, 10, 10); err == nil {
		t.Error("no bubbles accepted")
	}
	reps := []vecmath.Point{{0, 0}}
	if err := Bubbles(&buf, nil, reps, []float64{1, 2}, nil, 10, 10); err == nil {
		t.Error("misaligned extents accepted")
	}
	if err := Bubbles(&buf, nil, reps, []float64{1}, []int{0, 1}, 10, 10); err == nil {
		t.Error("misaligned labels accepted")
	}
}

func TestLabelColors(t *testing.T) {
	if labelColor(-1) != noiseGray {
		t.Error("noise colour wrong")
	}
	if labelColor(0) == labelColor(1) {
		t.Error("adjacent labels share colour")
	}
	if labelColor(0) != labelColor(len(Palette)) {
		t.Error("palette does not wrap")
	}
}
