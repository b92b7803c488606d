package bubble

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzLoad asserts the snapshot decoder never panics and that any snapshot
// it accepts yields a set passing its invariants and re-serializing.
func FuzzLoad(f *testing.F) {
	// Valid snapshot seed.
	var buf bytes.Buffer
	set, _ := NewSet(2, Options{UseTriangleInequality: true})
	set.AddBubble([]float64{0, 0})
	set.AddBubble([]float64{5, 5})
	set.AssignTo(0, 1, []float64{0.5, 0})
	set.AssignTo(1, 2, []float64{5, 5.5})
	set.Save(&buf)
	f.Add(buf.Bytes())
	f.Add([]byte(`{"version":1,"dim":2,"bubbles":[]}`))
	f.Add([]byte(`{"version":1,"dim":-2}`))
	f.Add([]byte(`{`))
	f.Add([]byte(`{"version":1,"dim":1,"members":true,"bubbles":[{"seed":[1],"ls":[1],"n":1,"members":[7]}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Load(bytes.NewReader(data), Options{})
		if err != nil {
			return
		}
		if err := s.CheckInvariants(); err != nil {
			// Load must reject anything whose ownership bookkeeping is
			// inconsistent.
			t.Fatalf("accepted snapshot violates invariants: %v", err)
		}
		var out strings.Builder
		if err := s.Save(&out); err != nil {
			t.Fatalf("accepted snapshot failed to re-serialize: %v", err)
		}
	})
}
