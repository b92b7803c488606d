// The audit extension of the codec fuzz lives in an external test package:
// telemetry imports bubble, so the bubble package itself must never import
// telemetry — only its black-box tests may close the loop.
package bubble_test

import (
	"bytes"
	"testing"

	"incbubbles/internal/bubble"
	"incbubbles/internal/telemetry"
)

// FuzzLoadAudit extends the codec fuzz across the telemetry boundary: any
// snapshot Load accepts — however corrupt its sufficient statistics — must
// survive an invariant audit (structured violations, no panic) and still
// round-trip through Save byte-identically, so auditing and persistence
// compose on damaged states.
func FuzzLoadAudit(f *testing.F) {
	var buf bytes.Buffer
	set, _ := bubble.NewSet(2, bubble.Options{UseTriangleInequality: true})
	set.AddBubble([]float64{0, 0})
	set.AddBubble([]float64{5, 5})
	set.AssignTo(0, 1, []float64{0.5, 0})
	set.AssignTo(1, 2, []float64{5, 5.5})
	set.Save(&buf)
	f.Add(buf.Bytes())
	f.Add([]byte(`{"version":1,"dim":2,"bubbles":[{"seed":[0,0],"n":4,"ls":[8,8],"ss":1,"members":[1,2,3,4]}]}`))
	f.Add([]byte(`{"version":1,"dim":2,"bubbles":[{"seed":[1,1],"n":0,"ls":[0,1],"ss":-3}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := bubble.Load(bytes.NewReader(data), bubble.Options{})
		if err != nil {
			return
		}
		total := 0
		for _, b := range s.Bubbles() {
			if b.N() > 0 {
				total += b.N()
			}
		}
		for _, v := range telemetry.AuditWith(s, total, telemetry.AuditOptions{MaxViolations: 16}) {
			if v.Code == telemetry.CodeInternal {
				t.Fatalf("audit panicked on decodable snapshot: %v", v)
			}
		}
		var first, second bytes.Buffer
		if err := s.Save(&first); err != nil {
			t.Fatalf("audited snapshot failed to save: %v", err)
		}
		back, err := bubble.Load(bytes.NewReader(first.Bytes()), bubble.Options{})
		if err != nil {
			t.Fatalf("saved snapshot does not reload: %v", err)
		}
		if err := back.Save(&second); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("save/load not a fixed point:\n%s\nvs\n%s", first.Bytes(), second.Bytes())
		}
	})
}
