package failpoint

import (
	"errors"
	"testing"
)

func TestNilRegistryIsNoOp(t *testing.T) {
	var r *Registry
	r.ArmError("p", 1, nil)
	r.ArmCrash("p", 1)
	r.ArmTorn("p", 1)
	if err := r.Hit("p"); err != nil {
		t.Fatalf("nil registry Hit returned %v", err)
	}
	keep, err := r.HitWrite("p", 10)
	if err != nil || keep != 10 {
		t.Fatalf("nil registry HitWrite = (%d, %v), want (10, nil)", keep, err)
	}
	if r.Hits("p") != 0 {
		t.Fatal("nil registry reported hits")
	}
}

func TestArmErrorFiresOnNthHitThenDisarms(t *testing.T) {
	r := New(1)
	sentinel := errors.New("boom")
	r.ArmError("p", 3, sentinel)
	for i := 1; i <= 2; i++ {
		if err := r.Hit("p"); err != nil {
			t.Fatalf("hit %d fired early: %v", i, err)
		}
	}
	if err := r.Hit("p"); !errors.Is(err, sentinel) {
		t.Fatalf("hit 3 = %v, want sentinel", err)
	}
	if err := r.Hit("p"); err != nil {
		t.Fatalf("point did not disarm after firing: %v", err)
	}
	if got := r.Hits("p"); got != 4 {
		t.Fatalf("Hits = %d, want 4", got)
	}
}

func TestArmErrorDefaultsToErrInjected(t *testing.T) {
	r := New(1)
	r.ArmError("p", 1, nil)
	if err := r.Hit("p"); !errors.Is(err, ErrInjected) {
		t.Fatalf("got %v, want ErrInjected", err)
	}
}

func TestArmCrash(t *testing.T) {
	r := New(1)
	r.ArmCrash("p", 1)
	keep, err := r.HitWrite("p", 100)
	if !errors.Is(err, ErrCrash) {
		t.Fatalf("got %v, want ErrCrash", err)
	}
	if keep != 0 {
		t.Fatalf("crash persisted %d bytes, want 0", keep)
	}
}

func TestArmTornPersistsSeededPrefix(t *testing.T) {
	r1 := New(42)
	r2 := New(42)
	r1.ArmTorn("p", 1)
	r2.ArmTorn("p", 1)
	k1, err1 := r1.HitWrite("p", 1000)
	k2, err2 := r2.HitWrite("p", 1000)
	if !errors.Is(err1, ErrCrash) || !errors.Is(err2, ErrCrash) {
		t.Fatalf("torn writes returned %v / %v, want ErrCrash", err1, err2)
	}
	if k1 != k2 {
		t.Fatalf("same seed gave different torn prefixes: %d vs %d", k1, k2)
	}
	if k1 < 0 || k1 >= 1000 {
		t.Fatalf("torn prefix %d out of [0, 1000)", k1)
	}
	// Torn on a non-write point degrades to a crash.
	r1.ArmTorn("q", 1)
	if err := r1.Hit("q"); !errors.Is(err, ErrCrash) {
		t.Fatalf("torn on Hit = %v, want ErrCrash", err)
	}
}

func TestModeString(t *testing.T) {
	cases := map[Mode]string{ModeError: "error", ModeCrash: "crash", ModeTorn: "torn", Mode(9): "Mode(9)"}
	for m, want := range cases {
		if got := m.String(); got != want {
			t.Fatalf("Mode(%d).String() = %q, want %q", uint8(m), got, want)
		}
	}
}
