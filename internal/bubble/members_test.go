package bubble

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"testing"

	"incbubbles/internal/dataset"
	"incbubbles/internal/stats"
	"incbubbles/internal/vecmath"
)

// Byte-program opcodes for FuzzMembers, in FuzzSeedMatrix's encoding: one
// opcode byte plus three argument bytes, bubble indices taken modulo the
// current bubble count. Point IDs come from a 64-value space, so
// assignments below a bubble's largest ID, duplicate assignments and
// releases of unowned IDs are all common.
const (
	memAssign  = iota // bubble a gains point ID b at lattice point c
	memRelease        // point ID a leaves its bubble
	memTake           // bubble a is drained; odd c re-assigns its points to bubble b
	memRemove         // bubble a is removed, which must fail while it holds points
	memAdd            // a new empty bubble is seeded at lattice point a
	numMemOps
)

const memIDSpace = 64

// memPoint decodes a 2-d lattice point from one byte.
func memPoint(c byte) vecmath.Point {
	return vecmath.Point{float64(c % 8), float64(c / 8 % 8)}
}

// memberMachine drives a Set through membership operations beside an
// independent model of who owns what, and checks the set against the
// model after every operation.
type memberMachine struct {
	set    *Set
	owner  map[dataset.PointID]int
	coords map[dataset.PointID]vecmath.Point
}

func newMemberMachine() *memberMachine {
	s, err := NewSet(2, Options{UseTriangleInequality: true})
	if err != nil {
		panic(err) // the dimension is a positive constant
	}
	return &memberMachine{
		set:    s,
		owner:  make(map[dataset.PointID]int),
		coords: make(map[dataset.PointID]vecmath.Point),
	}
}

// assign adds (id, p) to bubble i in the set and in the model.
func (m *memberMachine) assign(i int, id dataset.PointID, p vecmath.Point) error {
	err := m.set.AssignTo(i, id, p)
	if _, dup := m.owner[id]; dup {
		if err == nil {
			return fmt.Errorf("assign of owned point %d to bubble %d accepted", id, i)
		}
		return nil
	}
	if err != nil {
		return fmt.Errorf("assign %d to bubble %d: %w", id, i, err)
	}
	m.owner[id], m.coords[id] = i, p
	return nil
}

func (m *memberMachine) step(op, a, b, c byte) error {
	k := m.set.Len()
	switch {
	case op == memAdd:
		if k >= 12 {
			return nil
		}
		_, err := m.set.AddBubble(memPoint(a))
		return err
	case k == 0:
		return nil
	case op == memAssign:
		return m.assign(int(a)%k, dataset.PointID(b%memIDSpace), memPoint(c))
	case op == memRelease:
		id := dataset.PointID(a % memIDSpace)
		i, err := m.set.Release(id, m.coords[id])
		want, owned := m.owner[id]
		switch {
		case !owned && !errors.Is(err, ErrUnknownPoint):
			return fmt.Errorf("release of unowned point %d: err %v, want ErrUnknownPoint", id, err)
		case owned && err != nil:
			return fmt.Errorf("release %d: %w", id, err)
		case owned && i != want:
			return fmt.Errorf("release %d came from bubble %d, model says %d", id, i, want)
		}
		delete(m.owner, id)
		return nil
	case op == memTake:
		i := int(a) % k
		ids, err := m.set.TakeMembers(i)
		if err != nil {
			return err
		}
		if want := m.members(i); !slices.Equal(ids, want) {
			return fmt.Errorf("bubble %d handed over %v, model holds %v", i, ids, want)
		}
		for _, id := range ids {
			delete(m.owner, id)
		}
		if c%2 == 1 {
			// Re-assign in the handed-over order, as merge and split do;
			// j may be i itself, which split's degenerate case does.
			j := int(b) % k
			for _, id := range ids {
				if err := m.assign(j, id, m.coords[id]); err != nil {
					return err
				}
			}
		}
		return nil
	case op == memRemove:
		i := int(a) % k
		err := m.set.RemoveBubble(i)
		if len(m.members(i)) > 0 {
			if err == nil {
				return fmt.Errorf("removed bubble %d holding %d points", i, len(m.members(i)))
			}
			return nil
		}
		if err != nil {
			return fmt.Errorf("remove empty bubble %d: %w", i, err)
		}
		for id, o := range m.owner {
			if o == k-1 {
				m.owner[id] = i
			}
		}
		return nil
	}
	return nil
}

// members returns the model's IDs for bubble i in ascending order.
func (m *memberMachine) members(i int) []dataset.PointID {
	var ids []dataset.PointID
	for id, o := range m.owner {
		if o == i {
			ids = append(ids, id)
		}
	}
	slices.Sort(ids)
	return ids
}

// check requires every bubble's member list, count and the ownership map
// to equal the model, the set's invariants to hold, and Save→Load→Save to
// reproduce the saved bytes.
func (m *memberMachine) check() error {
	for i, b := range m.set.Bubbles() {
		want := m.members(i)
		if got := b.MemberIDs(); !slices.Equal(got, want) {
			return fmt.Errorf("bubble %d members %v, model %v", i, got, want)
		}
		if b.N() != len(want) {
			return fmt.Errorf("bubble %d: n=%d, model holds %d", i, b.N(), len(want))
		}
	}
	for id := dataset.PointID(0); id < memIDSpace; id++ {
		got, ok := m.set.Owner(id)
		want, owned := m.owner[id]
		if ok != owned || got != want {
			return fmt.Errorf("Owner(%d) = %d, %v; model %d, %v", id, got, ok, want, owned)
		}
	}
	if m.set.OwnedPoints() != len(m.owner) {
		return fmt.Errorf("%d owned points, model %d", m.set.OwnedPoints(), len(m.owner))
	}
	if err := m.set.CheckInvariants(); err != nil {
		return err
	}
	var first, second bytes.Buffer
	if err := m.set.Save(&first); err != nil {
		return err
	}
	back, err := Load(bytes.NewReader(first.Bytes()), Options{})
	if err != nil {
		return fmt.Errorf("reload: %w", err)
	}
	if err := back.Save(&second); err != nil {
		return err
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		return fmt.Errorf("save/load not a fixed point:\n%s\nvs\n%s", first.Bytes(), second.Bytes())
	}
	return nil
}

// runMemberProgram interprets a membership byte program, checking the set
// against the model after every operation.
func runMemberProgram(data []byte) error {
	m := newMemberMachine()
	for pc := 0; pc+3 < len(data); pc += 4 {
		err := m.step(data[pc]%numMemOps, data[pc+1], data[pc+2], data[pc+3])
		if err == nil {
			err = m.check()
		}
		if err != nil {
			return fmt.Errorf("pc %d: %w", pc, err)
		}
	}
	return nil
}

// memberProgram generates a seeded program over a few bubbles, weighted
// toward assignments so bubbles fill up before they are drained.
func memberProgram(seed int64, ops int) []byte {
	rng := stats.NewRNG(seed)
	prog := []byte{memAdd, 0, 0, 0, memAdd, 9, 0, 0, memAdd, 63, 0, 0}
	for len(prog) < 4*ops {
		var op byte
		switch roll := rng.Intn(20); {
		case roll < 10:
			op = memAssign
		case roll < 13:
			op = memRelease
		case roll < 16:
			op = memTake
		case roll < 18:
			op = memRemove
		default:
			op = memAdd
		}
		prog = append(prog, op, byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256)))
	}
	return prog
}

// Hand-written membership programs. belowLargest assigns IDs 10, 3 and 7
// to one bubble, so two inserts land below its largest ID, then releases
// and re-assigns the middle one. drainAndRemove drains bubble 0 of three
// and removes it, so the last bubble and its members move into slot 0,
// after a removal of the populated bubble 1 is refused. takeAndRestore
// drains a bubble and re-assigns its points to itself, as split does when
// fewer than two points remain.
var (
	belowLargest = []byte{
		memAdd, 0, 0, 0,
		memAssign, 0, 10, 1, memAssign, 0, 3, 2, memAssign, 0, 7, 3,
		memRelease, 7, 0, 0, memAssign, 0, 7, 4,
	}
	drainAndRemove = []byte{
		memAdd, 0, 0, 0, memAdd, 1, 0, 0, memAdd, 2, 0, 0,
		memAssign, 0, 5, 0, memAssign, 1, 6, 0, memAssign, 2, 7, 0, memAssign, 2, 1, 0,
		memRemove, 1, 0, 0, memTake, 0, 0, 0, memRemove, 0, 0, 0, memAssign, 0, 2, 0,
	}
	takeAndRestore = []byte{
		memAdd, 0, 0, 0, memAdd, 5, 0, 0,
		memAssign, 0, 9, 0, memAssign, 0, 4, 0, memAssign, 1, 6, 0,
		memTake, 0, 0, 1, memTake, 0, 1, 1,
	}
)

// FuzzMembers runs membership programs — assign, release, drain,
// re-assign and remove — against a model of point ownership and checks
// every bubble's ascending member list, the ownership map, the set's
// invariants and the codec's fixed point after every operation. Its seed
// corpus runs in every go test.
func FuzzMembers(f *testing.F) {
	f.Add(belowLargest)
	f.Add(drainAndRemove)
	f.Add(takeAndRestore)
	for seed := int64(1); seed <= 4; seed++ {
		f.Add(memberProgram(seed, 300))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 4096 {
			return // bound program length; every check saves and reloads
		}
		if err := runMemberProgram(data); err != nil {
			t.Fatal(err)
		}
	})
}
