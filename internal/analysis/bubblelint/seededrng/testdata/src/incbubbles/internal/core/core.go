// Package core exercises the seededrng analyzer in a deterministic
// package: math/rand globals and wall-clock entropy are forbidden, while
// explicitly seeded sources and timing-only time.Now remain legal.
package core

import (
	"math/rand"
	"time"
)

// Global-generator draws are nondeterministic across runs: the
// acceptance-criterion case for internal/core.
func globals() int {
	n := rand.Intn(10)                 // want `math/rand global Intn`
	f := rand.Float64()                // want `math/rand global Float64`
	rand.Shuffle(n, func(i, j int) {}) // want `math/rand global Shuffle`
	return n + int(f)
}

// Wall-clock seeding defeats reproducibility even through a local source.
func clockSeeded() *rand.Rand {
	seed := time.Now().UnixNano() // want `wall-clock entropy \(time\.Now\(\)\.UnixNano\)`
	src := rand.NewSource(seed)
	return rand.New(src)
}

// The inline classic is flagged at both the constructor and the clock read.
func classic() *rand.Rand {
	return rand.New(rand.NewSource(time.Now().UnixNano())) // want `rand source seeded from the wall clock` `rand source seeded from the wall clock` `wall-clock entropy`
}

// An explicit seed threaded from the caller is the sanctioned pattern.
func seeded(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed))
}

// Naming the types is fine; only draws from the global are not.
type shuffler struct {
	r *rand.Rand
}

func (s *shuffler) draw() float64 { return s.r.Float64() }

// Plain time.Now for durations stays legal: timing is not entropy.
func timed(f func()) time.Duration {
	t0 := time.Now()
	f()
	return time.Since(t0)
}

// Suppression with a reason works here as everywhere.
func allowed() int {
	//lint:allow seededrng fixture demonstrates a documented exception
	return rand.Int()
}
