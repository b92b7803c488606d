// Package failpoint is a seeded, deterministic fault-injection layer for
// crash-safety testing. Durability code (internal/wal, the
// core.Summarizer apply path) evaluates named failpoints at every I/O and
// state-transition boundary; a test arms a point with an error, a
// simulated crash, or a torn write, runs the workload, and then exercises
// recovery from whatever state the "crash" left on disk.
//
// Determinism is the design constraint: arming is by (point, hit-count),
// never by probability against a wall clock, and the only randomness — the
// length of a torn-write prefix — is drawn from a stats.RNG stream owned
// by the registry, so a failing schedule replays bit-for-bit from its
// seed (the same rule bubblelint's seededrng analyzer enforces for the
// summarization core).
//
// A nil *Registry is a valid no-op receiver, mirroring telemetry.Sink:
// production call sites evaluate failpoints unconditionally with zero
// branching burden and near-zero cost.
package failpoint

import (
	"errors"
	"fmt"
	"sync"

	"incbubbles/internal/stats"
)

// ErrCrash is the error a crash-mode failpoint injects. By convention the
// component that observes it must behave as if the process died at that
// instant: abandon all in-memory state and make no further writes. Tests
// then recover from the on-disk state alone.
var ErrCrash = errors.New("failpoint: simulated crash")

// ErrInjected is the default error of an error-mode failpoint armed
// without an explicit error value.
var ErrInjected = errors.New("failpoint: injected error")

// ErrNoSpace simulates ENOSPC: the device ran out of space mid-write.
// Unlike ErrCrash the process survives to observe the error, so the
// component must follow its documented disk-full semantics (the WAL
// poisons its append path fail-stop but keeps checkpoint failures
// retryable).
var ErrNoSpace = errors.New("failpoint: simulated ENOSPC (no space left on device)")

// Mode selects what an armed failpoint does when it fires.
type Mode uint8

const (
	// ModeError makes the point return an ordinary error once: the
	// component survives and is expected to degrade gracefully.
	ModeError Mode = iota
	// ModeCrash makes the point return ErrCrash before any effect: for a
	// write-type point, nothing is persisted.
	ModeCrash
	// ModeTorn applies to write-type points: a seeded prefix of the
	// buffer is persisted, then ErrCrash is returned — the classic torn
	// write a power loss leaves behind. On non-write points it behaves
	// like ModeCrash.
	ModeTorn
)

// String implements fmt.Stringer for Mode.
func (m Mode) String() string {
	switch m {
	case ModeError:
		return "error"
	case ModeCrash:
		return "crash"
	case ModeTorn:
		return "torn"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// arm is one armed failpoint: it fires when countdown evaluations of its
// point have happened, then disarms.
type arm struct {
	mode      Mode
	countdown int
	err       error
}

// Registry tracks failpoint arm state and hit counts. The zero value is
// not usable; construct with New. All methods are safe on a nil receiver
// (every point is disarmed) and safe for concurrent use.
type Registry struct {
	mu   sync.Mutex
	rng  *stats.RNG
	arms map[string]*arm
	hits map[string]int
}

// New returns a registry whose torn-write prefix lengths are drawn from a
// stats.RNG stream seeded with seed, so an injected fault schedule is
// reproducible.
func New(seed int64) *Registry {
	return &Registry{
		rng:  stats.NewRNG(seed),
		arms: make(map[string]*arm),
		hits: make(map[string]int),
	}
}

// ArmError makes point return err (ErrInjected when nil) on its hit-th
// evaluation from now (hit ≥ 1), then disarm.
func (r *Registry) ArmError(point string, hit int, err error) {
	if err == nil {
		err = ErrInjected
	}
	r.armMode(point, hit, ModeError, err)
}

// ArmCrash makes point return ErrCrash on its hit-th evaluation from now
// (hit ≥ 1), then disarm.
func (r *Registry) ArmCrash(point string, hit int) {
	r.armMode(point, hit, ModeCrash, ErrCrash)
}

// ArmTorn makes point persist a seeded prefix of the write buffer and then
// return ErrCrash on its hit-th evaluation from now (hit ≥ 1), then
// disarm.
func (r *Registry) ArmTorn(point string, hit int) {
	r.armMode(point, hit, ModeTorn, ErrCrash)
}

// ArmTornError makes a write-type point persist a seeded prefix of the
// buffer and then return err (ErrNoSpace when nil) on its hit-th
// evaluation from now (hit ≥ 1), then disarm. This is the disk-full
// shape: the write stops partway, but — unlike ArmTorn — the process
// lives to observe the error and must degrade rather than die.
func (r *Registry) ArmTornError(point string, hit int, err error) {
	if err == nil {
		err = ErrNoSpace
	}
	r.armMode(point, hit, ModeTorn, err)
}

func (r *Registry) armMode(point string, hit int, mode Mode, err error) {
	if r == nil {
		return
	}
	if hit < 1 {
		hit = 1
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.arms[point] = &arm{mode: mode, countdown: hit, err: err}
}

// Hit evaluates a non-write failpoint: it counts the evaluation and
// returns the armed error if the point fires now, nil otherwise.
func (r *Registry) Hit(point string) error {
	_, err := r.eval(point, 0)
	return err
}

// HitWrite evaluates a write-type failpoint guarding a buffer of n bytes.
// It returns how many leading bytes the caller must persist before
// failing with the returned error: (n, nil) when the point does not fire,
// (0, err) for an error or crash, and (k, ErrCrash) with a seeded
// 0 ≤ k < n for a torn write.
func (r *Registry) HitWrite(point string, n int) (int, error) {
	return r.eval(point, n)
}

func (r *Registry) eval(point string, n int) (int, error) {
	if r == nil {
		return n, nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.hits[point]++
	a, ok := r.arms[point]
	if !ok {
		return n, nil
	}
	a.countdown--
	if a.countdown > 0 {
		return n, nil
	}
	delete(r.arms, point)
	if a.mode == ModeTorn && n > 0 {
		return r.rng.Intn(n), a.err
	}
	return 0, a.err
}

// Hits returns how many times point has been evaluated since construction.
func (r *Registry) Hits(point string) int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.hits[point]
}
