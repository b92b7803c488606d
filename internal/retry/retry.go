// Package retry implements a bounded, deterministic seeded-jitter
// exponential backoff engine. Every source of randomness is a seeded
// stats.RNG stream, so a policy's schedule is a pure function of its
// configuration: the same (Seed, BaseDelay, Multiplier, Jitter) always
// yields the same delays, which is what lets tests pin a retry schedule
// bit-for-bit and lets crash/recovery harnesses replay runs that
// involved retries.
//
// The engine is deliberately policy-free about WHAT retries: callers
// supply a Retryable classifier. Throughout this repository the
// convention is fail-stop — anything tagged failpoint.ErrCrash or
// wal.ErrPoisoned means the process (or log) is dead and must never be
// retried in place — so classifiers must default to NOT retrying
// unknown fatal faults and opt specific documented-retryable errors in
// (the WAL retries every checkpoint write failure but a simulated
// crash).
package retry

import (
	"context"
	"fmt"
	"time"

	"incbubbles/internal/stats"
)

// Default backoff shape used when a Policy enables retries but leaves
// the tuning fields zero.
const (
	DefaultBaseDelay  = 10 * time.Millisecond
	DefaultMaxDelay   = time.Second
	DefaultMultiplier = 2.0
)

// Attempt describes one failed try, delivered to the OnAttempt
// callback (typically wired to telemetry).
type Attempt struct {
	// N is the 1-based number of the attempt that failed.
	N int
	// Err is the failure returned by the operation.
	Err error
	// Delay is the backoff that will be slept before the next attempt,
	// or 0 when Last.
	Delay time.Duration
	// Last reports that no further attempts follow: either the budget
	// is exhausted or the error was classified non-retryable.
	Last bool
}

// Policy configures Do. The zero value runs the operation exactly once
// (no retries), so embedding a Policy in an options struct is free:
// existing behaviour is unchanged until a caller opts in by setting
// MaxAttempts > 1.
type Policy struct {
	// MaxAttempts bounds the total number of tries, including the
	// first. Values <= 1 mean a single attempt.
	MaxAttempts int
	// BaseDelay is the backoff before the second attempt
	// (DefaultBaseDelay when zero and retries are enabled).
	BaseDelay time.Duration
	// MaxDelay caps the exponential growth (DefaultMaxDelay when zero).
	MaxDelay time.Duration
	// Multiplier scales the delay between consecutive retries
	// (DefaultMultiplier when zero; must be >= 1 otherwise).
	Multiplier float64
	// Jitter in [0,1] spreads each delay uniformly over
	// [d·(1−Jitter), d·(1+Jitter)] using the seeded stream, so that a
	// delay at the MaxDelay cap may exceed it by at most the jitter
	// fraction. Zero disables jitter (pure exponential schedule).
	Jitter float64
	// Seed seeds the jitter stream. Equal seeds yield equal schedules.
	Seed int64

	// Retryable classifies errors; nil treats every error as
	// retryable. Returning false stops immediately and surfaces the
	// error as-is.
	Retryable func(error) bool
	// OnAttempt, when non-nil, observes every failed attempt
	// (telemetry hook). It runs before the backoff sleep.
	OnAttempt func(Attempt)
	// Sleep replaces the backoff sleep, a seam for tests that pin the
	// schedule without waiting it out. Nil uses a context-aware timer.
	Sleep func(ctx context.Context, d time.Duration) error
}

// withDefaults resolves the zero tuning fields.
func (p Policy) withDefaults() Policy {
	if p.BaseDelay <= 0 {
		p.BaseDelay = DefaultBaseDelay
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = DefaultMaxDelay
	}
	if p.Multiplier < 1 {
		p.Multiplier = DefaultMultiplier
	}
	if p.Jitter < 0 {
		p.Jitter = 0
	}
	if p.Jitter > 1 {
		p.Jitter = 1
	}
	return p
}

// Enabled reports whether the policy performs any retries at all.
func (p Policy) Enabled() bool { return p.MaxAttempts > 1 }

// Schedule returns the exact backoff delays Do would sleep if every
// attempt failed retryably: element k is the delay before attempt k+2.
// It consumes the same seeded stream draw-for-draw as Do, so a pinned
// test of Schedule pins Do's behaviour too.
func (p Policy) Schedule() []time.Duration {
	p = p.withDefaults()
	if !p.Enabled() {
		return nil
	}
	rng := stats.NewRNG(p.Seed)
	out := make([]time.Duration, p.MaxAttempts-1)
	for i := range out {
		out[i] = p.delay(i, rng)
	}
	return out
}

// delay computes the backoff before retry i (0-based), drawing one
// jitter sample from rng when jitter is enabled.
func (p Policy) delay(i int, rng *stats.RNG) time.Duration {
	d := float64(p.BaseDelay)
	for k := 0; k < i; k++ {
		d *= p.Multiplier
		if d >= float64(p.MaxDelay) {
			d = float64(p.MaxDelay)
			break
		}
	}
	if d > float64(p.MaxDelay) {
		d = float64(p.MaxDelay)
	}
	if p.Jitter > 0 {
		d *= 1 - p.Jitter + 2*p.Jitter*rng.Float64()
	}
	return time.Duration(d)
}

// Do runs op under the policy: attempt, classify, back off, repeat.
// It returns nil on the first success, the operation's own error when
// attempts are exhausted or the error is non-retryable, and a
// ctx-wrapping error when the context expires during a backoff sleep
// (errors.Is matches both the last operation error and the context
// error). The context is also consulted before every attempt, so a
// cancelled context never runs op.
func Do(ctx context.Context, p Policy, op func(context.Context) error) error {
	p = p.withDefaults()
	attempts := p.MaxAttempts
	if attempts < 1 {
		attempts = 1
	}
	sleep := p.Sleep
	if sleep == nil {
		sleep = sleepCtx
	}
	var rng *stats.RNG
	if p.Jitter > 0 {
		rng = stats.NewRNG(p.Seed)
	}
	for n := 1; ; n++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		err := op(ctx)
		if err == nil {
			return nil
		}
		retryable := p.Retryable == nil || p.Retryable(err)
		last := n >= attempts || !retryable
		var d time.Duration
		if !last {
			d = p.delay(n-1, rng)
		}
		if p.OnAttempt != nil {
			p.OnAttempt(Attempt{N: n, Err: err, Delay: d, Last: last})
		}
		if last {
			return err
		}
		if serr := sleep(ctx, d); serr != nil {
			return fmt.Errorf("retry: attempt %d interrupted: %w (last error: %w)", n, serr, err)
		}
	}
}

// sleepCtx sleeps for d or until ctx is done, whichever comes first.
func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}
