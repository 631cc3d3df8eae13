package sweepstore

import (
	"context"
	"errors"
	"time"

	"cdf/internal/harness"
)

// Backoff is a capped exponential backoff policy with deterministic
// jitter. The zero value gets sensible defaults (100ms base, 5s cap,
// doubling, half-width jitter). Jitter is derived from (Seed, key,
// attempt) rather than a shared random stream, so the delay a given case
// sees on a given attempt does not depend on how the rest of the sweep
// was scheduled — retries are as reproducible as the runs themselves.
type Backoff struct {
	Base   time.Duration // first delay (0 = 100ms)
	Cap    time.Duration // ceiling on any delay (0 = 5s)
	Factor float64       // growth per attempt (0 = 2)
	Jitter float64       // fraction of the delay randomized, in [0,1] (0 = default 0.5; negative = none)
	Seed   uint64        // jitter source
}

// Defaults.
const (
	defaultBase   = 100 * time.Millisecond
	defaultCap    = 5 * time.Second
	defaultFactor = 2.0
	defaultJitter = 0.5
)

// norm returns b with zero fields replaced by defaults and Jitter clamped
// to [0,1].
func (b Backoff) norm() Backoff {
	if b.Base <= 0 {
		b.Base = defaultBase
	}
	if b.Cap <= 0 {
		b.Cap = defaultCap
	}
	if b.Factor < 1 {
		b.Factor = defaultFactor
	}
	switch {
	case b.Jitter == 0:
		b.Jitter = defaultJitter
	case b.Jitter < 0:
		b.Jitter = 0
	case b.Jitter > 1:
		b.Jitter = 1
	}
	return b
}

// Delay returns the wait before retry number attempt (0-based: the delay
// between the first failure and the second try). The uncapped schedule is
// Base·Factor^attempt; the result is capped at Cap, then the top Jitter
// fraction of it is replaced by a deterministic uniform draw, keeping
// every delay within [(1-Jitter)·d, d].
func (b Backoff) Delay(key string, attempt int) time.Duration {
	b = b.norm()
	if attempt < 0 {
		attempt = 0
	}
	d := float64(b.Base)
	for i := 0; i < attempt; i++ {
		d *= b.Factor
		if d >= float64(b.Cap) {
			break
		}
	}
	if d > float64(b.Cap) {
		d = float64(b.Cap)
	}
	u := harness.Draw(b.Seed, key, attempt)
	d = d * (1 - b.Jitter + b.Jitter*u)
	return time.Duration(d)
}

// Sleep waits Delay(key, attempt), returning early with ctx.Err() when
// the context fires first.
func (b Backoff) Sleep(ctx context.Context, key string, attempt int) error {
	t := time.NewTimer(b.Delay(key, attempt))
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Retryable classifies a failed run: true for the transient failure
// classes a retry can plausibly clear (wall-clock timeouts, watchdog
// trips under load, worker panics), false for deterministic failures
// that would only recur — most importantly an oracle divergence, which
// must fail fast, and cancellation, which is the sweep shutting down, not
// the case misbehaving.
func Retryable(err error) bool {
	switch {
	case err == nil:
		return false
	case errors.Is(err, harness.ErrDivergence):
		return false
	case errors.Is(err, harness.ErrCanceled),
		errors.Is(err, context.Canceled),
		errors.Is(err, context.DeadlineExceeded):
		return false
	case errors.Is(err, harness.ErrTimeout),
		errors.Is(err, harness.ErrWatchdog),
		errors.Is(err, harness.ErrPanic):
		return true
	}
	return false
}
