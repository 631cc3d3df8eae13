package cdf

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"runtime/debug"

	"cdf/internal/harness"
	"cdf/internal/sweepstore"
)

// Breaker is the per-case circuit breaker a CaseExecutor consults before
// dispatching a case, keyed by cache key. *sweepd.Breaker implements it
// (and is inert when nil).
type Breaker interface {
	// Allow reports whether the case may be dispatched.
	Allow(key string) bool
	// Failure records one terminal failure and reports whether it opened
	// the case's circuit.
	Failure(key string) (opened bool)
	// Success clears the case's failures.
	Success(key string)
}

// ErrQuarantined marks a case rejected without dispatch because its
// circuit breaker is open after repeated terminal failures.
var ErrQuarantined = errors.New("case quarantined (circuit breaker open after repeated failures)")

// Attempt runs one dispatch of a case. caseID is the executor's name for
// the case (the cache key with a store, else "bench/mode"); n counts
// attempts from 0. The in-process attempt (RunAttempt) keys its chaos
// draws on caseID; a subprocess attempt may key them on a name of its own.
type Attempt func(ctx context.Context, caseID string, n int) (Result, error)

// CaseExecutor runs one case under the sweep policy shared by the
// in-process sweeps (runCase, RunCached) and the cdfsweepd supervisor,
// which differ only in how an Attempt runs:
//
//  1. with a Store, a verified cache hit is served without an attempt;
//  2. a case whose Breaker circuit is open is rejected (ErrQuarantined);
//  3. attempts run until one succeeds, a failure is not
//     sweepstore.Retryable, or Retries retries are spent, sleeping
//     Backoff between attempts and counting each retry with NoteRetry;
//  4. a success is persisted (cache + journal) before it is returned, and
//     only then clears the Breaker;
//  5. a terminal failure is journaled as StatusFailed and charged to the
//     Breaker.
//
// Cancellation is not a failure: when ctx is done after a failed attempt
// the sweep stopped, so the case is neither journaled nor charged, and the
// returned error satisfies errors.Is(err, ctx.Err()).
type CaseExecutor struct {
	// Store caches and journals results (nil = plain attempts).
	Store *sweepstore.Store
	// Retries is the per-case retry budget for transient failures.
	Retries int
	// Backoff is the delay policy between attempts; a zero Seed takes the
	// case's seed.
	Backoff sweepstore.Backoff
	// Breaker quarantines repeatedly failing cases (nil = none).
	Breaker Breaker
	// Logf logs retries and opened circuits (nil = silent).
	Logf func(format string, args ...any)
}

// Run executes one case: see CaseExecutor. fromCache reports a cache hit.
func (x CaseExecutor) Run(ctx context.Context, bench string, opt Options, attempt Attempt) (res Result, fromCache bool, err error) {
	name := bench + "/" + opt.Mode.String()
	id := name
	if x.Store != nil {
		if id, err = CaseKey(bench, opt); err != nil {
			return Result{}, false, err
		}
		if res, ok := CachedResult(x.Store, id, bench, opt.Mode); ok {
			return res, true, nil
		}
	}
	if x.Breaker != nil && !x.Breaker.Allow(id) {
		return Result{}, false, fmt.Errorf("cdf: %w: %s", ErrQuarantined, name)
	}
	bo := x.Backoff
	if bo.Seed == 0 {
		bo.Seed = opt.Seed
	}
	for n := 0; ; n++ {
		res, err := attempt(ctx, id, n)
		if err == nil {
			if x.Store != nil {
				payload, perr := json.Marshal(res)
				if perr == nil {
					perr = x.Store.Put(id, payload, sweepstore.Record{Bench: bench, Mode: opt.Mode.String(),
						Status: sweepstore.StatusDone, Attempts: n + 1})
				}
				if perr != nil {
					// The run succeeded but the durability contract did
					// not: surface it rather than silently losing the
					// crash-safety the caller asked for.
					return Result{}, false, fmt.Errorf("cdf: %s: result computed but not persisted: %w", name, perr)
				}
			}
			if x.Breaker != nil {
				x.Breaker.Success(id)
			}
			return res, false, nil
		}
		if ctx.Err() == nil && sweepstore.Retryable(err) && n < x.Retries {
			if x.Store != nil {
				x.Store.NoteRetry()
			}
			x.logf("cdf: %s attempt %d failed (%v); retrying", name, n, err)
			if bo.Sleep(ctx, id, n) == nil {
				continue
			}
		}
		if cerr := ctx.Err(); cerr != nil {
			// The sweep stopped; the case did not fail.
			if !errors.Is(err, cerr) {
				err = fmt.Errorf("%w: %w", cerr, err)
			}
			return Result{}, false, err
		}
		if x.Store != nil {
			// Best effort: the failure itself is returned to the caller.
			_ = x.Store.Fail(sweepstore.Record{Key: id, Bench: bench, Mode: opt.Mode.String(),
				Status: sweepstore.StatusFailed, Reason: harness.FailureReason(err), Attempts: n + 1})
		}
		if x.Breaker != nil && x.Breaker.Failure(id) {
			x.logf("cdf: %s: circuit opened after repeated terminal failures", name)
		}
		return Result{}, false, err
	}
}

func (x CaseExecutor) logf(format string, args ...any) {
	if x.Logf != nil {
		x.Logf(format, args...)
	}
}

// RunAttempt is the in-process Attempt: chaos pre-dispatch injection
// (delay, panic) keyed by (caseID, n), then RunContext. Its recover turns
// injected — and any other in-process — panics into the *harness.SimError
// a simulator panic produces, so sweepstore.Retryable classifies them
// alike. The cdfsim worker runs its cases through it too.
func RunAttempt(ctx context.Context, bench string, opt Options, chaos *harness.Chaos, caseID string, n int) (res Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &harness.SimError{Reason: harness.ReasonPanic, PanicValue: r,
				Stack: debug.Stack(), Seed: opt.Seed}
		}
	}()
	chaos.BeforeCase(caseID, n)
	return RunContext(ctx, bench, opt)
}

// CachedResult fetches and decodes the verified cache entry under key.
// Beyond the store's integrity checks, the payload must be the requested
// case's completed result: a store can lose work, it must never
// substitute it.
func CachedResult(store *sweepstore.Store, key, bench string, mode Mode) (Result, bool) {
	payload, ok := store.Get(key)
	if !ok {
		return Result{}, false
	}
	var res Result
	if err := json.Unmarshal(payload, &res); err != nil {
		return Result{}, false
	}
	if res.Benchmark != bench || res.Mode != mode || res.StopReason != StopCompleted {
		return Result{}, false
	}
	return res, true
}
