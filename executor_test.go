package cdf

import (
	"context"
	"errors"
	"math"
	"slices"
	"strings"
	"testing"
	"time"

	"cdf/internal/harness"
	"cdf/internal/sweepstore"
)

// testBreaker is a map-backed Breaker opening a case's circuit at two
// terminal failures.
type testBreaker map[string]int

func (b testBreaker) Allow(key string) bool { return b[key] < 2 }
func (b testBreaker) Failure(key string) bool {
	b[key]++
	return b[key] == 2
}
func (b testBreaker) Success(key string) { delete(b, key) }

// TestCaseExecutor drives the executor's policy with a fake attempt
// function against a real store: cache hits, retries, fail-fast,
// cancellation, persistence failures and the breaker.
func TestCaseExecutor(t *testing.T) {
	const bench = "astar"
	opt := Options{Mode: ModeCDF, MaxUops: 2000, Seed: 3}
	key, err := CaseKey(bench, opt)
	if err != nil {
		t.Fatal(err)
	}
	good := Result{Benchmark: bench, Mode: ModeCDF, StopReason: StopCompleted, Cycles: 4321, Uops: 2000}
	unpersistable := good
	unpersistable.IPC = math.NaN() // json.Marshal rejects NaN
	timeout := &harness.SimError{Reason: harness.ReasonTimeout}
	diverged := &harness.SimError{Reason: harness.ReasonDivergence}

	tests := []struct {
		name     string
		cached   bool    // the case's result is in the store before the run
		fails    int     // breaker failures charged to the case before the run
		retries  int     // CaseExecutor.Retries
		outcomes []error // per attempt (nil = success); the last repeats
		result   Result  // what a successful attempt returns
		cancel   bool    // the first attempt cancels the sweep before failing

		wantCalls     int
		wantErr       error // errors.Is target (nil = success)
		wantErrText   string
		wantCache     bool
		wantRetries   int64 // NoteRetry count
		wantPuts      int64
		wantFailures  []int // Attempts of each StatusFailed record journaled
		wantBreakerAt int   // the case's breaker failures after the run
	}{
		{name: "cache hit", cached: true, outcomes: []error{diverged},
			wantCache: true},
		{name: "miss persists", outcomes: []error{nil}, result: good,
			wantCalls: 1, wantPuts: 1},
		{name: "retryable exhausts budget", retries: 2, outcomes: []error{timeout},
			wantCalls: 3, wantErr: harness.ErrTimeout, wantRetries: 2,
			wantFailures: []int{3}, wantBreakerAt: 1},
		{name: "retry then success", retries: 2, outcomes: []error{timeout, nil}, result: good,
			wantCalls: 2, wantRetries: 1, wantPuts: 1},
		{name: "divergence fails fast", retries: 3, outcomes: []error{diverged},
			wantCalls: 1, wantErr: harness.ErrDivergence, wantFailures: []int{1}, wantBreakerAt: 1},
		{name: "cancellation is not a failure", retries: 3, cancel: true, outcomes: []error{timeout},
			wantCalls: 1, wantErr: context.Canceled},
		{name: "persist failure is an error", fails: 1, outcomes: []error{nil}, result: unpersistable,
			wantCalls: 1, wantErrText: "not persisted", wantBreakerAt: 1},
		{name: "open breaker rejects without dispatch", fails: 2, outcomes: []error{nil}, result: good,
			wantErr: ErrQuarantined, wantBreakerAt: 2},
		{name: "open breaker still serves cache", cached: true, fails: 2, outcomes: []error{diverged},
			wantCache: true, wantBreakerAt: 2},
		{name: "success clears breaker", fails: 1, outcomes: []error{nil}, result: good,
			wantCalls: 1, wantPuts: 1},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			store, err := sweepstore.Open(t.TempDir(), false)
			if err != nil {
				t.Fatal(err)
			}
			defer store.Close()
			if tc.cached {
				seed := CaseExecutor{Store: store}
				if _, _, err := seed.Run(context.Background(), bench, opt, func(context.Context, string, int) (Result, error) {
					return good, nil
				}); err != nil {
					t.Fatalf("seeding the cache: %v", err)
				}
			}
			before := store.Stats()
			breaker := testBreaker{}
			if tc.fails > 0 {
				breaker[key] = tc.fails
			}
			x := CaseExecutor{Store: store, Retries: tc.retries, Breaker: breaker,
				Backoff: sweepstore.Backoff{Base: time.Microsecond, Cap: time.Microsecond}}

			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			calls := 0
			res, fromCache, err := x.Run(ctx, bench, opt, func(_ context.Context, caseID string, n int) (Result, error) {
				if caseID != key || n != calls {
					t.Errorf("attempt got (%.12s, %d), want (%.12s, %d)", caseID, n, key, calls)
				}
				calls++
				if tc.cancel {
					cancel()
				}
				if out := tc.outcomes[min(n, len(tc.outcomes)-1)]; out != nil {
					return Result{}, out
				}
				return tc.result, nil
			})

			switch {
			case tc.wantErr != nil:
				if !errors.Is(err, tc.wantErr) {
					t.Fatalf("err = %v, want %v", err, tc.wantErr)
				}
			case tc.wantErrText != "":
				if err == nil || !strings.Contains(err.Error(), tc.wantErrText) {
					t.Fatalf("err = %v, want one mentioning %q", err, tc.wantErrText)
				}
			case err != nil:
				t.Fatalf("unexpected error: %v", err)
			case res.Cycles != good.Cycles:
				t.Fatalf("result %+v, want %+v", res, good)
			}
			if calls != tc.wantCalls || fromCache != tc.wantCache {
				t.Errorf("attempts = %d, fromCache = %v; want %d, %v", calls, fromCache, tc.wantCalls, tc.wantCache)
			}
			st := store.Stats()
			if got := st.Retries - before.Retries; got != tc.wantRetries {
				t.Errorf("NoteRetry counted %d, want %d", got, tc.wantRetries)
			}
			if got := st.Puts - before.Puts; got != tc.wantPuts {
				t.Errorf("puts = %d, want %d", got, tc.wantPuts)
			}
			var failures []int
			for _, rec := range store.Records() {
				if rec.Type == sweepstore.RecordCase && rec.Status == sweepstore.StatusFailed {
					if rec.Key != key || rec.Bench != bench || rec.Mode != "cdf" {
						t.Errorf("failure record %+v names the wrong case", rec)
					}
					failures = append(failures, rec.Attempts)
				}
			}
			if !slices.Equal(failures, tc.wantFailures) {
				t.Errorf("failure records (attempts) = %v, want %v", failures, tc.wantFailures)
			}
			if got := breaker[key]; got != tc.wantBreakerAt {
				t.Errorf("breaker failures = %d, want %d", got, tc.wantBreakerAt)
			}
		})
	}
}

// TestCaseExecutorWithoutStore pins the storeless path: attempts are keyed
// by the case's name and nothing is cached.
func TestCaseExecutorWithoutStore(t *testing.T) {
	opt := Options{Mode: ModePRE, Seed: 1}
	var ids []string
	x := CaseExecutor{Retries: 1, Backoff: sweepstore.Backoff{Base: time.Microsecond, Cap: time.Microsecond}}
	_, fromCache, err := x.Run(context.Background(), "lbm", opt, func(_ context.Context, caseID string, n int) (Result, error) {
		ids = append(ids, caseID)
		return Result{}, &harness.SimError{Reason: harness.ReasonPanic}
	})
	if !errors.Is(err, harness.ErrPanic) || fromCache {
		t.Fatalf("err = %v, fromCache = %v; want the attempt's panic, uncached", err, fromCache)
	}
	if len(ids) != 2 || ids[0] != "lbm/pre" || ids[1] != "lbm/pre" {
		t.Fatalf("attempt case IDs = %q, want two attempts keyed lbm/pre", ids)
	}
}
