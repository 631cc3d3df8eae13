package sweepstore

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"cdf/internal/harness"
)

func TestBackoffDelayTable(t *testing.T) {
	noJitter := Backoff{Base: 100 * time.Millisecond, Cap: 2 * time.Second, Factor: 2, Jitter: -1}
	tests := []struct {
		name    string
		b       Backoff
		attempt int
		min     time.Duration
		max     time.Duration
	}{
		{"first retry", noJitter, 0, 100 * time.Millisecond, 100 * time.Millisecond},
		{"doubles", noJitter, 1, 200 * time.Millisecond, 200 * time.Millisecond},
		{"doubles again", noJitter, 2, 400 * time.Millisecond, 400 * time.Millisecond},
		{"cap respected", noJitter, 10, 2 * time.Second, 2 * time.Second},
		{"cap respected far out", noJitter, 60, 2 * time.Second, 2 * time.Second},
		{"negative attempt clamps", noJitter, -3, 100 * time.Millisecond, 100 * time.Millisecond},
		{"full jitter lower bound", Backoff{Base: time.Second, Cap: time.Second, Factor: 2, Jitter: 1}, 0, 0, time.Second},
		{"half jitter bounds", Backoff{Base: time.Second, Cap: time.Second, Factor: 2, Jitter: 0.5}, 0, 500 * time.Millisecond, time.Second},
		{"defaults applied", Backoff{}, 0, 50 * time.Millisecond, 100 * time.Millisecond},
		{"defaults cap", Backoff{}, 30, 2500 * time.Millisecond, 5 * time.Second},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			d := tt.b.Delay("case-key", tt.attempt)
			if d < tt.min || d > tt.max {
				t.Fatalf("Delay(%d) = %v, want in [%v, %v]", tt.attempt, d, tt.min, tt.max)
			}
		})
	}
}

// TestBackoffJitterBoundsSweep hammers the jitter draw across many keys
// and attempts: every delay must stay within [(1-Jitter)·d, d] of the
// deterministic schedule and the draws must not all collapse to one value.
func TestBackoffJitterBoundsSweep(t *testing.T) {
	b := Backoff{Base: 80 * time.Millisecond, Cap: 10 * time.Second, Factor: 2, Jitter: 0.5, Seed: 3}
	distinct := map[time.Duration]bool{}
	for k := 0; k < 50; k++ {
		key := fmt.Sprintf("key-%d", k)
		for attempt := 0; attempt < 6; attempt++ {
			sched := 80 * time.Millisecond << attempt
			d := b.Delay(key, attempt)
			if d < sched/2 || d > sched {
				t.Fatalf("key %s attempt %d: delay %v outside [%v, %v]", key, attempt, d, sched/2, sched)
			}
			if attempt == 0 {
				distinct[d] = true
			}
		}
	}
	if len(distinct) < 10 {
		t.Fatalf("jitter nearly constant: %d distinct first-retry delays over 50 keys", len(distinct))
	}
}

// TestBackoffDeterministic: the same (seed, key, attempt) always produces
// the same delay — retries replay exactly, independent of sweep order.
func TestBackoffDeterministic(t *testing.T) {
	b := Backoff{Seed: 11}
	for attempt := 0; attempt < 5; attempt++ {
		if b.Delay("k", attempt) != b.Delay("k", attempt) {
			t.Fatalf("attempt %d: delay not deterministic", attempt)
		}
	}
	if b.Delay("ka", 0) == b.Delay("kb", 0) && b.Delay("ka", 1) == b.Delay("kb", 1) {
		t.Fatal("different keys share the whole jitter schedule")
	}
}

// TestBackoffJitterPinned pins a few jittered delays, so a change to the
// seeded draw behind them (harness.Draw) shows as a failure here.
func TestBackoffJitterPinned(t *testing.T) {
	for _, tc := range []struct {
		seed    uint64
		key     string
		attempt int
		want    time.Duration
	}{
		{0, "mcf/cdf", 0, 63256529},
		{1, "mcf/cdf", 1, 153959696},
		{3, "astar/baseline", 2, 372459036},
		{11, "lbm/pre", 0, 52338764},
		{11, "lbm/pre", 4, 1281946737},
	} {
		b := Backoff{Base: 100 * time.Millisecond, Cap: 5 * time.Second, Factor: 2, Jitter: 0.5, Seed: tc.seed}
		if got := b.Delay(tc.key, tc.attempt); got != tc.want {
			t.Errorf("seed %d Delay(%q, %d) = %d, want %d", tc.seed, tc.key, tc.attempt, got, tc.want)
		}
	}
}

// TestBackoffBudgetExhaustedInOrder drives a retry loop the way
// cdf.CaseExecutor does and checks the budget is consumed attempt by
// attempt, in order, with the delays following the capped schedule.
func TestBackoffBudgetExhaustedInOrder(t *testing.T) {
	b := Backoff{Base: time.Millisecond, Cap: 4 * time.Millisecond, Factor: 2, Jitter: -1}
	const budget = 4
	var delays []time.Duration
	attempts := 0
	for attempt := 0; ; attempt++ {
		attempts++
		err := errors.New("transient") // every try fails
		_ = err
		if attempt >= budget {
			break
		}
		delays = append(delays, b.Delay("k", attempt))
	}
	if attempts != budget+1 {
		t.Fatalf("ran %d attempts, want %d (budget %d retries + initial try)", attempts, budget+1, budget)
	}
	want := []time.Duration{1 * time.Millisecond, 2 * time.Millisecond, 4 * time.Millisecond, 4 * time.Millisecond}
	for i, d := range delays {
		if d != want[i] {
			t.Fatalf("delay %d = %v, want %v (schedule %v)", i, d, want[i], want)
		}
	}
}

func TestBackoffSleepHonorsContext(t *testing.T) {
	b := Backoff{Base: 10 * time.Second, Cap: 10 * time.Second, Jitter: -1}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	if err := b.Sleep(ctx, "k", 0); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if time.Since(start) > time.Second {
		t.Fatal("Sleep ignored the canceled context")
	}
}

func TestRetryableClassification(t *testing.T) {
	wrap := func(err error) error { return fmt.Errorf("pool item 3: %w", err) }
	tests := []struct {
		name string
		err  error
		want bool
	}{
		{"nil", nil, false},
		{"timeout", &harness.SimError{Reason: harness.ReasonTimeout}, true},
		{"watchdog", &harness.SimError{Reason: harness.ReasonWatchdog}, true},
		{"panic", &harness.SimError{Reason: harness.ReasonPanic, PanicValue: "boom"}, true},
		{"divergence never retried", &harness.SimError{Reason: harness.ReasonDivergence}, false},
		{"cycle budget is deterministic", &harness.SimError{Reason: harness.ReasonCycleBudget}, false},
		{"canceled", &harness.SimError{Reason: harness.ReasonCanceled}, false},
		{"context canceled", context.Canceled, false},
		{"deadline", context.DeadlineExceeded, false},
		{"wrapped timeout", wrap(&harness.SimError{Reason: harness.ReasonTimeout}), true},
		{"wrapped divergence", wrap(&harness.SimError{Reason: harness.ReasonDivergence}), false},
		{"plain error", errors.New("validate: bad options"), false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := Retryable(tt.err); got != tt.want {
				t.Fatalf("Retryable(%v) = %v, want %v", tt.err, got, tt.want)
			}
		})
	}
}
