package harness

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"cdf/internal/core"
	"cdf/internal/oracle"
	"cdf/internal/workload"
)

// stubSim is a scriptable Sim: it finishes after finishAt cycles with
// reason, optionally panicking first or never finishing at all.
type stubSim struct {
	cycles   uint64
	finishAt uint64
	reason   core.StopReason
	panicAt  uint64 // panic once cycles reaches this (0 = never)
	block    bool   // never finish (hung machine)
}

func (s *stubSim) Cycle() {
	s.cycles++
	if s.panicAt > 0 && s.cycles >= s.panicAt {
		panic(fmt.Errorf("core internal: injected failure at cycle %d", s.cycles))
	}
}

func (s *stubSim) Finished() bool {
	return !s.block && s.cycles >= s.finishAt
}

func (s *stubSim) StopReason() core.StopReason {
	if s.Finished() {
		return s.reason
	}
	return core.StopNone
}

func (s *stubSim) Snapshot() core.Snapshot {
	return core.Snapshot{Cycle: s.cycles, Retired: s.cycles / 2, StopReason: s.StopReason()}
}

func TestExecCompletes(t *testing.T) {
	sim := &stubSim{finishAt: 10_000, reason: core.StopCompleted}
	reason, err := Exec(context.Background(), sim, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if reason != core.StopCompleted {
		t.Fatalf("reason = %s, want completed", reason)
	}
}

func TestExecRecoversPanic(t *testing.T) {
	sim := &stubSim{finishAt: 10_000, panicAt: 137, reason: core.StopCompleted}
	_, err := Exec(context.Background(), sim, Options{})
	var se *SimError
	if !errors.As(err, &se) {
		t.Fatalf("err = %v, want *SimError", err)
	}
	if se.Reason != ReasonPanic {
		t.Fatalf("reason = %q, want panic", se.Reason)
	}
	if se.PanicValue == nil || len(se.Stack) == 0 {
		t.Fatal("panic value / stack missing")
	}
	if !se.HasSnap || se.Snap.Cycle != 137 {
		t.Fatalf("snapshot missing or wrong: %+v", se.Snap)
	}
	if !strings.Contains(err.Error(), "injected failure") {
		t.Fatalf("error loses panic context: %v", err)
	}
	// The original errInternal error is reachable through Unwrap.
	if se.Unwrap() == nil {
		t.Fatal("panic error value should unwrap")
	}
}

func TestExecClassifiesWatchdog(t *testing.T) {
	sim := &stubSim{finishAt: 64, reason: core.StopWatchdog}
	reason, err := Exec(context.Background(), sim, Options{})
	if reason != core.StopWatchdog {
		t.Fatalf("reason = %s, want watchdog", reason)
	}
	var se *SimError
	if !errors.As(err, &se) || se.Reason != ReasonWatchdog || !se.HasSnap {
		t.Fatalf("want watchdog SimError with snapshot, got %v", err)
	}
}

func TestExecClassifiesCycleBudget(t *testing.T) {
	sim := &stubSim{finishAt: 64, reason: core.StopCycleBudget}
	reason, err := Exec(context.Background(), sim, Options{})
	if reason != core.StopCycleBudget {
		t.Fatalf("reason = %s, want cycle-budget", reason)
	}
	var se *SimError
	if !errors.As(err, &se) || se.Reason != ReasonCycleBudget {
		t.Fatalf("want cycle-budget SimError, got %v", err)
	}
}

func TestExecTimeout(t *testing.T) {
	sim := &stubSim{block: true}
	start := time.Now()
	_, err := Exec(context.Background(), sim, Options{Timeout: 30 * time.Millisecond})
	var se *SimError
	if !errors.As(err, &se) || se.Reason != ReasonTimeout {
		t.Fatalf("want timeout SimError, got %v", err)
	}
	if !se.HasSnap || se.Snap.Cycle == 0 {
		t.Fatalf("timeout should carry a snapshot, got %+v", se.Snap)
	}
	if elapsed := time.Since(start); elapsed > graceWait {
		t.Fatalf("timeout took %v; cooperative stop not working", elapsed)
	}
}

func TestExecCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	sim := &stubSim{block: true}
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	_, err := Exec(ctx, sim, Options{})
	var se *SimError
	if !errors.As(err, &se) || se.Reason != ReasonCanceled {
		t.Fatalf("want canceled SimError, got %v", err)
	}
}

func TestPoolRunsAllAndIsolatesFailures(t *testing.T) {
	const n = 50
	var ran atomic.Int64
	errs := Pool(context.Background(), 4, n, func(_ context.Context, i int) error {
		ran.Add(1)
		switch {
		case i == 7:
			return fmt.Errorf("job %d failed", i)
		case i == 13:
			panic("job 13 exploded")
		}
		return nil
	})
	if ran.Load() != n {
		t.Fatalf("ran %d/%d jobs", ran.Load(), n)
	}
	for i, err := range errs {
		switch i {
		case 7:
			if err == nil || !strings.Contains(err.Error(), "job 7 failed") {
				t.Fatalf("job 7: %v", err)
			}
		case 13:
			var se *SimError
			if !errors.As(err, &se) || se.Reason != ReasonPanic {
				t.Fatalf("job 13 panic not converted: %v", err)
			}
		default:
			if err != nil {
				t.Fatalf("job %d: unexpected error %v", i, err)
			}
		}
	}
}

func TestPoolBoundsConcurrency(t *testing.T) {
	const workers = 3
	var cur, peak atomic.Int64
	Pool(context.Background(), workers, 24, func(context.Context, int) error {
		n := cur.Add(1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		time.Sleep(time.Millisecond)
		cur.Add(-1)
		return nil
	})
	if p := peak.Load(); p > workers {
		t.Fatalf("peak concurrency %d > %d workers", p, workers)
	}
}

// TestPoolCancellationDispatchStops pins the prompt-cancellation
// contract: after ctx is canceled, not one additional queued index is
// dispatched — in-flight items drain, everything else is marked with
// ctx.Err() — and Pool returns as soon as the in-flight items finish.
func TestPoolCancellationDispatchStops(t *testing.T) {
	const workers, n = 2, 64
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var dispatched atomic.Int64
	inFlight := make(chan struct{}, workers)
	go func() { // cancel once both workers hold an in-flight item
		for i := 0; i < workers; i++ {
			<-inFlight
		}
		cancel()
	}()
	errs := Pool(ctx, workers, n, func(ctx context.Context, i int) error {
		dispatched.Add(1)
		inFlight <- struct{}{}
		<-ctx.Done() // block until the sweep is canceled
		return ctx.Err()
	})
	// Pool has returned: every item either ran (and was canceled inside)
	// or was drained without dispatch.
	if got := dispatched.Load(); got != workers {
		t.Fatalf("%d items dispatched, want exactly the %d in flight at cancellation", got, workers)
	}
	ran, drained := 0, 0
	for i, err := range errs {
		if err == nil {
			t.Fatalf("item %d reported success during a canceled sweep", i)
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("item %d: %v, want context.Canceled", i, err)
		}
		if i < workers {
			ran++
		} else {
			drained++
		}
	}
	if ran != workers || drained != n-workers {
		t.Fatalf("ran %d / drained %d, want %d / %d", ran, drained, workers, n-workers)
	}
}

func TestPoolCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var started atomic.Int64
	errs := Pool(ctx, 2, 40, func(context.Context, int) error {
		if started.Add(1) == 2 {
			cancel()
		}
		time.Sleep(2 * time.Millisecond)
		return nil
	})
	canceled := 0
	for _, err := range errs {
		if errors.Is(err, context.Canceled) {
			canceled++
		}
	}
	if canceled == 0 {
		t.Fatal("cancellation did not stop any queued jobs")
	}
	if int(started.Load())+canceled != 40 {
		t.Fatalf("started %d + canceled %d != 40", started.Load(), canceled)
	}
}

// TestSentinels: every failure class matches its errors.Is target and no
// other.
func TestSentinels(t *testing.T) {
	cases := []struct {
		reason string
		target error
	}{
		{ReasonPanic, ErrPanic},
		{ReasonTimeout, ErrTimeout},
		{ReasonCanceled, ErrCanceled},
		{ReasonWatchdog, ErrWatchdog},
		{ReasonCycleBudget, ErrCycleBudget},
		{ReasonDivergence, ErrDivergence},
	}
	all := []error{ErrPanic, ErrTimeout, ErrCanceled, ErrWatchdog, ErrCycleBudget, ErrDivergence}
	for _, c := range cases {
		err := error(&SimError{Reason: c.reason})
		for _, target := range all {
			if got, want := errors.Is(err, target), target == c.target; got != want {
				t.Errorf("reason %q: errors.Is(%v) = %v, want %v", c.reason, target, got, want)
			}
		}
	}
	// The unresponsive-timeout variant still matches ErrTimeout.
	if !errors.Is(&SimError{Reason: ReasonTimeout + " (simulator unresponsive)"}, ErrTimeout) {
		t.Error("suffixed timeout reason does not match ErrTimeout")
	}
}

// TestExecReportsDivergence: a commit bug caught by the oracle comes out
// of Exec as an ErrDivergence *SimError with the seed stamped and the
// *oracle.DivergenceError in its chain, and a rerun of the same bench,
// mode and seed diverges at the same commit with the same effect.
func TestExecReportsDivergence(t *testing.T) {
	w, err := workload.ByName("mcf")
	if err != nil {
		t.Fatal(err)
	}
	run := func() error {
		p, m := w.Build()
		cfg := core.Default()
		cfg.Mode = core.ModeCDF
		cfg.Seed = 7
		cfg.MaxRetired = 4000
		cfg.MaxCycles = cfg.MaxRetired * 500
		cfg.WatchdogCycles = 50_000
		c, err := core.New(cfg, p, m)
		if err != nil {
			t.Fatal(err)
		}
		oracle.Attach(c, p, m)
		c.SetCommitFault(func(e *core.CommitEffect) {
			if e.HasDst {
				e.DstValue ^= 1
			}
		})
		_, err = Exec(context.Background(), c, Options{Seed: 7})
		return err
	}
	divergence := func() *oracle.DivergenceError {
		err := run()
		if !errors.Is(err, ErrDivergence) {
			t.Fatalf("Exec error = %v, want ErrDivergence", err)
		}
		var sim *SimError
		if !errors.As(err, &sim) || sim.Seed != 7 {
			t.Fatalf("SimError seed not stamped: %v", err)
		}
		var div *oracle.DivergenceError
		if !errors.As(err, &div) {
			t.Fatalf("error chain lacks *oracle.DivergenceError: %v", err)
		}
		return div
	}
	d1, d2 := divergence(), divergence()
	if d1.Checked != d2.Checked || d1.Got != d2.Got {
		t.Fatalf("rerun not deterministic: commit %d (%s) vs commit %d (%s)",
			d1.Checked, d1.Got, d2.Checked, d2.Got)
	}
}
