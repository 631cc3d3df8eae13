package cdf

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"cdf/internal/core"
	"cdf/internal/emu"
	"cdf/internal/harness"
	"cdf/internal/prog"
	"cdf/internal/workload"
)

// waitGoroutines polls until the goroutine count falls back to want: the
// harness's driving goroutine exits just after it reports, so the count
// may lag the return from Run by a scheduling delay.
func waitGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > want {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines, want %d:\n%s", runtime.NumGoroutine(), want, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestFastForwardLifecycle stops sampled runs in the middle of their first
// fast-forward span — one canceled, one timed out — and requires the
// failure class and every goroutine of the pipeline joined. The runs'
// first checkpoint lies 40M uops in, far beyond what either gets through.
func TestFastForwardLifecycle(t *testing.T) {
	opt := Options{Mode: ModeCDF, MaxUops: 50_000_000, WarmupUops: 40_000_000, Seed: 1,
		Sampling: Sampling{Interval: 1_000_000}}
	start := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	stopAt := time.AfterFunc(30*time.Millisecond, cancel)
	_, err := RunContext(ctx, "mcf", opt)
	stopAt.Stop()
	cancel()
	checkStopped(t, err, harness.ErrCanceled)
	waitGoroutines(t, start)

	opt.Timeout = 30 * time.Millisecond
	_, err = Run("mcf", opt)
	checkStopped(t, err, harness.ErrTimeout)
	waitGoroutines(t, start)
}

// checkStopped requires err to be class want, raised before any interval
// core existed (the failure snapshot is the sampler's empty one).
func checkStopped(t *testing.T, err, want error) {
	t.Helper()
	var se *harness.SimError
	if !errors.Is(err, want) || !errors.As(err, &se) {
		t.Fatalf("got %v, want %v", err, want)
	}
	if se.Snap.Cycle != 0 || se.Snap.Retired != 0 {
		t.Fatalf("stopped inside an interval, not in fast-forward: %v", err)
	}
}

// TestFastForwardStagePanics: a panic in either stage fails the run as a
// panic, a stage-A panic carries stage A's stack, and stage A is joined
// either way.
func TestFastForwardStagePanics(t *testing.T) {
	for _, c := range []struct {
		name   string
		stageA bool   // break stage A, else stage B
		want   string // required in the error
	}{
		{"stage A", true, "fast-forward stage stack"},
		{"stage B", false, "nil pointer"},
	} {
		t.Run(c.name, func(t *testing.T) {
			start := runtime.NumGoroutine()
			wl, err := workload.ByName("mcf")
			if err != nil {
				t.Fatal(err)
			}
			prg, m := wl.Build()
			w, err := core.NewWarmer(Options{Mode: ModeCDF, Seed: 1}.CoreConfig(), prg)
			if err != nil {
				t.Fatal(err)
			}
			master := emu.New(prg, m)
			if c.stageA {
				master = &emu.Emulator{} // no program: the first Step panics
			}
			s := &sampler{samp: Sampling{Interval: 1000}, end: 1000, reason: core.StopNone,
				master: master, warmer: w, ff: startFF(master, w)}
			if !c.stageA {
				s.warmer = nil // the first ObserveMemCrit panics while stage A runs on
			}
			s.ff.spans <- ffSpan{ckpt: 1_000_000}
			_, err = harness.Exec(context.Background(), s, harness.Options{})
			s.ff.closeFF()
			if !errors.Is(err, harness.ErrPanic) || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("got %v, want a panic naming %q", err, c.want)
			}
			waitGoroutines(t, start)
		})
	}
}

// TestFastForwardHalt: a program that halts inside a span ends the run
// with the early-halt error, during catch-up or during warming alike.
func TestFastForwardHalt(t *testing.T) {
	b := prog.NewBuilder("short")
	for i := 0; i < 50; i++ {
		b.Nop()
	}
	b.Halt()
	prg := b.MustProgram()
	for _, sp := range []ffSpan{{ckpt: 1000}, {catchup: 1000, ckpt: 2000}} {
		warmer, err := core.NewWarmer(Options{Mode: ModeCDF, Seed: 1}.CoreConfig(), prg)
		if err != nil {
			t.Fatal(err)
		}
		s := &sampler{samp: Sampling{Interval: 1000}, end: 2000, reason: core.StopNone,
			master: emu.New(prg, emu.NewMemory()), warmer: warmer}
		s.ff = startFF(s.master, warmer)
		s.ff.spans <- ffSpan{catchup: sp.catchup, ckpt: sp.ckpt}
		for !s.Finished() {
			s.Cycle()
		}
		s.ff.closeFF()
		if s.softErr == nil || !strings.Contains(s.softErr.Error(), "halted at uop 51") {
			t.Fatalf("span %+v: got %v, want an early halt at uop 51", sp, s.softErr)
		}
	}
}
