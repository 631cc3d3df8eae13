package main

import (
	"io"
	"testing"

	"cdf"
	"cdf/internal/core"
)

// TestTracedRunMatchesRun pins -trace to the machine the untraced run
// simulates: a traced frontend run must end on the same cycle as cdf.Run
// with the same options, and must differ from the frontend-off machine.
func TestTracedRunMatchesRun(t *testing.T) {
	opt := cdf.Options{Mode: cdf.ModeBaseline, MaxUops: 20_000, Seed: 1, Frontend: true, PerfectL1I: true}
	want, err := cdf.Run("server", opt)
	if err != nil {
		t.Fatalf("cdf.Run: %v", err)
	}
	c, err := tracedRun("server", opt, &core.TextTracer{W: io.Discard, MaxEvents: 100})
	if err != nil {
		t.Fatalf("traced run: %v", err)
	}
	if c.Cycles() != want.Cycles || c.Retired() != want.Uops {
		t.Fatalf("traced run: %d cycles, %d uops; cdf.Run: %d cycles, %d uops",
			c.Cycles(), c.Retired(), want.Cycles, want.Uops)
	}

	off := opt
	off.Frontend, off.PerfectL1I = false, false
	c, err = tracedRun("server", off, &core.TextTracer{W: io.Discard})
	if err != nil {
		t.Fatalf("traced run, frontend off: %v", err)
	}
	if c.Cycles() == want.Cycles {
		t.Fatalf("frontend flags did not change the traced machine (%d cycles both ways)", c.Cycles())
	}
}

// TestTracedRunValidates pins that -trace rejects the option combinations
// the untraced run rejects, and a sampled run, which has no one machine to
// trace.
func TestTracedRunValidates(t *testing.T) {
	for _, opt := range []cdf.Options{
		{Mode: cdf.ModeBaseline, MaxUops: 3000, FDIP: true},
		{Mode: cdf.ModeBaseline, MaxUops: 3000, WarmupUops: 3000},
		{Mode: cdf.ModeBaseline, MaxUops: 40_000, Sampling: cdf.Sampling{Interval: 10_000}},
	} {
		if _, err := tracedRun("server", opt, &core.TextTracer{W: io.Discard}); err == nil {
			t.Errorf("traced run accepted invalid options %+v", opt)
		}
	}
}
