package core

import (
	"fmt"
	"strings"
	"testing"

	"cdf/internal/workload"
)

// TestSkipPredictions runs every machine mode with the idle-skip verifier
// enabled: instead of jumping the clock, trySkip records its predicted
// statistics and machine signature, the core then simulates the skipped
// window cycle by cycle, and verifySkipPrediction panics on any mismatch.
// This checks the skip's event model (nextEvent) directly — every stretch
// the fast path would have skipped is proven to behave as replicated.
func TestSkipPredictions(t *testing.T) {
	const uops = 20_000
	for _, mode := range []Mode{ModeBaseline, ModeCDF, ModePRE, ModeHybrid} {
		for _, w := range workload.All() {
			mode, w := mode, w
			t.Run(fmt.Sprintf("%v/%s", mode, w.Name), func(t *testing.T) {
				t.Parallel()
				p, m := w.Build()
				cfg := Default()
				cfg.Mode = mode
				cfg.MaxRetired = uops
				cfg.MaxCycles = uops * 100
				cfg.Seed = 1
				c, err := New(cfg, p, m)
				if err != nil {
					t.Fatal(err)
				}
				c.debugVerifySkip = true
				for !c.Finished() {
					c.Cycle()
				}
			})
		}
	}
}

// TestSkipVerifierNamesCounters checks that a statistics mismatch in the
// skip verifier reports only the diverging counters, by name.
func TestSkipVerifierNamesCounters(t *testing.T) {
	w, err := workload.ByName("mcf")
	if err != nil {
		t.Fatal(err)
	}
	p, m := w.Build()
	c, err := New(Default(), p, m)
	if err != nil {
		t.Fatal(err)
	}
	want := *c.st
	want.RetiredUops += 3
	want.LLCHits++
	c.skipPred = &skipPrediction{at: c.now, want: want, sig: c.sig()}
	defer func() {
		msg := fmt.Sprint(recover())
		for _, s := range []string{"retired_uops: pred 3 got 0", "llc_hits: pred 1 got 0"} {
			if !strings.Contains(msg, s) {
				t.Errorf("verifier message lacks %q:\n%s", s, msg)
			}
		}
		if n := strings.Count(msg, "\n"); n != 2 {
			t.Errorf("verifier message has %d counter lines, want 2:\n%s", n, msg)
		}
	}()
	c.verifySkipPrediction()
}
