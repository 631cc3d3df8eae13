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

// TestSkipVerifierNamesCounters checks that a statistics or partition
// stall counter mismatch in the skip verifier reports only the diverging
// counters, by name.
func TestSkipVerifierNamesCounters(t *testing.T) {
	w, err := workload.ByName("mcf")
	if err != nil {
		t.Fatal(err)
	}
	p, m := w.Build()
	cfg := Default()
	cfg.Mode = ModeCDF
	c, err := New(cfg, p, m)
	if err != nil {
		t.Fatal(err)
	}
	pred := &skipPrediction{at: c.now, want: *c.st, sig: c.sig()}
	pred.want.RetiredUops += 3
	pred.want.LLCHits++
	pred.stalls[1] = partStalls{crit: 2}
	c.skipPred = pred
	defer func() {
		msg := fmt.Sprint(recover())
		for _, s := range []string{"retired_uops: pred 3 got 0", "llc_hits: pred 1 got 0",
			"lq_partition_stalls: pred {crit:2 non:0} got {crit:0 non:0}"} {
			if !strings.Contains(msg, s) {
				t.Errorf("verifier message lacks %q:\n%s", s, msg)
			}
		}
		if n := strings.Count(msg, "\n"); n != 3 {
			t.Errorf("verifier message has %d counter lines, want 3:\n%s", n, msg)
		}
	}()
	c.verifySkipPrediction()
}

// TestSkipCoverage pins how much of a memory-bound run the idle skip
// covers: on the two most stall-bound kernels, the CDF modes must need no
// more Cycle calls per simulated cycle than baseline, within 10%. CDF
// episodes stall the same way baseline does; a refusal that makes them run
// cycle by cycle (such as stopping each jump at a partition counter reset)
// fails here with the refusal counts by reason.
func TestSkipCoverage(t *testing.T) {
	const uops = 50_000
	for _, name := range []string{"mcf", "omnetpp"} {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			w, err := workload.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			rate := func(mode Mode) (float64, [numSkipRefusals]uint64) {
				p, m := w.Build()
				cfg := Default()
				cfg.Mode = mode
				cfg.MaxRetired = uops
				cfg.WarmupRetired = uops / 4
				cfg.Seed = 1
				c, err := New(cfg, p, m)
				if err != nil {
					t.Fatal(err)
				}
				var refusals [numSkipRefusals]uint64
				c.debugSkipRefusals = &refusals
				calls := 0
				for !c.Finished() {
					c.Cycle()
					calls++
				}
				return float64(calls) / float64(c.now), refusals
			}
			base, _ := rate(ModeBaseline)
			for _, mode := range []Mode{ModeCDF, ModeHybrid} {
				got, refusals := rate(mode)
				t.Logf("%v: %.3f Cycle calls per cycle (baseline %.3f); refusals sig/delta/event/partition/k0 %v",
					mode, got, base, refusals)
				if got > 1.1*base {
					t.Errorf("%v: %.3f Cycle calls per cycle, want <= 1.1 x baseline %.3f; refusals sig/delta/event/partition/k0 %v",
						mode, got, base, refusals)
				}
			}
		})
	}
}
