package core

import (
	"testing"

	"cdf/internal/emu"
	"cdf/internal/prog"
	"cdf/internal/workload"
)

// TestInvariantsEveryCycle runs several kernels in every mode with the full
// structural validator after each cycle. This is the deepest correctness
// test in the repository: it catches ordering, partition-accounting, and
// rename-bookkeeping regressions at the cycle they occur.
func TestInvariantsEveryCycle(t *testing.T) {
	kernels := []string{"astar", "bzip", "mcf", "lbm", "sphinx", "zeusmp", "omnetpp"}
	modes := []Mode{ModeBaseline, ModeCDF, ModePRE, ModeHybrid}
	if testing.Short() {
		kernels = kernels[:3]
		modes = []Mode{ModeCDF, ModeHybrid}
	}
	for _, name := range kernels {
		for _, mode := range modes {
			name, mode := name, mode
			t.Run(name+"/"+mode.String(), func(t *testing.T) {
				w, err := workload.ByName(name)
				if err != nil {
					t.Fatal(err)
				}
				p, m := w.Build()
				cfg := Default()
				cfg.Mode = mode
				cfg.MaxRetired = 15_000
				cfg.MaxCycles = 3_000_000
				c, err := New(cfg, p, m)
				if err != nil {
					t.Fatal(err)
				}
				for !c.finished {
					c.Cycle()
					// Release stream pages as eagerly as the live window
					// allows, so a record released while an entry still
					// points at it fails the check below. The machine's own
					// release runs every 4096 retired uops and lands near a
					// page boundary, which hides such a bug.
					c.strm.Release(c.oldestLiveSeq())
					if c.now%64 == 0 { // every cycle is too slow; 64 catches fast
						if err := c.CheckInvariants(); err != nil {
							t.Fatalf("cycle %d: %v", c.now, err)
						}
					}
				}
				if err := c.CheckInvariants(); err != nil {
					t.Fatalf("final: %v", err)
				}
			})
		}
	}
}

// TestROBCountersEveryCycle recounts the RS occupancy and the Fig. 1 ROB
// composition from the ROB sections after every cycle (ParanoidEvery 1),
// on a stall-heavy and a branchy kernel and on one whose memory-order
// violations flush correct-path entries, in every mode. The counters have
// exactly three update sites — dispatch, retire and flush — and a missed
// update fails at the cycle it happens.
func TestROBCountersEveryCycle(t *testing.T) {
	kernels := map[string]func() (*prog.Program, *emu.Memory){"memviol": buildMemViolationKernel}
	for _, name := range []string{"mcf", "astar"} {
		w, err := workload.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		kernels[name] = w.Build
	}
	for name, build := range kernels {
		for _, mode := range []Mode{ModeBaseline, ModeCDF, ModePRE, ModeHybrid} {
			t.Run(name+"/"+mode.String(), func(t *testing.T) {
				p, m := build()
				cfg := Default()
				cfg.Mode = mode
				cfg.TrainCriticality = true
				cfg.MaxRetired = 10_000
				cfg.MaxCycles = 3_000_000
				cfg.ParanoidEvery = 1
				c, err := New(cfg, p, m)
				if err != nil {
					t.Fatal(err)
				}
				defer func() {
					if r := recover(); r != nil {
						t.Fatal(r)
					}
				}()
				c.Run()
				st := c.Stats()
				if st.RetiredUops < cfg.MaxRetired {
					t.Fatalf("stalled at %d uops", st.RetiredUops)
				}
				if name == "mcf" && st.FullWindowStallCycles == 0 {
					t.Fatal("no full-window stall sampled the Fig. 1 counters")
				}
				if name == "memviol" && st.MemOrderViolations == 0 {
					t.Fatal("no memory-order violation flushed correct-path entries")
				}
			})
		}
	}
}

// TestInvariantsUnderViolationStorm drives the dependence-violation kernel
// (alternating paths, mask instability) with per-cycle checking.
func TestInvariantsUnderViolationStorm(t *testing.T) {
	p, m := buildViolationKernel()
	cfg := Default()
	cfg.Mode = ModeCDF
	cfg.MaxRetired = 30_000
	cfg.MaxCycles = 6_000_000
	// A tiny mask-reset interval destabilizes the masks on purpose.
	cfg.CDF.MaskResetInterval = 5_000
	c, err := New(cfg, p, m)
	if err != nil {
		t.Fatal(err)
	}
	for !c.finished {
		c.Cycle()
		if c.now%32 == 0 {
			if err := c.CheckInvariants(); err != nil {
				t.Fatalf("cycle %d: %v", c.now, err)
			}
		}
	}
	if c.Stats().RetiredUops < cfg.MaxRetired {
		t.Fatalf("stalled at %d uops", c.Stats().RetiredUops)
	}
}

func TestHybridModeRuns(t *testing.T) {
	for _, name := range []string{"astar", "zeusmp"} {
		w, _ := workload.ByName(name)
		p, m := w.Build()
		cfg := Default()
		cfg.Mode = ModeHybrid
		cfg.MaxRetired = 30_000
		cfg.MaxCycles = 6_000_000
		c, err := New(cfg, p, m)
		if err != nil {
			t.Fatal(err)
		}
		c.Run()
		st := c.Stats()
		if st.RetiredUops < cfg.MaxRetired {
			t.Fatalf("%s: hybrid stalled at %d uops", name, st.RetiredUops)
		}
		// astar should use CDF mode; zeusmp (density-gated) should fall
		// back to runahead.
		switch name {
		case "astar":
			if st.CDFModeCycles == 0 {
				t.Error("astar hybrid never entered CDF mode")
			}
		case "zeusmp":
			if st.RunaheadIntervals == 0 {
				t.Error("zeusmp hybrid never ran ahead")
			}
			if st.CDFModeCycles > st.Cycles/10 {
				t.Errorf("zeusmp hybrid spent %d cycles in CDF mode despite the density gate", st.CDFModeCycles)
			}
		}
	}
}

func TestStaticPartitionKnob(t *testing.T) {
	w, _ := workload.ByName("lbm")
	run := func(static bool) (uint64, uint64) {
		p, m := w.Build()
		cfg := Default()
		cfg.Mode = ModeCDF
		cfg.CDF.DisableDynamicPartition = static
		cfg.MaxRetired = 30_000
		cfg.MaxCycles = 6_000_000
		c, err := New(cfg, p, m)
		if err != nil {
			t.Fatal(err)
		}
		c.Run()
		return c.Stats().PartitionGrows + c.Stats().PartitionShrinks, c.Stats().Cycles
	}
	_, dynCycles := run(false)
	_, staticCycles := run(true)
	if dynCycles == 0 || staticCycles == 0 {
		t.Fatal("runs did not complete")
	}
	// Frozen partitions must not move.
	p, m := w.Build()
	cfg := Default()
	cfg.Mode = ModeCDF
	cfg.CDF.DisableDynamicPartition = true
	cfg.MaxRetired = 30_000
	cfg.MaxCycles = 6_000_000
	c, _ := New(cfg, p, m)
	before := c.robPart.CritCap
	c.Run()
	if c.robPart.CritCap != before {
		t.Fatal("frozen partition moved")
	}
}

func TestNoMaskCacheKnobIncreasesViolations(t *testing.T) {
	p0, m0 := buildViolationKernel()
	run := func(noMask bool) uint64 {
		p, m := p0, m0
		// Rebuild for isolation.
		p, m = buildViolationKernel()
		cfg := Default()
		cfg.Mode = ModeCDF
		cfg.CDF.DisableMaskCache = noMask
		cfg.MaxRetired = 60_000
		cfg.MaxCycles = 12_000_000
		c, err := New(cfg, p, m)
		if err != nil {
			t.Fatal(err)
		}
		c.Run()
		return c.Stats().DependenceViolations
	}
	with, without := run(false), run(true)
	// §3.6: the Mask Cache reduces violations "significantly". On the
	// alternating-path kernel, disabling it must not reduce them.
	if without < with {
		t.Fatalf("mask cache off gave FEWER violations (%d vs %d)", without, with)
	}
	_ = p0
	_ = m0
}
