package core

import (
	"strings"
	"testing"

	"cdf/internal/emu"
	"cdf/internal/workload"
)

// warmedMaster builds workload name's program, steps a master emulator over
// n uops with a warmer for cfg observing each, and returns both.
func warmedMaster(t *testing.T, name string, cfg Config, n int) (*Warmer, *emu.Emulator) {
	t.Helper()
	w, err := workload.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	p, m := w.Build()
	wr, err := NewWarmer(cfg, p)
	if err != nil {
		t.Fatal(err)
	}
	master := emu.New(p, m)
	var d emu.DynUop
	for i := 0; i < n; i++ {
		if !master.Step(&d) {
			t.Fatalf("%s halted after %d uops", name, i)
		}
		wr.Observe(&d)
	}
	return wr, master
}

// TestHandoffKeepsAbsoluteEpochClock checks that an interval core trains
// the warmer's criticality machinery at absolute program positions: after
// 1500 warmed uops and 1000 retired ones, the mask decay due every 1000
// positions last fired at position 2000, as in a continuous run.
func TestHandoffKeepsAbsoluteEpochClock(t *testing.T) {
	cfg := Default()
	cfg.Mode = ModeCDF
	cfg.Seed = 1
	cfg.CDF.MaskResetInterval = 1000
	cfg.MaxRetired = 1000
	cfg.MaxCycles = 1_000_000
	wr, master := warmedMaster(t, "bzip", cfg, 1500)
	if got := wr.crit.lastMaskRst; got != 1000 {
		t.Fatalf("mask anchor after warming = %d, want 1000", got)
	}
	ck := master.Clone()
	ck.ResetSeq()
	c, err := NewAt(cfg, wr.prg, ck, wr)
	if err != nil {
		t.Fatal(err)
	}
	c.Run()
	if c.Retired() < 1000 {
		t.Fatalf("core retired %d uops", c.Retired())
	}
	if got := c.crit.lastMaskRst; got != 2000 {
		t.Fatalf("mask anchor after the interval = %d, want 2000", got)
	}
}

// TestNewAtChecksWarmerCompatibility: a core adopts a warmer's structures
// only when they were built for the same program and the same structural
// configuration; per-core run limits and checks may differ.
func TestNewAtChecksWarmerCompatibility(t *testing.T) {
	base := Default()
	base.Mode = ModeCDF
	base.MaxRetired = 2000
	wr, master := warmedMaster(t, "bzip", base, 100)

	other, _ := workload.ByName("mcf")
	op, om := other.Build()
	if _, err := NewAt(base, op, emu.New(op, om), wr); err == nil || !strings.Contains(err.Error(), "program") {
		t.Errorf("warmer for another program adopted (err %v)", err)
	}

	for name, edit := range map[string]func(*Config){
		"Mode":         func(c *Config) { c.Mode = ModeHybrid },
		"ROBSize":      func(c *Config) { c.ROBSize += 8 },
		"CDF.CUCLines": func(c *Config) { c.CDF.CUCLines *= 2 },
	} {
		cfg := base
		edit(&cfg)
		if _, err := NewAt(cfg, wr.prg, master.Clone(), wr); err == nil {
			t.Errorf("warmer adopted by a core with a different %s", name)
		}
	}
	for name, edit := range map[string]func(*Config){
		"MaxRetired":     func(c *Config) { c.MaxRetired = 5000 },
		"WarmupRetired":  func(c *Config) { c.WarmupRetired = 500 },
		"MaxCycles":      func(c *Config) { c.MaxCycles = 1 << 20 },
		"WatchdogCycles": func(c *Config) { c.WatchdogCycles = 0 },
		"ParanoidEvery":  func(c *Config) { c.ParanoidEvery = 64 },
		"SlowPath":       func(c *Config) { c.SlowPath = true },
	} {
		cfg := base
		edit(&cfg)
		if _, err := NewAt(cfg, wr.prg, master.Clone(), wr); err != nil {
			t.Errorf("core differing only in %s rejected the warmer: %v", name, err)
		}
	}
}
