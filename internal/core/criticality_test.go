package core

import (
	"testing"

	"cdf/internal/branch"
	"cdf/internal/emu"
	"cdf/internal/prog"
)

// critFixture returns the dynamic uops of a load/add/branch loop and a
// criticality built for mode on that loop's program, with epochs short
// enough to reach in a few dozen uops: collect 4 uops every 10 positions,
// decay the mask every 50.
func critFixture(t *testing.T, mode Mode) (*criticality, []emu.DynUop) {
	t.Helper()
	b := prog.NewBuilder("crit")
	b.MovI(r(1), 1_000_000)
	b.MovI(r(2), 0x1000)
	loop := b.Label()
	b.Load(r(3), r(2), 0)
	b.AddI(r(4), r(3), 1)
	b.SubI(r(1), r(1), 1)
	b.Bne(r(1), r(0), loop)
	b.Halt()
	p := b.MustProgram()
	em := emu.New(p, emu.NewMemory())
	uops := make([]emu.DynUop, 400)
	for i := range uops {
		if !em.Step(&uops[i]) {
			t.Fatal("loop halted early")
		}
	}
	cfg := Default()
	cfg.Mode = mode
	cfg.CDF.WalkInterval = 10
	cfg.CDF.FillBufferSize = 4
	cfg.CDF.MaskResetInterval = 50
	return newCriticality(cfg, p), uops
}

// trainRange trains uops at positions from..to (inclusive), every load an
// LLC miss and every branch a mispredict, and returns the walks completed.
func trainRange(k *criticality, uops []emu.DynUop, from, to uint64, busy bool) int {
	walks := 0
	for pos := from; pos <= to; pos++ {
		if k.train(&uops[pos%uint64(len(uops))], pos, true, true, busy) != nil {
			walks++
		}
	}
	return walks
}

func TestCriticalityOffInPlainBaseline(t *testing.T) {
	k, uops := critFixture(t, ModeBaseline)
	if walks := trainRange(k, uops, 1, 300, false); walks != 0 {
		t.Fatalf("%d walks", walks)
	}
	if k.loadCCT.Updates != 0 || k.branchCCT.Updates != 0 {
		t.Fatalf("counters trained: %d load, %d branch updates", k.loadCCT.Updates, k.branchCCT.Updates)
	}
	if k.fb.Len() != 0 || k.collecting || k.lastMaskRst != 0 || k.lastEpochAt != 0 {
		t.Fatalf("machinery moved: fb=%d collecting=%v anchors=%d/%d",
			k.fb.Len(), k.collecting, k.lastMaskRst, k.lastEpochAt)
	}
}

func TestCriticalityPRESkipsCountersOnly(t *testing.T) {
	k, uops := critFixture(t, ModePRE)
	walks := trainRange(k, uops, 1, 120, false)
	if k.loadCCT.Updates != 0 || k.branchCCT.Updates != 0 {
		t.Fatalf("PRE trained counters per uop: %d load, %d branch updates", k.loadCCT.Updates, k.branchCCT.Updates)
	}
	if k.lastMaskRst != 100 {
		t.Fatalf("mask anchor %d, want 100", k.lastMaskRst)
	}
	if walks == 0 {
		t.Fatal("PRE collected no epochs")
	}
}

func TestCriticalityMaskDecaysOnInterval(t *testing.T) {
	k, uops := critFixture(t, ModeCDF)
	k.cc.WalkInterval = 1 << 40 // decay only
	const blockPC = 0x40
	for _, c := range []struct {
		pos   uint64
		decay bool
	}{{49, false}, {50, true}, {99, false}, {100, true}, {130, false}} {
		k.maskc.Merge(blockPC, 1)
		k.train(&uops[0], c.pos, false, false, false)
		if _, kept := k.maskc.Get(blockPC); kept == c.decay {
			t.Fatalf("pos %d: mask kept=%v, want decay=%v", c.pos, kept, c.decay)
		}
	}
	if k.lastMaskRst != 100 {
		t.Fatalf("mask anchor %d, want 100", k.lastMaskRst)
	}
}

func TestCriticalityBusySuspendsCollectionOnly(t *testing.T) {
	k, uops := critFixture(t, ModeCDF)
	if walks := trainRange(k, uops, 1, 120, true); walks != 0 {
		t.Fatalf("%d walks while busy", walks)
	}
	if k.loadCCT.Updates == 0 || k.branchCCT.Updates == 0 {
		t.Fatal("busy suspended counter training")
	}
	if k.lastMaskRst != 100 {
		t.Fatalf("busy suspended mask decay: anchor %d, want 100", k.lastMaskRst)
	}
	if k.collecting || k.fb.Len() != 0 {
		t.Fatalf("busy collected: collecting=%v fb=%d", k.collecting, k.fb.Len())
	}
	trainRange(k, uops, 121, 121, false)
	if !k.collecting || k.fb.Len() != 1 {
		t.Fatalf("collection did not resume: collecting=%v fb=%d", k.collecting, k.fb.Len())
	}
}

func TestCriticalityWalkEpoch(t *testing.T) {
	k, uops := critFixture(t, ModeCDF)
	// WalkInterval 10: collection starts at 10 and the fourth collected
	// uop, at 13, completes the walk; the next epoch starts at 23.
	for pos := uint64(1); pos <= 26; pos++ {
		walked := k.train(&uops[pos], pos, true, true, false) != nil
		if want := pos == 13 || pos == 26; walked != want {
			t.Fatalf("pos %d: walked=%v", pos, walked)
		}
		if want := pos >= 10 && pos < 13 || pos >= 23 && pos < 26; k.collecting != want {
			t.Fatalf("pos %d: collecting=%v", pos, k.collecting)
		}
	}
	if k.lastEpochAt != 26 || k.fb.Len() != 0 {
		t.Fatalf("epoch anchor %d, fb=%d after the walk", k.lastEpochAt, k.fb.Len())
	}
}

func TestCriticalityDensitySelectsCounters(t *testing.T) {
	k, uops := critFixture(t, ModeCDF)
	// No LLC misses and no mispredicts: nothing seeds the walk, so its
	// density is zero, below DensityLo.
	walk := func() {
		for pos := uint64(1); ; pos++ {
			if k.train(&uops[pos], k.lastEpochAt+pos, false, false, false) != nil {
				return
			}
		}
	}
	walk()
	if !k.loadCCT.Permissive() || !k.branchCCT.Permissive() {
		t.Fatal("sparse walk kept the strict counters")
	}
	k.cc.DensityLo, k.cc.DensityHi = -1, -1 // any density is dense
	walk()
	if k.loadCCT.Permissive() || k.branchCCT.Permissive() {
		t.Fatal("dense walk kept the permissive counters")
	}
}

func TestWrongPrediction(t *testing.T) {
	taken := &emu.DynUop{Taken: true, NextPC: 0x200}
	for _, c := range []struct {
		name string
		pr   branch.Prediction
		want bool
	}{
		{"wrong direction", branch.Prediction{Taken: false}, true},
		{"wrong BTB-hit target", branch.Prediction{Taken: true, TargetHit: true, Target: 0x300}, true},
		{"BTB miss, right direction", branch.Prediction{Taken: true}, false},
		{"correct", branch.Prediction{Taken: true, TargetHit: true, Target: 0x200}, false},
	} {
		if got := wrongPrediction(&c.pr, taken); got != c.want {
			t.Errorf("%s: wrongPrediction=%v, want %v", c.name, got, c.want)
		}
	}
}

func TestWPLinesDraw(t *testing.T) {
	w := wpLines{rng: 0x2545F4914F6CDD1D}
	budget := 3
	if _, ok := w.draw(&budget); ok || w.rng != 0x2545F4914F6CDD1D || budget != 3 {
		t.Fatalf("draw before any note: ok=%v rng=%#x budget=%d", ok, w.rng, budget)
	}
	const base = 10_000
	w.note(base)
	far := 0
	for i := 0; i < 200; i++ {
		before := budget
		line, ok := w.draw(&budget)
		if !ok {
			t.Fatal("draw after a note failed")
		}
		switch {
		case line == base && budget != before:
			t.Fatalf("draw %d: near line spent budget", i)
		case line != base && budget != before-1:
			t.Fatalf("draw %d: far line %d spent %d budget", i, line, before-budget)
		case line != base:
			far++
			if line < base-2048 || line > base+2048 {
				t.Fatalf("far line %d beyond 2048 lines of %d", line, base)
			}
		}
	}
	if far != 3 || budget != 0 {
		t.Fatalf("%d far lines, budget left %d; want 3 and 0", far, budget)
	}
}
