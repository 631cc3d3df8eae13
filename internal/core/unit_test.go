package core

import (
	"strings"
	"testing"

	"cdf/internal/emu"
	"cdf/internal/isa"
	"cdf/internal/prog"
)

func TestStreamLookaheadAndRelease(t *testing.T) {
	b := prog.NewBuilder("s")
	b.MovI(r(0), 0)
	b.MovI(r(1), 100000)
	loop := b.Label()
	b.SubI(r(1), r(1), 1)
	b.Bne(r(1), r(0), loop)
	b.Halt()
	s := newStream(emu.New(b.MustProgram(), nil))

	// Random access far ahead works and is stable.
	rec := s.At(5000)
	if rec == nil {
		t.Fatal("lookahead failed")
	}
	pc := rec.dyn.PC
	if s.At(5000).dyn.PC != pc {
		t.Fatal("repeated At disagrees")
	}
	// Sequential consistency.
	if s.At(0).dyn.Seq != 0 || s.At(1).dyn.Seq != 1 {
		t.Fatal("Seq mismatch")
	}
	// Release far behind, then access beyond it still works.
	s.Release(4000)
	if s.At(6000) == nil {
		t.Fatal("access after release failed")
	}
	// Beyond the program's end returns nil.
	if s.At(1_000_000) != nil {
		t.Fatal("should be nil past halt")
	}
	if !s.Halted() {
		t.Fatal("stream should know the program halted")
	}
}

func TestStreamPanicsBelowBase(t *testing.T) {
	b := prog.NewBuilder("s2")
	b.MovI(r(0), 0)
	b.MovI(r(1), 100000)
	loop := b.Label()
	b.SubI(r(1), r(1), 1)
	b.Bne(r(1), r(0), loop)
	b.Halt()
	s := newStream(emu.New(b.MustProgram(), nil))
	s.At(10000)
	s.Release(9000)
	if s.base == 0 {
		t.Skip("release deferred compaction; nothing to check")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("At below base should panic")
		}
	}()
	s.At(0)
}

func TestRegFileAllocReleaseCycle(t *testing.T) {
	rf := newRegFile(64)
	free0 := rf.freeCount()
	if free0 != 64-int(isa.NumRegs) {
		t.Fatalf("initial free = %d", free0)
	}
	var regs []int16
	for i := 0; i < free0; i++ {
		p, ok := rf.alloc()
		if !ok {
			t.Fatalf("alloc %d failed", i)
		}
		if rf.isReady(p) {
			t.Fatal("fresh phys reg must not be ready")
		}
		regs = append(regs, p)
	}
	if _, ok := rf.alloc(); ok {
		t.Fatal("exhausted free list should fail")
	}
	for _, p := range regs {
		rf.markReady(p)
		rf.release(p)
	}
	if rf.freeCount() != free0 {
		t.Fatalf("free count after release = %d", rf.freeCount())
	}
	if err := rf.checkInvariant(); err == nil {
		// rat maps low regs, none of which were released: invariant holds.
	} else {
		t.Fatal(err)
	}
}

func TestRegFileCritRATForkIsolation(t *testing.T) {
	rf := newRegFile(64)
	rf.forkCritRAT()
	// Critical rename moves critRAT; the regular RAT must not see it.
	p, _ := rf.alloc()
	old := rf.critRAT[5]
	rf.critRAT[5] = p
	if rf.rat[5] == p {
		t.Fatal("critical rename leaked into the regular RAT")
	}
	if rf.lookup(isa.Reg(5), true) != p || rf.lookup(isa.Reg(5), false) != old {
		t.Fatal("lookup routing wrong")
	}
	rf.dropCritRAT()
	defer func() {
		if recover() == nil {
			t.Fatal("critical lookup after drop should panic")
		}
	}()
	rf.lookup(isa.Reg(5), true)
}

func TestRegFilePoisonLifecycle(t *testing.T) {
	rf := newRegFile(64)
	rf.poison[7] = true
	rf.clearPoison()
	for i, p := range rf.poison {
		if p {
			t.Fatalf("poison[%d] survived clear", i)
		}
	}
	if !rf.isReady(-1) {
		t.Fatal("absent operand must read as ready")
	}
}

func TestFifoOrderedInsert(t *testing.T) {
	var f fifo
	mk := func(seq uint64, sub uint32) *entry { return &entry{seq: seq, sub: sub} }
	f.insertOrdered(mk(5, 0))
	f.insertOrdered(mk(2, 0))
	f.insertOrdered(mk(9, 0))
	f.insertOrdered(mk(5, 3)) // wrong-path sub-ordering
	f.insertOrdered(mk(5, 1))
	want := []struct {
		seq uint64
		sub uint32
	}{{2, 0}, {5, 0}, {5, 1}, {5, 3}, {9, 0}}
	if f.len() != len(want) {
		t.Fatalf("len = %d", f.len())
	}
	for i, w := range want {
		if f.items[i].seq != w.seq || f.items[i].sub != w.sub {
			t.Fatalf("pos %d = %d.%d, want %d.%d", i, f.items[i].seq, f.items[i].sub, w.seq, w.sub)
		}
	}
	// popHead drains in order.
	if f.popHead().seq != 2 || f.popHead().seq != 5 {
		t.Fatal("popHead order wrong")
	}
}

func TestFifoFlushYounger(t *testing.T) {
	var f fifo
	for i := uint64(0); i < 10; i++ {
		f.push(&entry{seq: i})
	}
	removed := f.flushYounger(6, 0, false, nil)
	if len(removed) != 3 || f.len() != 7 {
		t.Fatalf("strict flush removed %d, kept %d", len(removed), f.len())
	}
	// Removed are youngest-first.
	if removed[0].seq != 9 || removed[2].seq != 7 {
		t.Fatalf("removal order: %d..%d", removed[0].seq, removed[2].seq)
	}
	removed = f.flushYounger(3, 0, true, nil)
	if len(removed) != 4 || f.len() != 3 {
		t.Fatalf("inclusive flush removed %d, kept %d", len(removed), f.len())
	}
}

func TestEntryOrderingHelpers(t *testing.T) {
	a := &entry{seq: 5, sub: 0}
	bb := &entry{seq: 5, sub: 2}
	c := &entry{seq: 6, sub: 0}
	if !a.before(bb) || !bb.before(c) || bb.before(a) {
		t.Fatal("before() wrong")
	}
	if !bb.younger(5, 0) || bb.younger(5, 2) || !bb.youngerEq(5, 2) {
		t.Fatal("younger()/youngerEq() wrong")
	}
}

// TestCDFExitDrain forces CDF mode on, then makes the Critical Uop Cache
// miss (by running onto blocks whose traces were never installed), and
// verifies the machine drains back to regular mode and keeps retiring.
func TestCDFExitDrain(t *testing.T) {
	// Phase kernel: a hot loop CDF learns, then a long cold stretch the CUC
	// has never seen, then back.
	m := emu.NewMemory()
	m.AddRegion(0x10000000, 0x10000000+(1<<26), func(a uint64) int64 {
		return int64(emu.SplitMix64(a))
	})
	b := prog.NewBuilder("phase")
	b.MovI(r(0), 0)
	b.MovI(r(1), 1<<40)
	b.MovI(r(2), 0x10000000)
	b.MovI(r(28), (1<<22)-1)
	outer := b.Label()
	// Hot phase: 64 iterations of a missing-load loop.
	b.MovI(r(4), 64)
	hot := b.Label()
	b.Load(r(5), r(2), 0)
	b.And(r(6), r(5), r(28))
	b.ShlI(r(6), r(6), 3)
	b.Add(r(7), r(2), r(6))
	b.Load(r(8), r(7), 0)
	// Non-critical padding keeps the walk density inside the gates.
	for k := 0; k < 8; k++ {
		b.AddI(r(20+k%4), r(20+k%4), int64(k))
	}
	b.AddI(r(2), r(2), 8)
	b.SubI(r(4), r(4), 1)
	b.Bne(r(4), r(0), hot)
	// Cold phase: a long ALU-only stretch. Walk epochs that sample only
	// this phase are density-rejected (<2% critical), which removes the
	// buffered blocks' traces — the next hot pass then misses in the CUC
	// and CDF mode exits until retraining.
	for k := 0; k < 6; k++ {
		b.MovI(r(9), 96)
		cold := b.Label()
		b.AddI(r(10+k), r(10+k), 1)
		b.XorI(r(16+k%4), r(16+k%4), 5)
		b.AddI(r(20+k%4), r(20+k%4), 2)
		b.SubI(r(9), r(9), 1)
		b.Bne(r(9), r(0), cold)
	}
	b.SubI(r(1), r(1), 1)
	b.Bne(r(1), r(0), outer)
	b.Halt()

	cfg := Default()
	cfg.Mode = ModeCDF
	cfg.MaxRetired = 60_000
	cfg.MaxCycles = 12_000_000
	cfg.CDF.WalkInterval = 3_000 // sample the phases often
	c, err := New(cfg, b.MustProgram(), m)
	if err != nil {
		t.Fatal(err)
	}
	c.Run()
	st := c.Stats()
	if st.RetiredUops < cfg.MaxRetired {
		t.Fatalf("drain stalled: %d uops in %d cycles", st.RetiredUops, st.Cycles)
	}
	if st.CDFEntries == 0 {
		t.Skip("CDF never entered; phase kernel didn't train")
	}
	if st.CDFExits == 0 {
		t.Fatal("CDF mode never exited despite cold phases")
	}
	if st.CDFEntries < 2 {
		t.Fatal("CDF should re-enter on later hot phases")
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestParseModeRoundTrip pins the mode-name table: every mode parses back
// from its own name, and an unknown name is an error listing the valid ones.
func TestParseModeRoundTrip(t *testing.T) {
	for _, m := range []Mode{ModeBaseline, ModeCDF, ModePRE, ModeHybrid} {
		got, err := ParseMode(m.String())
		if err != nil || got != m {
			t.Errorf("ParseMode(%q) = %v, %v; want %v", m.String(), got, err, m)
		}
	}
	_, err := ParseMode("warp")
	if err == nil {
		t.Fatal("ParseMode accepted an unknown name")
	}
	for _, name := range []string{"warp", "baseline", "cdf", "pre", "hybrid"} {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("ParseMode error %q does not mention %q", err, name)
		}
	}
}
