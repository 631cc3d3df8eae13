package pre

import (
	"testing"

	"cdf/internal/branch"
	"cdf/internal/cdf"
	"cdf/internal/emu"
	"cdf/internal/isa"
	"cdf/internal/mem"
	"cdf/internal/prog"
	"cdf/internal/stats"
)

func r(i int) isa.Reg { return isa.Reg(i) }

// testRig builds a two-block looped program (chain -> load -> loop) with
// its trace pre-installed in a CUC, plus an oracle over the emulator.
type testRig struct {
	prg *prog.Program
	cuc *cdf.UopCache
	h   *mem.Hierarchy
	st  *stats.Stats
	dyn []emu.DynUop
}

func (tr *testRig) DynAt(seq uint64) *emu.DynUop {
	for len(tr.dyn) <= int(seq) {
		var d emu.DynUop
		if !rigEmu.Step(&d) {
			return nil
		}
		tr.dyn = append(tr.dyn, d)
	}
	return &tr.dyn[seq]
}

var rigEmu *emu.Emulator

func newRig(t *testing.T) *testRig {
	t.Helper()
	m := emu.NewMemory()
	m.AddRegion(0x10000000, 0x10000000+(1<<26), func(a uint64) int64 {
		return int64(emu.SplitMix64(a))
	})
	b := prog.NewBuilder("rig")
	b.MovI(r(0), 0)
	b.MovI(r(1), 1<<40)
	b.MovI(r(2), 0x10000000)
	loop := b.Label()
	b.AddI(r(2), r(2), 2048) // chain into the load
	b.Load(r(3), r(2), 0)    // large-stride miss
	b.AddI(r(4), r(4), 1)    // non-critical
	b.SubI(r(1), r(1), 1)
	b.Bne(r(1), r(0), loop)
	b.Halt()
	p := b.MustProgram()
	rigEmu = emu.New(p, m)

	st := &stats.Stats{}
	h := mem.NewHierarchy(mem.Default(), st)
	cuc := cdf.NewUopCache(288, 4, 8)
	// Install the loop block's trace: chain + load marked (indices 0 and 1
	// of the loop block), plus the loop-counter chain.
	loopID := -1
	for _, blk := range p.Blocks {
		if len(blk.Uops) == 5 {
			loopID = blk.ID
		}
	}
	if loopID < 0 {
		t.Fatal("loop block not found")
	}
	cuc.Install(cdf.Trace{
		BlockPC:      p.BlockPC(loopID),
		Mask:         0b01011, // AddI cursor, Load, SubI counter
		BlockLen:     5,
		CritCount:    3,
		EndsInBranch: true,
	})
	return &testRig{prg: p, cuc: cuc, h: h, st: st}
}

func newEngine(tr *testRig) *Engine {
	return NewEngine(Config{Width: 6, LineBytes: 64, WrongLoadFrac: 0.25, Seed: 1},
		Deps{CUC: tr.cuc, Pred: branch.NewPredictor(), Oracle: tr, Mem: tr.h, Prog: tr.prg, Stats: tr.st})
}

func TestEngineIssuesChainPrefetches(t *testing.T) {
	tr := newRig(t)
	e := newEngine(tr)
	// Warm the predictor so the loop branch predicts correctly.
	pred := e.d.Pred
	d := tr.DynAt(6) // a loop branch instance
	for d != nil && !d.U.Op.IsBranch() {
		d = tr.DynAt(d.Seq + 1)
	}
	for i := 0; i < 200; i++ {
		var pr branch.Prediction
		pred.Predict(d.U.Op, d.PC, 0, &pr)
		pred.Update(d.U.Op, d.PC, true, d.NextPC, &pr)
	}

	e.BeginStall(1000, 3, 1000+400, 100, false)
	if !e.Active() {
		t.Fatal("engine should be active")
	}
	for now := uint64(1000); now < 1100; now++ {
		e.Cycle(now)
	}
	if tr.st.RunaheadPrefetches == 0 {
		t.Fatal("no prefetches issued")
	}
	if tr.st.RunaheadUops == 0 {
		t.Fatal("no uops processed")
	}
}

func TestEngineStopsAtIntervalEnd(t *testing.T) {
	tr := newRig(t)
	e := newEngine(tr)
	e.BeginStall(1000, 3, 1010, 100, false)
	for now := uint64(1000); now < 1050; now++ {
		e.Cycle(now)
	}
	if e.Active() {
		t.Fatal("engine should deactivate at endAt")
	}
}

func TestEngineStopsOnCUCMiss(t *testing.T) {
	tr := newRig(t)
	// Empty the CUC: the walk must die immediately.
	tr.cuc = cdf.NewUopCache(288, 4, 8)
	e := newEngine(tr)
	e.BeginStall(1000, 3, 2000, 100, false)
	e.Cycle(1000)
	if e.Active() {
		t.Fatal("CUC miss should end the walk")
	}
	if tr.st.RunaheadPrefetches != 0 {
		t.Fatal("no prefetches expected")
	}
}

func TestEngineWrongPathOnMispredictPending(t *testing.T) {
	tr := newRig(t)
	e := newEngine(tr)
	e.BeginStall(1000, 3, 3000, 100, true) // mispredict pending
	for now := uint64(1000); now < 1200; now++ {
		e.Cycle(now)
	}
	// Wrong-path slices burn the junk budget, then die; they never walk
	// the real chain (no regular RunaheadCycles progress).
	if tr.st.RunaheadCycles != 0 {
		t.Fatal("wrong-path interval should not walk real chains")
	}
	if e.Active() {
		t.Fatal("junk budget should end the slice")
	}
}

func TestEngineRespectsLoadBudget(t *testing.T) {
	tr := newRig(t)
	e := newEngine(tr)
	e.BeginStall(1000, 3, 100000, 13, false) // floor(12) < 13 loads allowed
	for now := uint64(1000); now < 3000 && e.Active(); now++ {
		e.Cycle(now)
	}
	if tr.st.RunaheadPrefetches > 13 {
		t.Fatalf("issued %d prefetches with a budget of 13", tr.st.RunaheadPrefetches)
	}
}

func TestEngineEndStallIsIdempotent(t *testing.T) {
	tr := newRig(t)
	e := newEngine(tr)
	e.EndStall()
	e.EndStall()
	if e.Active() {
		t.Fatal("inactive engine should stay inactive")
	}
	// BeginStall twice: the second is a no-op while active.
	e.BeginStall(10, 3, 500, 50, false)
	e.BeginStall(20, 3, 999, 50, false)
	if e.endAt != 500 {
		t.Fatal("re-BeginStall while active must not reset the interval")
	}
}
