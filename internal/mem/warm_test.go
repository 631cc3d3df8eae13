package mem

import (
	"testing"

	"cdf/internal/stats"
)

func TestWarmLoadFillsHierarchy(t *testing.T) {
	h := newTestHierarchy()
	if miss := h.WarmLoad(0x4000); !miss {
		t.Fatal("cold warm load must report an LLC miss")
	}
	if miss := h.WarmLoad(0x4008); miss {
		t.Fatal("same line again must hit")
	}
	// The warmed line serves a timed demand access as an L1D hit.
	res := h.Load(0x4010, 100, false)
	if res.L1DMiss || res.LLCMiss {
		t.Fatalf("timed load after warming missed: L1D=%v LLC=%v", res.L1DMiss, res.LLCMiss)
	}
	if res.Done != 100+uint64(h.Config().L1DLatency) {
		t.Fatalf("warmed hit latency %d, want L1 latency %d", res.Done-100, h.Config().L1DLatency)
	}
}

func TestWarmStoreDirtiesLine(t *testing.T) {
	h := newTestHierarchy()
	if miss := h.WarmStore(0x9000); !miss {
		t.Fatal("cold warm store must report an LLC miss")
	}
	if !h.L1D.Contains(h.L1D.LineAddr(0x9000)) {
		t.Fatal("warm store did not allocate in L1D")
	}
	// Evict the line with conflicting warm fills and check the dirty victim
	// reaches the LLC (writeback state survives warming).
	line := h.L1D.LineAddr(0x9000)
	sets := uint64(h.L1D.Sets())
	ways := h.Config().L1DWays
	for i := 1; i <= ways+1; i++ {
		h.WarmLoad((line + uint64(i)*sets) * h.Config().LineBytes)
	}
	if h.L1D.Contains(line) {
		t.Skip("victim not evicted by conflict pattern; replacement kept it")
	}
	if !h.LLC.Contains(line) {
		t.Fatal("dirty victim lost on warm eviction")
	}
}

func TestWarmInstFillsL1I(t *testing.T) {
	h := newTestHierarchy()
	h.WarmInst(0x100040)
	done, _, _ := h.FetchInst(0x100044, 50)
	if done != 50+uint64(h.Config().L1ILatency) {
		t.Fatalf("instruction fetch after warming completes at %d, want L1I hit at %d",
			done, 50+uint64(h.Config().L1ILatency))
	}
}

// TestWarmingIsTimingFree: warming must leave no MSHRs, no outstanding
// misses, and no DRAM schedule behind — and must not touch the stats the
// hierarchy currently points at.
func TestWarmingIsTimingFree(t *testing.T) {
	h := newTestHierarchy()
	before := *h.St
	for i := uint64(0); i < 500; i++ {
		h.WarmLoad(0x4000 + i*64)
		h.WarmStore(0x80000 + i*64)
		h.WarmInst(0x100000 + i*4)
	}
	if *h.St != before {
		t.Fatal("warming mutated statistics")
	}
	if n := h.OutstandingLLCMisses(0); n != 0 {
		t.Fatalf("outstanding misses after warming = %d", n)
	}
	if h.L1D.PendingCount(1<<62) != 0 || h.LLC.PendingCount(1<<62) != 0 {
		t.Fatal("warming left MSHR entries")
	}
}

// TestResetTimingClearsCycleState: after timed traffic, ResetTiming must
// clear MSHRs, outstanding tracking and DRAM schedules while keeping cache
// contents — the handoff contract for interval cores starting at cycle 0.
func TestResetTimingClearsCycleState(t *testing.T) {
	h := newTestHierarchy()
	for i := uint64(0); i < 32; i++ {
		h.Load(0x4000+i*64, i, false)
	}
	if h.L1D.PendingCount(0) == 0 {
		t.Fatal("test premise: timed loads should leave in-flight MSHRs at cycle 0")
	}
	h.ResetTiming()
	if h.L1D.PendingCount(0) != 0 || h.LLC.PendingCount(0) != 0 || h.L1I.PendingCount(0) != 0 {
		t.Fatal("ResetTiming left MSHR entries")
	}
	if n := h.OutstandingLLCMisses(0); n != 0 {
		t.Fatalf("ResetTiming left %d outstanding misses", n)
	}
	if !h.L1D.Contains(h.L1D.LineAddr(0x4000)) {
		t.Fatal("ResetTiming dropped cache contents")
	}
	// A fresh access at cycle 0 must behave like a hit on warmed contents,
	// with a completion time in this interval's timebase.
	res := h.Load(0x4000, 0, false)
	if res.L1DMiss {
		t.Fatal("contents lost across ResetTiming")
	}
	if res.Done != uint64(h.Config().L1DLatency) {
		t.Fatalf("post-reset hit completes at %d, want %d", res.Done, h.Config().L1DLatency)
	}
}

// TestSetStatsRedirects: SetStats swaps the counter sink (interval cores
// bring their own Stats to the shared hierarchy).
func TestSetStatsRedirects(t *testing.T) {
	h := newTestHierarchy()
	h.Load(0x4000, 0, false)
	first := h.St
	fresh := &stats.Stats{}
	h.SetStats(fresh)
	h.Load(0x14000, 0, false)
	if fresh.L1DMisses != 1 {
		t.Fatalf("new sink got %d L1D misses, want 1", fresh.L1DMisses)
	}
	if first.L1DMisses != 1 {
		t.Fatalf("old sink changed after SetStats: %d", first.L1DMisses)
	}
}
