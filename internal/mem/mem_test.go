package mem

import (
	"testing"
	"testing/quick"

	"cdf/internal/stats"
)

func newTestHierarchy() *Hierarchy {
	return NewHierarchy(Default(), &stats.Stats{})
}

func TestCacheBasics(t *testing.T) {
	c := NewCache("t", 1024, 2, 64, 2, 8) // 8 sets, 2 ways
	if c.Sets() != 8 {
		t.Fatalf("sets = %d", c.Sets())
	}
	line := c.LineAddr(0x12345)
	if line != 0x12345/64 {
		t.Fatal("LineAddr wrong")
	}
	if hit, _ := c.Lookup(line); hit {
		t.Fatal("empty cache should miss")
	}
	c.Insert(line, false, false)
	if hit, _ := c.Lookup(line); !hit {
		t.Fatal("inserted line should hit")
	}
	if !c.Contains(line) {
		t.Fatal("Contains should see the line")
	}
}

// TestNewCacheGeometry pins the geometry NewCache accepts: indexing is a
// shift and a mask, so a line size or set count that is not a power of two
// must panic rather than index the wrong set.
func TestNewCacheGeometry(t *testing.T) {
	for _, g := range []struct {
		name       string
		size, ways int
		line       uint64
		ok         bool
	}{
		{"8 sets of 64B", 1024, 2, 64, true},
		{"one set", 128, 2, 64, true},
		{"48B lines", 768, 2, 48, false},
		{"3 sets", 384, 2, 64, false},
		{"not divisible", 1000, 2, 64, false},
		{"zero line", 1024, 2, 0, false},
	} {
		panicked := func() (p bool) {
			defer func() { p = recover() != nil }()
			NewCache("g", g.size, g.ways, g.line, 1, 1)
			return false
		}()
		if panicked == g.ok {
			t.Errorf("%s: panicked=%v, want %v", g.name, panicked, !g.ok)
		}
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c := NewCache("t", 2*64*2, 2, 64, 1, 8) // 2 sets, 2 ways
	// Three lines mapping to set 0 (line % 2 == 0).
	a, b, d := uint64(0), uint64(2), uint64(4)
	c.Insert(a, false, false)
	c.Insert(b, false, false)
	c.Lookup(a) // make A most recent
	victim, evicted, _ := c.Insert(d, false, false)
	if !evicted || victim != b {
		t.Fatalf("evicted (%d, %v), want B=%d", victim, evicted, b)
	}
	if hit, _ := c.Lookup(a); !hit {
		t.Fatal("A should survive (recently used)")
	}
}

func TestCacheWritebackSignalling(t *testing.T) {
	c := NewCache("t", 64*2, 1, 64, 1, 8) // 2 sets, direct-mapped
	c.Insert(0, true, false)              // dirty line in set 0
	victim, evicted, dirty := c.Insert(2, false, false)
	if !evicted || !dirty || victim != 0 {
		t.Fatalf("dirty eviction = (%d, %v, %v)", victim, evicted, dirty)
	}
}

func TestCacheMarkDirty(t *testing.T) {
	c := NewCache("t", 64*2, 1, 64, 1, 8)
	c.Insert(0, false, false)
	c.MarkDirty(0)
	_, _, dirty := c.Insert(2, false, false)
	if !dirty {
		t.Fatal("MarkDirty should make the eviction dirty")
	}
}

func TestCachePrefetchedBitClearsOnDemand(t *testing.T) {
	c := NewCache("t", 1024, 2, 64, 1, 8)
	c.Insert(5, false, true)
	if hit, wasPref := c.Lookup(5); !hit || !wasPref {
		t.Fatal("first demand hit should report prefetched")
	}
	if _, wasPref := c.Lookup(5); wasPref {
		t.Fatal("prefetched bit must clear after first use")
	}
}

func TestCachePendingMSHR(t *testing.T) {
	c := NewCache("t", 1024, 2, 64, 1, 2)
	if !c.AddPending(7, 100, 0) {
		t.Fatal("AddPending should succeed")
	}
	if ready, ok := c.Pending(7, 50); !ok || ready != 100 {
		t.Fatalf("Pending = (%d, %v)", ready, ok)
	}
	// Completed fills prune lazily.
	if _, ok := c.Pending(7, 100); ok {
		t.Fatal("completed fill should prune")
	}
	// MSHR limit: two live fills block a third.
	c.AddPending(1, 1000, 0)
	c.AddPending(2, 1000, 0)
	if c.AddPending(3, 1000, 0) {
		t.Fatal("MSHR limit should reject")
	}
	if c.PendingCount(0) != 2 {
		t.Fatalf("pending count = %d", c.PendingCount(0))
	}
}

func TestHierarchyL1Hit(t *testing.T) {
	h := newTestHierarchy()
	// First access misses everywhere; second hits L1D at its latency.
	h.Load(0x1000, 0, false)
	res := h.Load(0x1000, 10_000, false)
	if res.L1DMiss {
		t.Fatal("second access should hit L1D")
	}
	if res.Done != 10_000+uint64(h.Config().L1DLatency) {
		t.Fatalf("L1 hit latency = %d", res.Done-10_000)
	}
}

func TestHierarchyMissLatencyOrdering(t *testing.T) {
	h := newTestHierarchy()
	cold := h.Load(0x4000, 0, false)
	if !cold.LLCMiss || !cold.L1DMiss {
		t.Fatal("cold access must miss LLC")
	}
	dramLat := cold.Done
	if dramLat < 100 {
		t.Fatalf("DRAM path latency %d implausibly low", dramLat)
	}
	// After the fill completes, an L1-evicting access pattern still hits
	// LLC faster than DRAM.
	h2 := newTestHierarchy()
	h2.Load(0x4000, 0, false)
	// Touch it again after the fill: LLC/L1 resident.
	res := h2.Load(0x4000, dramLat+10, false)
	if res.LLCMiss {
		t.Fatal("refill should hit")
	}
	if res.Done-dramLat-10 >= dramLat {
		t.Fatal("hit should be much faster than the miss")
	}
}

func TestHierarchyMSHRMerge(t *testing.T) {
	h := newTestHierarchy()
	first := h.Load(0x8000, 0, false)
	merged := h.Load(0x8008, 5, false) // same line, while in flight
	if !merged.LLCMiss {
		t.Fatal("merged request should report the miss")
	}
	if merged.Done != first.Done {
		t.Fatalf("merged completion %d != primary %d", merged.Done, first.Done)
	}
	if h.St.LLCMisses != 1 {
		t.Fatalf("LLC misses = %d, want 1 (merge must not double count)", h.St.LLCMisses)
	}
	if h.DRAM.Reads != 1 {
		t.Fatalf("DRAM reads = %d, want 1", h.DRAM.Reads)
	}
}

func TestHierarchyStoreWriteAllocate(t *testing.T) {
	h := newTestHierarchy()
	res := h.Store(0x9000, 0)
	if !res.LLCMiss {
		t.Fatal("cold store should miss (write-allocate)")
	}
	// The line is now dirty in L1D; a load hits it.
	res2 := h.Load(0x9000, res.Done+1, false)
	if res2.L1DMiss {
		t.Fatal("store-allocated line should hit")
	}
}

func TestHierarchyWrongPathCounting(t *testing.T) {
	h := newTestHierarchy()
	h.Load(0xA000, 0, true)
	if h.St.WrongPathLoads != 1 {
		t.Fatal("wrong-path load not counted")
	}
	if h.St.L1DMisses != 0 || h.St.LLCMisses != 0 {
		t.Fatal("wrong-path load must not count as demand miss")
	}
	if h.OutstandingLLCMisses(1) != 0 {
		t.Fatal("wrong-path misses must not count toward MLP")
	}
	if h.DRAM.Reads != 1 {
		t.Fatal("wrong-path load still moves data")
	}
}

func TestHierarchyOutstandingMLP(t *testing.T) {
	h := newTestHierarchy()
	var last uint64
	for i := 0; i < 4; i++ {
		res := h.Load(uint64(0x10000+i*4096), 0, false)
		if res.Done > last {
			last = res.Done
		}
	}
	if got := h.OutstandingLLCMisses(1); got != 4 {
		t.Fatalf("outstanding = %d, want 4", got)
	}
	if got := h.OutstandingLLCMisses(last + 1); got != 0 {
		t.Fatalf("outstanding after completion = %d, want 0", got)
	}
}

func TestHierarchyInstFetch(t *testing.T) {
	h := newTestHierarchy()
	cold, _, _ := h.FetchInst(0x400000, 0)
	if cold <= uint64(h.Config().L1ILatency) {
		t.Fatal("cold I-fetch should be slow")
	}
	warm, _, _ := h.FetchInst(0x400000, cold+1)
	if warm != cold+1+uint64(h.Config().L1ILatency) {
		t.Fatalf("warm I-fetch latency = %d", warm-cold-1)
	}
}

// TestFetchInstPrefetchCredit pins the FDIP credit FetchInst reports: a
// demand merge onto an in-flight instruction prefetch is late, a demand hit
// on a landed one is useful, each mark is consumed by the access that
// reports it, and demand or next-line fills carry no mark at all.
func TestFetchInstPrefetchCredit(t *testing.T) {
	h := newTestHierarchy()
	lb := h.Config().LineBytes
	type credit struct{ useful, late bool }
	fetch := func(pc, now uint64) (uint64, credit) {
		done, useful, late := h.FetchInst(pc, now)
		return done, credit{useful, late}
	}
	check := func(what string, got, want credit) {
		t.Helper()
		if got != want {
			t.Errorf("%s: credit %+v, want %+v", what, got, want)
		}
	}
	prefetch := func(pc, now uint64) {
		t.Helper()
		if issued, full := h.PrefetchInst(pc/lb, now); !issued || full {
			t.Fatalf("PrefetchInst(%#x) issued=%v full=%v", pc, issued, full)
		}
	}

	// Late: the demand merges onto the prefetch while it is in flight.
	const late = 0x400000
	prefetch(late, 0)
	_, c := fetch(late, 1)
	check("merge onto in-flight prefetch", c, credit{late: true})
	_, c = fetch(late, 2)
	check("second merge onto the same prefetch", c, credit{})

	// Useful: the demand hits the prefetched line after it landed.
	const useful = 0x500000
	prefetch(useful, 10)
	ready, ok := h.L1I.Pending(useful/lb, 10)
	if !ok {
		t.Fatal("prefetch left no in-flight fill")
	}
	_, c = fetch(useful, ready+1)
	check("hit on landed prefetch", c, credit{useful: true})
	_, c = fetch(useful, ready+2)
	check("second hit on the same line", c, credit{})

	// Neither: demand and next-line fills are not prefetches.
	const demand = 0x600000
	done, c := fetch(demand, 20)
	check("demand miss", c, credit{})
	_, c = fetch(demand, 21)
	check("merge onto in-flight demand fill", c, credit{})
	next, ok := h.L1I.Pending(demand/lb+1, 21)
	if !ok || next < done {
		t.Fatalf("next-line fill ready=%d ok=%v, want in flight", next, ok)
	}
	_, c = fetch(demand+lb, next+1)
	check("hit on next-line-filled line", c, credit{})
}

func TestPrefetcherFillsStream(t *testing.T) {
	h := newTestHierarchy()
	// Walk a unit-stride stream with pipelined demand timing (an OoO window
	// issues the next loads long before the previous miss returns): after
	// training, later lines should be LLC hits thanks to the prefetcher.
	now := uint64(0)
	missesLate := 0
	for i := 0; i < 256; i++ {
		res := h.Load(uint64(0x200000+i*64), now, false)
		now += 40 // pipelined: well under the DRAM latency
		if i >= 192 && res.LLCMiss {
			missesLate++
		}
	}
	if h.St.PrefetchesIssued == 0 {
		t.Fatal("prefetcher never fired on a unit-stride stream")
	}
	if missesLate > 16 {
		t.Fatalf("%d/64 late accesses still missed LLC; prefetching ineffective", missesLate)
	}
	if h.St.PrefetchesUseful == 0 {
		t.Fatal("no prefetch marked useful")
	}
}

func TestPrefetcherIgnoresRandom(t *testing.T) {
	h := newTestHierarchy()
	now := uint64(0)
	rng := uint64(99)
	for i := 0; i < 64; i++ {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		res := h.Load(0x10000000+(rng%(1<<20))*64, now, false)
		now = res.Done + 1
	}
	if h.St.PrefetchesIssued > 8 {
		t.Fatalf("prefetcher issued %d on random accesses", h.St.PrefetchesIssued)
	}
}

func TestConfigValidate(t *testing.T) {
	cfg := Default()
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := cfg
	bad.LineBytes = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("zero line size should fail")
	}
	bad = cfg
	bad.L1DMSHRs = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("zero MSHRs should fail")
	}
}

// Property: Lookup after Insert always hits, regardless of address.
func TestQuickInsertThenLookup(t *testing.T) {
	c := NewCache("q", 32*1024, 8, 64, 2, 8)
	f := func(addr uint64) bool {
		line := c.LineAddr(addr)
		c.Insert(line, false, false)
		hit, _ := c.Lookup(line)
		return hit
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: a cache never reports more pending fills than its MSHR count.
func TestQuickMSHRBound(t *testing.T) {
	c := NewCache("q", 1024, 2, 64, 1, 4)
	now := uint64(0)
	f := func(line uint64, delta uint8) bool {
		now += uint64(delta)
		c.AddPending(line%64, now+uint64(delta)+1, now)
		return c.PendingCount(now) <= 4
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
