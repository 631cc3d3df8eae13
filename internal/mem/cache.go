// Package mem implements the cache hierarchy: set-associative write-back
// caches with MSHR-style pending-fill merging, arranged as split L1I/L1D
// over a shared LLC over DRAM, with a stream prefetcher trained on L1D
// demand misses. Tag lookup and LRU replacement live in internal/assoc.
package mem

import (
	"fmt"
	"math/bits"

	"cdf/internal/assoc"
)

// lineState is a cache way's payload.
type lineState struct {
	dirty      bool
	prefetched bool // filled by a prefetch and not yet demanded
}

// Cache is one set-associative cache level. Timing is handled by the
// Hierarchy; Cache only tracks contents, replacement, and pending fills.
type Cache struct {
	Name      string
	lineShift uint   // log2 of the line size
	setMask   uint64 // sets-1: the set index is the line address's low bits
	hitLat    int

	lines assoc.Table[lineState]

	// pending is the MSHR table: at most maxMSHR in-flight fills, one per
	// line, in no particular order. The table is observed only through a
	// line's entry, the minimum ready cycle and the live count, none of
	// which depends on order, so lookups scan it and a removal moves the
	// last entry into the gap. Its backing array is sized to maxMSHR once
	// at construction, so the steady-state loop never allocates.
	pending []mshr
	maxMSHR int
}

// mshr is one miss-status holding register: an in-flight fill for line
// completing at cycle ready. Later requests to the same line merge onto it.
// pref marks fills started by an instruction prefetch (PrefetchInst sets
// it); a demand fetch merging onto such a fill counts the prefetch as late
// (correct but not timely) and consumes the mark.
type mshr struct {
	line  uint64
	ready uint64
	pref  bool
}

// NewCache builds a cache of the given total size. sizeBytes must be
// divisible by ways*lineBytes, and both the line size and the resulting
// set count must be powers of two, so indexing is a shift and a mask.
func NewCache(name string, sizeBytes, ways int, lineBytes uint64, hitLat, mshrs int) *Cache {
	if sizeBytes <= 0 || ways <= 0 || lineBytes == 0 || lineBytes&(lineBytes-1) != 0 {
		panic(fmt.Sprintf("mem: invalid cache geometry %s size=%d ways=%d line=%d (line size must be a power of two)", name, sizeBytes, ways, lineBytes))
	}
	sets := sizeBytes / (ways * int(lineBytes))
	if sets == 0 || sizeBytes%(ways*int(lineBytes)) != 0 || sets&(sets-1) != 0 {
		panic(fmt.Sprintf("mem: cache %s size %dB not divisible into a power-of-two number of %d-way sets of %dB lines", name, sizeBytes, ways, lineBytes))
	}
	return &Cache{
		Name:      name,
		lineShift: uint(bits.TrailingZeros64(lineBytes)),
		setMask:   uint64(sets - 1),
		hitLat:    hitLat,
		lines:     assoc.New[lineState](sets, ways),
		pending:   make([]mshr, 0, mshrs),
		maxMSHR:   mshrs,
	}
}

// Sets returns the number of sets.
func (c *Cache) Sets() int { return c.lines.Sets() }

// LineAddr converts a byte address to a line address.
func (c *Cache) LineAddr(addr uint64) uint64 { return addr >> c.lineShift }

// way returns lineAddr's way, or nil when the line is absent.
func (c *Cache) way(lineAddr uint64) *assoc.Way[lineState] {
	return c.lines.Find(int(lineAddr&c.setMask), lineAddr)
}

// Lookup probes for lineAddr; on a hit it refreshes LRU state and clears the
// prefetched bit (returning whether it was set, for prefetch-useful
// accounting).
func (c *Cache) Lookup(lineAddr uint64) (hit, wasPrefetched bool) {
	l := c.way(lineAddr)
	if l == nil {
		return false, false
	}
	c.lines.Touch(l)
	wasPrefetched = l.V.prefetched
	l.V.prefetched = false
	return true, wasPrefetched
}

// Contains probes without touching replacement or prefetch state.
func (c *Cache) Contains(lineAddr uint64) bool { return c.way(lineAddr) != nil }

// Insert fills lineAddr, evicting the LRU victim. It returns the victim's
// line address and whether it was dirty (needs writeback). evicted is false
// when an invalid way was available or the line was already present.
func (c *Cache) Insert(lineAddr uint64, dirty, prefetched bool) (victim uint64, evicted, victimDirty bool) {
	l, hit := c.lines.Slot(int(lineAddr&c.setMask), lineAddr)
	if hit {
		// Already present (e.g. refill racing a demand fill): update flags.
		l.V.dirty = l.V.dirty || dirty
		c.lines.Touch(l)
		return 0, false, false
	}
	victim, evicted, victimDirty = l.Tag, l.Valid, l.Valid && l.V.dirty
	c.lines.Fill(l, lineAddr, lineState{dirty: dirty, prefetched: prefetched})
	return victim, evicted, victimDirty
}

// MarkDirty sets the dirty bit if the line is present.
func (c *Cache) MarkDirty(lineAddr uint64) {
	if l := c.way(lineAddr); l != nil {
		l.V.dirty = true
	}
}

// inflight returns lineAddr's in-flight fill, or nil. An entry whose fill
// completed by now is dropped on the way.
func (c *Cache) inflight(lineAddr, now uint64) *mshr {
	for i := range c.pending {
		m := &c.pending[i]
		if m.line != lineAddr {
			continue
		}
		if m.ready > now {
			return m
		}
		last := len(c.pending) - 1
		c.pending[i] = c.pending[last]
		c.pending = c.pending[:last]
		return nil
	}
	return nil
}

// Pending returns the completion cycle of an in-flight fill for lineAddr.
// Entries whose fill completed before now are pruned lazily.
func (c *Cache) Pending(lineAddr, now uint64) (ready uint64, ok bool) {
	if m := c.inflight(lineAddr, now); m != nil {
		return m.ready, true
	}
	return 0, false
}

// AddPending records an in-flight fill of lineAddr completing at ready and
// returns its entry; a line already in the table keeps its entry with the
// new ready cycle. It returns nil, recording nothing, when every MSHR is
// still busy after the completed fills are pruned.
func (c *Cache) AddPending(lineAddr, ready, now uint64) *mshr {
	for i := range c.pending {
		if m := &c.pending[i]; m.line == lineAddr {
			m.ready = ready
			return m
		}
	}
	if len(c.pending) >= c.maxMSHR {
		c.prunePending(now)
		if len(c.pending) >= c.maxMSHR {
			return nil
		}
	}
	c.pending = append(c.pending, mshr{line: lineAddr, ready: ready})
	return &c.pending[len(c.pending)-1]
}

func (c *Cache) prunePending(now uint64) {
	live := c.pending[:0]
	for _, m := range c.pending {
		if m.ready > now {
			live = append(live, m)
		}
	}
	c.pending = live
}

// NextPendingReady returns the earliest completion cycle among in-flight
// fills and whether any exist (the idle skip's next-event probe).
func (c *Cache) NextPendingReady() (uint64, bool) {
	if len(c.pending) == 0 {
		return 0, false
	}
	min := c.pending[0].ready
	for _, m := range c.pending[1:] {
		if m.ready < min {
			min = m.ready
		}
	}
	return min, true
}

// PendingCount returns the number of in-flight fills (post-prune).
func (c *Cache) PendingCount(now uint64) int {
	c.prunePending(now)
	return len(c.pending)
}

// ResetPending drops all in-flight fills without touching contents or
// replacement state. Sampled simulation calls it when warm structures are
// handed to a fresh interval core: MSHR ready cycles are in the previous
// core's timebase and would otherwise poison the new core's clock.
func (c *Cache) ResetPending() { c.pending = c.pending[:0] }
