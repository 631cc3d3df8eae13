// Package mem implements the cache hierarchy: set-associative write-back
// caches with LRU replacement and MSHR-style pending-fill merging, arranged
// as split L1I/L1D over a shared LLC over DRAM, with a stream prefetcher
// trained on L1D demand misses.
package mem

import (
	"fmt"
	"math/bits"
	"sort"
)

type cacheLine struct {
	tag        uint64
	valid      bool
	dirty      bool
	prefetched bool // filled by a prefetch and not yet demanded
	lru        uint64
}

// Cache is one set-associative cache level. Timing is handled by the
// Hierarchy; Cache only tracks contents, replacement, and pending fills.
type Cache struct {
	Name      string
	sets      int
	ways      int
	lineShift uint   // log2 of the line size
	setMask   uint64 // sets-1: the set index is the line address's low bits
	hitLat    int

	lines    []cacheLine // sets*ways, row-major by set
	lruClock uint64

	// pending is the MSHR table: in-flight fills as (line, ready) pairs kept
	// sorted by line address, so lookups are binary searches, iteration order
	// is deterministic (maps made traced sweep output nondeterministic under
	// -jobs > 1), and the steady-state loop never allocates — the backing
	// array is sized to maxMSHR once at construction.
	pending []mshr
	maxMSHR int
}

// mshr is one miss-status holding register: an in-flight fill for line
// completing at cycle ready. Later requests to the same line merge onto it.
// pref marks fills started by an instruction prefetch; a demand merge onto
// such a fill counts the prefetch as late (correct but not timely) and
// consumes the mark.
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
		sets:      sets,
		ways:      ways,
		lineShift: uint(bits.TrailingZeros64(lineBytes)),
		setMask:   uint64(sets - 1),
		hitLat:    hitLat,
		lines:     make([]cacheLine, sets*ways),
		pending:   make([]mshr, 0, mshrs),
		maxMSHR:   mshrs,
	}
}

// Sets returns the number of sets.
func (c *Cache) Sets() int { return c.sets }

// LineAddr converts a byte address to a line address.
func (c *Cache) LineAddr(addr uint64) uint64 { return addr >> c.lineShift }

func (c *Cache) set(lineAddr uint64) []cacheLine {
	s := int(lineAddr & c.setMask)
	return c.lines[s*c.ways : (s+1)*c.ways]
}

// Lookup probes for lineAddr; on a hit it refreshes LRU state and clears the
// prefetched bit (returning whether it was set, for prefetch-useful
// accounting).
func (c *Cache) Lookup(lineAddr uint64) (hit, wasPrefetched bool) {
	set := c.set(lineAddr)
	for i := range set {
		l := &set[i]
		if l.valid && l.tag == lineAddr {
			c.lruClock++
			l.lru = c.lruClock
			wasPrefetched = l.prefetched
			l.prefetched = false
			return true, wasPrefetched
		}
	}
	return false, false
}

// Contains probes without touching replacement or prefetch state.
func (c *Cache) Contains(lineAddr uint64) bool {
	set := c.set(lineAddr)
	for i := range set {
		if set[i].valid && set[i].tag == lineAddr {
			return true
		}
	}
	return false
}

// Insert fills lineAddr, evicting the LRU victim. It returns the victim's
// line address and whether it was dirty (needs writeback). evicted is false
// when an invalid way was available or the line was already present.
func (c *Cache) Insert(lineAddr uint64, dirty, prefetched bool) (victim uint64, evicted, victimDirty bool) {
	set := c.set(lineAddr)
	c.lruClock++
	// Already present (e.g. refill racing a demand fill): update flags.
	for i := range set {
		l := &set[i]
		if l.valid && l.tag == lineAddr {
			l.dirty = l.dirty || dirty
			l.lru = c.lruClock
			return 0, false, false
		}
	}
	vi := 0
	for i := range set {
		if !set[i].valid {
			vi = i
			break
		}
		if set[i].lru < set[vi].lru {
			vi = i
		}
	}
	v := &set[vi]
	victim, evicted, victimDirty = v.tag, v.valid, v.valid && v.dirty
	*v = cacheLine{tag: lineAddr, valid: true, dirty: dirty, prefetched: prefetched, lru: c.lruClock}
	return victim, evicted, victimDirty
}

// MarkDirty sets the dirty bit if the line is present.
func (c *Cache) MarkDirty(lineAddr uint64) {
	set := c.set(lineAddr)
	for i := range set {
		if set[i].valid && set[i].tag == lineAddr {
			set[i].dirty = true
			return
		}
	}
}

// findPending returns the sorted position of lineAddr in the MSHR table
// and whether an entry for it exists there.
func (c *Cache) findPending(lineAddr uint64) (int, bool) {
	i := sort.Search(len(c.pending), func(i int) bool {
		return c.pending[i].line >= lineAddr
	})
	return i, i < len(c.pending) && c.pending[i].line == lineAddr
}

// Pending returns the completion cycle of an in-flight fill for lineAddr.
// Entries whose fill completed before now are pruned lazily.
func (c *Cache) Pending(lineAddr, now uint64) (ready uint64, ok bool) {
	i, found := c.findPending(lineAddr)
	if !found {
		return 0, false
	}
	if r := c.pending[i].ready; r > now {
		return r, true
	}
	c.pending = append(c.pending[:i], c.pending[i+1:]...)
	return 0, false
}

// AddPending records an in-flight fill. It reports false if all MSHRs are
// busy (the request must retry).
func (c *Cache) AddPending(lineAddr, ready, now uint64) bool {
	i, found := c.findPending(lineAddr)
	if found {
		c.pending[i].ready = ready
		return true
	}
	if len(c.pending) >= c.maxMSHR {
		c.prunePending(now)
		if len(c.pending) >= c.maxMSHR {
			return false
		}
		i, _ = c.findPending(lineAddr)
	}
	c.pending = append(c.pending, mshr{})
	copy(c.pending[i+1:], c.pending[i:])
	c.pending[i] = mshr{line: lineAddr, ready: ready}
	return true
}

// AddPendingPref records an in-flight prefetch fill: like AddPending but
// the entry carries the prefetch mark that PendingPref later consumes. A
// merge onto an existing (demand) entry does not set the mark — the demand
// fill was there first, so the prefetch added nothing.
func (c *Cache) AddPendingPref(lineAddr, ready, now uint64) bool {
	if !c.AddPending(lineAddr, ready, now) {
		return false
	}
	if i, found := c.findPending(lineAddr); found {
		c.pending[i].pref = true
	}
	return true
}

// PendingPref is Pending plus the prefetch-mark handshake: if the in-flight
// fill was started by a prefetch, pref is true and the mark is consumed so
// one prefetch is credited as late at most once.
func (c *Cache) PendingPref(lineAddr, now uint64) (ready uint64, pref, ok bool) {
	i, found := c.findPending(lineAddr)
	if !found {
		return 0, false, false
	}
	if r := c.pending[i].ready; r > now {
		pref = c.pending[i].pref
		c.pending[i].pref = false
		return r, pref, true
	}
	c.pending = append(c.pending[:i], c.pending[i+1:]...)
	return 0, false, false
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
