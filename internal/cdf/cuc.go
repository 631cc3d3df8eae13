package cdf

// Trace is one Critical Uop Cache entry: the critical uops of one basic
// block, stored as a bit mask over the block's uop positions, plus the
// metadata the CDF frontend needs to compute the next fetch address (§3.2):
// whether the block ends in a branch (then the branch is predicted) and the
// observed successor's start address otherwise.
type Trace struct {
	BlockPC      uint64
	Mask         uint64 // bit i set => uop i of the block is critical
	BlockLen     int    // total uops in the block
	CritCount    int
	EndsInBranch bool
	SavedNext    uint64 // successor block start PC recorded at fill time
	Lines        int    // 8-uop lines this trace occupies (capacity model)
	// NoEnter bars CDF-mode entry on this block while keeping the trace
	// available (hybrid mode: density-rejected traces still feed runahead).
	NoEnter bool
}

// UopCache is the Critical Uop Cache: a set-associative cache of Traces
// tagged by basic-block start PC. Capacity follows Table 1 (18KB, 4-way,
// 8 uops per line); a trace with more than 8 critical uops occupies
// multiple lines, which we account for in the Lines field and the occupancy
// counter (the associativity search itself is per-trace — a documented
// simplification, since the workloads' blocks rarely exceed one line).
type UopCache struct {
	sets, ways int
	lineUops   int
	maxLines   int
	usedLines  int
	entries    []cucEntry
	clock      uint64

	Hits      uint64
	Misses    uint64
	Installs  uint64
	Evictions uint64
}

type cucEntry struct {
	valid bool
	trace Trace
	lru   uint64
}

// NewUopCache builds a Critical Uop Cache with totalLines capacity.
func NewUopCache(totalLines, ways, lineUops int) *UopCache {
	sets := totalLines / ways
	return &UopCache{
		sets: sets, ways: ways, lineUops: lineUops, maxLines: totalLines,
		entries: make([]cucEntry, sets*ways),
	}
}

func (c *UopCache) set(blockPC uint64) []cucEntry {
	s := int((blockPC >> 3) % uint64(c.sets))
	return c.entries[s*c.ways : (s+1)*c.ways]
}

// Lookup returns the trace for the block starting at blockPC.
func (c *UopCache) Lookup(blockPC uint64) (Trace, bool) {
	set := c.set(blockPC)
	for i := range set {
		e := &set[i]
		if e.valid && e.trace.BlockPC == blockPC {
			c.clock++
			e.lru = c.clock
			c.Hits++
			return e.trace, true
		}
	}
	c.Misses++
	return Trace{}, false
}

// Probe returns the trace without updating LRU or hit/miss counters
// (observe-only marking uses it so stats stay clean).
func (c *UopCache) Probe(blockPC uint64) (Trace, bool) {
	set := c.set(blockPC)
	for i := range set {
		if set[i].valid && set[i].trace.BlockPC == blockPC {
			return set[i].trace, true
		}
	}
	return Trace{}, false
}

// Install inserts or updates a trace. It returns the number of single-cycle
// install operations performed (one per line), which the walk latency model
// charges.
func (c *UopCache) Install(t Trace) int {
	// Blocks with no critical uops still get a (one-line) entry carrying the
	// control-flow metadata: the CDF frontend must walk every block on the
	// path to predict its branches for the Delayed Branch Queue, even when
	// it fetches no uops from it.
	t.Lines = (t.CritCount + c.lineUops - 1) / c.lineUops
	if t.Lines == 0 {
		t.Lines = 1
	}
	set := c.set(t.BlockPC)
	c.clock++
	for i := range set {
		e := &set[i]
		if e.valid && e.trace.BlockPC == t.BlockPC {
			c.usedLines += t.Lines - e.trace.Lines
			e.trace = t
			e.lru = c.clock
			c.Installs++
			return t.Lines
		}
	}
	victim := &set[0]
	for i := range set {
		e := &set[i]
		if !e.valid {
			victim = e
			break
		}
		if e.lru < victim.lru {
			victim = e
		}
	}
	if victim.valid {
		c.usedLines -= victim.trace.Lines
		c.Evictions++
	}
	*victim = cucEntry{valid: true, trace: t, lru: c.clock}
	c.usedLines += t.Lines
	c.Installs++
	// Global capacity pressure: evict LRU entries while over budget (traces
	// larger than one line can push occupancy past the line count even when
	// every set has free ways).
	for c.usedLines > c.maxLines {
		c.evictGlobalLRU(t.BlockPC)
	}
	return t.Lines
}

func (c *UopCache) evictGlobalLRU(keep uint64) {
	var victim *cucEntry
	for i := range c.entries {
		e := &c.entries[i]
		if !e.valid || e.trace.BlockPC == keep {
			continue
		}
		if victim == nil || e.lru < victim.lru {
			victim = e
		}
	}
	if victim == nil {
		return
	}
	c.usedLines -= victim.trace.Lines
	c.Evictions++
	*victim = cucEntry{}
}

// Remove invalidates the block's trace (density-gate rejection).
func (c *UopCache) Remove(blockPC uint64) {
	set := c.set(blockPC)
	for i := range set {
		e := &set[i]
		if e.valid && e.trace.BlockPC == blockPC {
			c.usedLines -= e.trace.Lines
			*e = cucEntry{}
			return
		}
	}
}

// UsedLines returns current occupancy in 8-uop lines.
func (c *UopCache) UsedLines() int { return c.usedLines }
