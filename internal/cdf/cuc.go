package cdf

import "cdf/internal/assoc"

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
	lineUops  int
	maxLines  int
	usedLines int
	traces    assoc.Table[Trace] // tagged by BlockPC

	Evictions uint64
}

// NewUopCache builds a Critical Uop Cache with totalLines capacity.
func NewUopCache(totalLines, ways, lineUops int) *UopCache {
	return &UopCache{lineUops: lineUops, maxLines: totalLines, traces: assoc.New[Trace](totalLines/ways, ways)}
}

func (c *UopCache) set(blockPC uint64) int { return int((blockPC >> 3) % uint64(c.traces.Sets())) }

// Lookup returns the trace for the block starting at blockPC.
func (c *UopCache) Lookup(blockPC uint64) (Trace, bool) {
	w := c.traces.Find(c.set(blockPC), blockPC)
	if w == nil {
		return Trace{}, false
	}
	c.traces.Touch(w)
	return w.V, true
}

// Probe returns the trace without updating LRU (observe-only marking uses
// it so replacement stays clean).
func (c *UopCache) Probe(blockPC uint64) (Trace, bool) {
	if w := c.traces.Find(c.set(blockPC), blockPC); w != nil {
		return w.V, true
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
	w, hit := c.traces.Slot(c.set(t.BlockPC), t.BlockPC)
	if hit {
		c.usedLines += t.Lines - w.V.Lines
		w.V = t
		c.traces.Touch(w)
		return t.Lines
	}
	if w.Valid {
		c.evict(w)
	}
	c.traces.Fill(w, t.BlockPC, t)
	c.usedLines += t.Lines
	// Global capacity pressure: evict LRU entries while over budget (traces
	// larger than one line can push occupancy past the line count even when
	// every set has free ways).
	for c.usedLines > c.maxLines {
		v := c.traces.Oldest(t.BlockPC)
		if v == nil {
			break
		}
		c.evict(v)
	}
	return t.Lines
}

func (c *UopCache) evict(w *assoc.Way[Trace]) {
	c.usedLines -= w.V.Lines
	c.Evictions++
	w.Valid = false
}

// Remove invalidates the block's trace (density-gate rejection).
func (c *UopCache) Remove(blockPC uint64) {
	if w := c.traces.Find(c.set(blockPC), blockPC); w != nil {
		c.usedLines -= w.V.Lines
		w.Valid = false
	}
}

// UsedLines returns current occupancy in 8-uop lines.
func (c *UopCache) UsedLines() int { return c.usedLines }
