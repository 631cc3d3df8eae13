package mem

import (
	"fmt"
	"sort"

	"cdf/internal/mem/dram"
	"cdf/internal/mem/prefetch"
	"cdf/internal/stats"
)

// Config describes the full hierarchy (Table 1 defaults in Default).
type Config struct {
	LineBytes uint64

	L1ISizeBytes int
	L1IWays      int
	L1ILatency   int
	L1IMSHRs     int

	L1DSizeBytes int
	L1DWays      int
	L1DLatency   int
	L1DMSHRs     int

	LLCSizeBytes int
	LLCWays      int
	LLCLatency   int
	LLCMSHRs     int

	PrefetchEnabled bool
	Prefetch        prefetch.Config
	DRAM            dram.Config
}

// Default returns the paper's Table 1 cache hierarchy: 32KB 8-way L1I/L1D
// (2-cycle), 1MB 16-way LLC (18-cycle), 64B lines, stream prefetcher with
// FDP, DDR4_2400R memory.
func Default() Config {
	return Config{
		LineBytes:       64,
		L1ISizeBytes:    32 * 1024,
		L1IWays:         8,
		L1ILatency:      2,
		L1IMSHRs:        8,
		L1DSizeBytes:    32 * 1024,
		L1DWays:         8,
		L1DLatency:      2,
		L1DMSHRs:        32,
		LLCSizeBytes:    1024 * 1024,
		LLCWays:         16,
		LLCLatency:      18,
		LLCMSHRs:        64,
		PrefetchEnabled: true,
		Prefetch:        prefetch.Default(),
		DRAM:            dram.Default(),
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.LineBytes == 0 {
		return fmt.Errorf("mem: zero line size")
	}
	if c.L1IMSHRs <= 0 || c.L1DMSHRs <= 0 || c.LLCMSHRs <= 0 {
		return fmt.Errorf("mem: MSHR counts must be positive")
	}
	return c.DRAM.Validate()
}

// AccessResult describes the timing of one memory access.
type AccessResult struct {
	Done    uint64 // cycle at which the data is available
	LLCMiss bool   // the access (or the fill it merged onto) missed the LLC
	L1DMiss bool
}

// Hierarchy is the memory system: L1I + L1D over a shared LLC over DRAM,
// with a stream prefetcher trained on L1D demand misses that fills the LLC.
type Hierarchy struct {
	cfg  Config
	L1I  *Cache
	L1D  *Cache
	LLC  *Cache
	DRAM *dram.DRAM
	Pref *prefetch.Stream
	St   *stats.Stats

	// outstanding holds in-flight demand LLC misses (completion cycle and
	// line), for the MLP metric and merged-miss bookkeeping; outstandingMin
	// is a lower bound on their completion cycles.
	outstanding    []outstandingMiss
	outstandingMin uint64

	// llcMissPending remembers which pending L1D fills also missed the LLC,
	// so merged requests report LLCMiss consistently. Entries are removed
	// as their fills complete (outstanding prune). A sorted line-address
	// slice standing in for a set: small, allocation-free in steady state,
	// deterministic iteration.
	llcMissPending []uint64
}

// llcMissFind returns line's sorted position and membership.
func (h *Hierarchy) llcMissFind(line uint64) (int, bool) {
	i := sort.Search(len(h.llcMissPending), func(i int) bool {
		return h.llcMissPending[i] >= line
	})
	return i, i < len(h.llcMissPending) && h.llcMissPending[i] == line
}

// llcMissHas reports whether line's pending fill missed the LLC.
func (h *Hierarchy) llcMissHas(line uint64) bool {
	_, ok := h.llcMissFind(line)
	return ok
}

// llcMissAdd records line's pending fill as an LLC miss.
func (h *Hierarchy) llcMissAdd(line uint64) {
	i, ok := h.llcMissFind(line)
	if ok {
		return
	}
	h.llcMissPending = append(h.llcMissPending, 0)
	copy(h.llcMissPending[i+1:], h.llcMissPending[i:])
	h.llcMissPending[i] = line
}

// llcMissDel drops line from the merged-miss set.
func (h *Hierarchy) llcMissDel(line uint64) {
	if i, ok := h.llcMissFind(line); ok {
		h.llcMissPending = append(h.llcMissPending[:i], h.llcMissPending[i+1:]...)
	}
}

// NewHierarchy builds the memory system. st receives traffic counters and
// may be shared with the core.
func NewHierarchy(cfg Config, st *stats.Stats) *Hierarchy {
	if err := cfg.Validate(); err != nil {
		// The core validates cfg.Mem before construction, so reaching this
		// means a caller bypassed core.Config.Validate.
		panic(fmt.Sprintf("mem: NewHierarchy called with invalid config (L1I %dB L1D %dB LLC %dB line %dB): %v",
			cfg.L1ISizeBytes, cfg.L1DSizeBytes, cfg.LLCSizeBytes, cfg.LineBytes, err))
	}
	h := &Hierarchy{
		cfg:  cfg,
		L1I:  NewCache("L1I", cfg.L1ISizeBytes, cfg.L1IWays, cfg.LineBytes, cfg.L1ILatency, cfg.L1IMSHRs),
		L1D:  NewCache("L1D", cfg.L1DSizeBytes, cfg.L1DWays, cfg.LineBytes, cfg.L1DLatency, cfg.L1DMSHRs),
		LLC:  NewCache("LLC", cfg.LLCSizeBytes, cfg.LLCWays, cfg.LineBytes, cfg.LLCLatency, cfg.LLCMSHRs),
		DRAM: dram.New(cfg.DRAM),
		St:   st,
	}
	if cfg.PrefetchEnabled {
		h.Pref = prefetch.New(cfg.Prefetch)
	}
	return h
}

// Config returns the hierarchy configuration.
func (h *Hierarchy) Config() Config { return h.cfg }

// Load performs a demand data load of the line containing addr, issued at
// cycle now. wrongPath marks modelled wrong-path accesses: they move data
// and generate traffic but are not counted as demand misses for MLP.
func (h *Hierarchy) Load(addr, now uint64, wrongPath bool) AccessResult {
	line := h.L1D.LineAddr(addr)

	// Merge onto an in-flight fill if there is one.
	if ready, ok := h.L1D.Pending(line, now); ok {
		merged := h.llcMissHas(line)
		if h.Pref != nil && merged {
			// Late-prefetch style merge: correct but not timely.
			h.Pref.OnPrefetchLate()
		}
		return AccessResult{Done: max(ready, now+uint64(h.cfg.L1DLatency)), LLCMiss: merged, L1DMiss: true}
	}

	if hit, _ := h.L1D.Lookup(line); hit {
		if !wrongPath {
			h.St.L1DHits++
		}
		return AccessResult{Done: now + uint64(h.cfg.L1DLatency)}
	}

	// L1D miss.
	if !wrongPath {
		h.St.L1DMisses++
	} else {
		h.St.WrongPathLoads++
	}
	llcAt := now + uint64(h.cfg.L1DLatency)
	done, llcMiss := h.accessLLC(line, llcAt, false, wrongPath)
	h.fillL1D(line, done, now, false)
	if llcMiss && !wrongPath {
		h.llcMissAdd(line)
	}

	// Train the prefetcher on demand L1D misses (correct path only).
	if h.Pref != nil && !wrongPath {
		for _, pl := range h.Pref.OnMiss(line) {
			h.prefetchLine(pl, now)
		}
	}
	return AccessResult{Done: done, LLCMiss: llcMiss, L1DMiss: true}
}

// Store commits a store to the line containing addr at cycle now
// (write-allocate, write-back). The returned Done is when the line is owned.
func (h *Hierarchy) Store(addr, now uint64) AccessResult {
	line := h.L1D.LineAddr(addr)

	if ready, ok := h.L1D.Pending(line, now); ok {
		h.L1D.MarkDirty(line) // will be dirty once filled; Insert merged it
		return AccessResult{Done: max(ready, now+uint64(h.cfg.L1DLatency)), LLCMiss: h.llcMissHas(line), L1DMiss: true}
	}
	if hit, _ := h.L1D.Lookup(line); hit {
		h.St.L1DHits++
		h.L1D.MarkDirty(line)
		return AccessResult{Done: now + uint64(h.cfg.L1DLatency)}
	}
	h.St.L1DMisses++
	llcAt := now + uint64(h.cfg.L1DLatency)
	done, llcMiss := h.accessLLC(line, llcAt, false, false)
	h.fillL1D(line, done, now, true)
	if llcMiss {
		h.llcMissAdd(line)
	}
	return AccessResult{Done: done, LLCMiss: llcMiss, L1DMiss: true}
}

// FetchInst fetches the instruction line containing pc at cycle now. It
// also reports whether the demand line hit on a line installed by an
// instruction prefetch (useful) or merged onto a still-pending one (late).
// Each report consumes its mark: the in-flight fill's for late, the
// line's for useful, so a late prefetch is credited useful too on its first
// hit after landing. Only PrefetchInst sets the marks, so on a machine
// without FDIP both are always false. A next-line instruction prefetcher
// runs ahead of sequential code (standard frontend equipment).
func (h *Hierarchy) FetchInst(pc, now uint64) (done uint64, useful, late bool) {
	line := h.L1I.LineAddr(pc)
	done, useful, late = h.fetchInstLine(line, now)
	// Next-line prefetch: bring the following lines in behind the demand.
	for d := uint64(1); d <= 2; d++ {
		next := line + d
		if h.L1I.Contains(next) {
			continue
		}
		if _, ok := h.L1I.Pending(next, now); ok {
			continue
		}
		h.fetchInstLine(next, now)
	}
	return done, useful, late
}

// PrefetchInst issues an FDIP prefetch for the given instruction line.
// issued=false, full=false means the line is already present or in flight
// (the FTQ entry is simply consumed); full=true means no L1I MSHR is free
// and the FTQ must retry. The LLC walk reuses the wrong-path access flavor:
// no demand hit/miss stats, no stream-FDP credit, no MLP accounting — an
// instruction prefetch is not a demand access.
func (h *Hierarchy) PrefetchInst(line, now uint64) (issued, full bool) {
	if h.L1I.Contains(line) {
		return false, false
	}
	if _, ok := h.L1I.Pending(line, now); ok {
		return false, false
	}
	if h.L1I.PendingCount(now) >= h.cfg.L1IMSHRs {
		return false, true
	}
	llcAt := now + uint64(h.cfg.L1ILatency)
	done, _ := h.accessLLC(line, llcAt, true, true)
	h.L1I.Insert(line, false, true)
	// The PendingCount check above left an MSHR free.
	h.L1I.AddPending(line, done, now).pref = true
	h.St.L1IPrefetches++
	return true, false
}

// fetchInstLine is one timed L1I line access: a merge onto an in-flight
// fill, a hit, or a miss that fills from the LLC. useful and late carry
// the line's consumed prefetch marks (see FetchInst).
func (h *Hierarchy) fetchInstLine(line, now uint64) (done uint64, useful, late bool) {
	if m := h.L1I.inflight(line, now); m != nil {
		late, m.pref = m.pref, false
		return max(m.ready, now+uint64(h.cfg.L1ILatency)), false, late
	}
	if hit, wasPref := h.L1I.Lookup(line); hit {
		h.St.L1IHits++
		return now + uint64(h.cfg.L1ILatency), wasPref, false
	}
	h.St.L1IMisses++
	llcAt := now + uint64(h.cfg.L1ILatency)
	done, _ = h.accessLLC(line, llcAt, true, false)
	h.L1I.Insert(line, false, false)
	h.L1I.AddPending(line, done, now)
	return done, false, false
}

// accessLLC looks up (or fills) line in the LLC at cycle at, returning the
// data-ready cycle and whether DRAM was accessed.
func (h *Hierarchy) accessLLC(line, at uint64, inst, wrongPath bool) (done uint64, llcMiss bool) {
	if ready, ok := h.LLC.Pending(line, at); ok {
		return max(ready, at+uint64(h.cfg.LLCLatency)), true
	}
	if hit, wasPref := h.LLC.Lookup(line); hit {
		if !wrongPath {
			h.St.LLCHits++
			if wasPref && h.Pref != nil {
				h.Pref.OnPrefetchUseful()
				h.St.PrefetchesUseful++
			}
		}
		return at + uint64(h.cfg.LLCLatency), false
	}

	// LLC miss: go to DRAM.
	if !wrongPath {
		h.St.LLCMisses++
	}
	dramAt := at + uint64(h.cfg.LLCLatency)
	done = h.DRAM.Access(line*h.cfg.LineBytes, dramAt, false)
	h.St.DRAMReads++
	h.insertLLC(line, false, false)
	h.LLC.AddPending(line, done, at)
	if !wrongPath && !inst {
		h.outstanding = append(h.outstanding, outstandingMiss{done: done, line: line})
		h.outstandingMin = min(h.outstandingMin, done)
	}
	return done, true
}

type outstandingMiss struct {
	done uint64
	line uint64
}

// prefetchLine brings line into the LLC (if absent) as a prefetch.
func (h *Hierarchy) prefetchLine(line, now uint64) {
	if h.LLC.Contains(line) {
		return
	}
	if _, ok := h.LLC.Pending(line, now); ok {
		return
	}
	h.St.PrefetchesIssued++
	done := h.DRAM.Access(line*h.cfg.LineBytes, now+uint64(h.cfg.LLCLatency), false)
	h.St.DRAMReads++
	h.insertLLC(line, false, true)
	h.LLC.AddPending(line, done, now)
}

// insertLLC installs a line, issuing a writeback for a dirty victim.
func (h *Hierarchy) insertLLC(line uint64, dirty, prefetched bool) {
	victim, evicted, victimDirty := h.LLC.Insert(line, dirty, prefetched)
	if evicted && victimDirty {
		h.DRAM.Access(victim*h.cfg.LineBytes, 0, true)
		h.St.DRAMWrites++
		h.St.WritebacksLLC++
	}
}

// fillL1D installs a line in L1D with an in-flight fill completing at done.
func (h *Hierarchy) fillL1D(line, done, now uint64, dirty bool) {
	victim, evicted, victimDirty := h.L1D.Insert(line, dirty, false)
	if evicted && victimDirty {
		// Write back to LLC; if absent there, on to DRAM.
		if h.LLC.Contains(victim) {
			h.LLC.MarkDirty(victim)
		} else {
			h.insertLLC(victim, true, false)
		}
		h.St.WritebacksL1++
	}
	h.L1D.AddPending(line, done, now)
}

// OutstandingLLCMisses returns the number of in-flight demand LLC misses at
// cycle now, pruning completed ones (and their merged-miss map entries).
// The core calls this once per cycle to integrate the MLP metric; while the
// earliest completion is still ahead there is nothing to prune.
func (h *Hierarchy) OutstandingLLCMisses(now uint64) int {
	if h.outstandingMin > now {
		return len(h.outstanding)
	}
	next := ^uint64(0)
	live := h.outstanding[:0]
	for _, om := range h.outstanding {
		if om.done > now {
			live = append(live, om)
			next = min(next, om.done)
		} else {
			h.llcMissDel(om.line)
		}
	}
	h.outstanding = live
	h.outstandingMin = next
	return len(h.outstanding)
}

// NextOutstandingDone returns the earliest completion cycle among in-flight
// demand LLC misses, and whether any exist. The idle skip uses it to bound
// how far the clock may jump without changing the per-cycle MLP sample.
func (h *Hierarchy) NextOutstandingDone() (uint64, bool) {
	if len(h.outstanding) == 0 {
		return 0, false
	}
	min := h.outstanding[0].done
	for _, om := range h.outstanding[1:] {
		if om.done < min {
			min = om.done
		}
	}
	return min, true
}
