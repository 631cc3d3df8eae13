package mem

import "cdf/internal/stats"

// Functional warming (DESIGN.md §12): while sampled simulation fast-forwards
// at emulation speed, every executed uop touches the hierarchy through the
// Warm* methods below. They move cache contents, replacement state and
// prefetcher training exactly like the demand paths, but are timing-free —
// no MSHRs, no DRAM scheduling, no stats, and a dirty LLC victim is
// dropped without a writeback — so the caches an interval core adopts hold
// the working set the full run would have at that point.

// WarmInst touches the instruction line containing pc: present lines
// refresh LRU, absent lines fill L1I (and the LLC if also absent there).
func (h *Hierarchy) WarmInst(pc uint64) {
	line := h.L1I.LineAddr(pc)
	if hit, _ := h.L1I.Lookup(line); hit {
		return
	}
	if hit := h.warmLookupLLC(line); !hit {
		h.LLC.Insert(line, false, false)
	}
	h.L1I.Insert(line, false, false)
}

// WarmLoad touches the data line containing addr as a demand load and
// reports whether it missed the LLC (the criticality tables train on LLC
// misses). L1D demand misses train the prefetcher, whose lines warm-fill
// the LLC, mirroring the timed path.
func (h *Hierarchy) WarmLoad(addr uint64) (llcMiss bool) {
	line := h.L1D.LineAddr(addr)
	if hit, _ := h.L1D.Lookup(line); hit {
		return false
	}
	// FDP feedback is timing-coupled (late merges drive the degree up) and
	// cannot be observed functionally; freeze the throttle so only the
	// cycle-accurate measured intervals adapt it.
	if h.Pref != nil {
		h.Pref.Freeze(true)
		defer h.Pref.Freeze(false)
	}
	llcHit := h.warmLookupLLC(line)
	if !llcHit {
		h.LLC.Insert(line, false, false)
	}
	h.warmFillL1D(line, false)
	if h.Pref != nil {
		for _, pl := range h.Pref.OnMiss(line) {
			if !h.LLC.Contains(pl) {
				h.LLC.Insert(pl, false, true)
			}
		}
	}
	return !llcHit
}

// WarmStore touches the data line containing addr as a store
// (write-allocate, write-back: the line ends up dirty in L1D).
func (h *Hierarchy) WarmStore(addr uint64) (llcMiss bool) {
	line := h.L1D.LineAddr(addr)
	if hit, _ := h.L1D.Lookup(line); hit {
		h.L1D.MarkDirty(line)
		return false
	}
	llcHit := h.warmLookupLLC(line)
	if !llcHit {
		h.LLC.Insert(line, false, false)
	}
	h.warmFillL1D(line, true)
	return !llcHit
}

// WarmWrongLoad touches the hierarchy like a modelled wrong-path load: it
// allocates (wrong-path fills are real fills) but trains nothing — the
// timed path guards prefetcher training, statistics and usefulness credit
// with !wrongPath, and a wrong-path hit on a prefetched line consumes the
// line's prefetched bit without crediting FDP, exactly as Lookup does here.
// Skipping this traffic during warming is not an option: the scattershot
// fills around the demand stream act as a crude prefetcher, and measured
// intervals adopting a hierarchy without them see several times the LLC
// misses of the run they stand in for.
func (h *Hierarchy) WarmWrongLoad(addr uint64) {
	line := h.L1D.LineAddr(addr)
	if hit, _ := h.L1D.Lookup(line); hit {
		return
	}
	if hit, _ := h.LLC.Lookup(line); !hit {
		h.LLC.Insert(line, false, false)
	}
	h.warmFillL1D(line, false)
}

// warmLookupLLC probes the LLC for a warm access, crediting the prefetcher
// exactly like the timed path: a demand touch that lands on a prefetched
// line is a useful prefetch, and FDP's degree feedback must keep seeing
// that signal during fast-forward — otherwise every warming gap trains the
// throttle toward minimum degree and measured intervals start with a
// crippled prefetcher.
func (h *Hierarchy) warmLookupLLC(line uint64) (hit bool) {
	hit, wasPref := h.LLC.Lookup(line)
	if hit && wasPref && h.Pref != nil {
		h.Pref.OnPrefetchUseful()
	}
	return hit
}

// warmFillL1D installs a line in L1D, propagating dirty victims into the
// LLC so writeback state stays realistic across the handoff.
func (h *Hierarchy) warmFillL1D(line uint64, dirty bool) {
	victim, evicted, victimDirty := h.L1D.Insert(line, dirty, false)
	if evicted && victimDirty {
		if h.LLC.Contains(victim) {
			h.LLC.MarkDirty(victim)
		} else {
			h.LLC.Insert(victim, true, false)
		}
	}
}

// ResetTiming clears every cycle-valued piece of hierarchy state — MSHR
// tables, outstanding-miss tracking, DRAM bank/bus schedules — leaving
// contents, replacement and prefetcher training intact. An interval core
// adopting a warm hierarchy starts at cycle 0; stale completion cycles
// from a previous interval (or warming) must not leak into its timebase.
func (h *Hierarchy) ResetTiming() {
	h.L1I.ResetPending()
	h.L1D.ResetPending()
	h.LLC.ResetPending()
	h.outstanding = h.outstanding[:0]
	h.llcMissPending = h.llcMissPending[:0]
	h.DRAM.ResetTiming()
}

// SetStats redirects traffic counters to st. Each interval core brings its
// own Stats; the shared warm hierarchy is repointed at handoff.
func (h *Hierarchy) SetStats(st *stats.Stats) { h.St = st }
