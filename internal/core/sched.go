package core

import (
	"sort"

	"cdf/internal/isa"
)

// Fast-path scheduler: a scoreboard/wakeup replacement for the slow path's
// per-cycle RS rescans, selecting the exact same uops in the exact same
// order (DESIGN.md §9). Three structures carry the state:
//
//   - readyList: RS entries whose operands are available, kept in program
//     order — precisely the set the slow path's readyToIssue scan would
//     find, so the two-pass (critical-first, oldest-first) selection walks
//     it directly instead of the whole RS.
//   - waitHead[p]: a singly linked chain (through entry.wnext) of RS
//     entries waiting on physical register p. markReadyWake drains the
//     chain when p's value is produced.
//   - staPending: stores still awaiting address generation, replacing the
//     slow path's whole-RS STA scan. Order does not matter: the pending
//     memory-violation check takes the program-order minimum.
//
// Flush recovery drops all of it and rebuilds from the surviving RS
// (schedRebuild) — flushes are rare, so O(window + PRF) there is cheap.

// schedEnqueue registers a freshly dispatched (or rebuilt) RS entry with
// the scheduler: chain it on its unready sources or make it ready now.
func (c *Core) schedEnqueue(e *entry) {
	if e.op.IsStore() && !e.wrongPath && !e.addrReady {
		c.staPending = append(c.staPending, e)
	}
	if e.wrongPath {
		c.readyInsert(e)
		return
	}
	if !c.schedChain(e) {
		c.readyInsert(e)
	}
}

// schedChain hangs e on the wait chains of its unready sources, returning
// false when every operand is already available.
func (c *Core) schedChain(e *entry) bool {
	n := int8(0)
	if e.src1 >= 0 && !c.rf.isReady(e.src1) {
		e.wnext[0] = c.waitHead[e.src1]
		c.waitHead[e.src1] = e
		n++
	}
	if e.src2 >= 0 && e.src2 != e.src1 && !c.rf.isReady(e.src2) {
		e.wnext[1] = c.waitHead[e.src2]
		c.waitHead[e.src2] = e
		n++
	}
	e.waitCnt = n
	return n > 0
}

// markReadyWake marks physical register p ready and wakes its waiters.
// All readiness transitions in the cycle loop route through here so the
// readyList stays exactly the slow path's ready set.
func (c *Core) markReadyWake(p int16) {
	c.rf.markReady(p)
	if c.cfg.SlowPath || p < 0 {
		return
	}
	e := c.waitHead[p]
	c.waitHead[p] = nil
	for e != nil {
		slot := 0
		if e.src2 == p && e.src1 != p {
			slot = 1
		}
		next := e.wnext[slot]
		e.wnext[slot] = nil
		e.waitCnt--
		if e.waitCnt == 0 && e.inRS && e.state == stateWaiting {
			c.readyInsert(e)
		}
		e = next
	}
}

// readyInsert places e into the ready list at its program-order position.
// Dispatch runs in program order within each stream, so e is usually
// younger than the list's tail and is appended without a search.
func (c *Core) readyInsert(e *entry) {
	n := len(c.readyList)
	if n == 0 || c.readyList[n-1].before(e) {
		c.readyList = append(c.readyList, e)
		return
	}
	i := sort.Search(n, func(i int) bool {
		return !c.readyList[i].before(e)
	})
	c.readyList = append(c.readyList, nil)
	copy(c.readyList[i+1:], c.readyList[i:])
	c.readyList[i] = e
}

// schedRebuild reconstructs all scheduler state from the surviving RS —
// the ROB entries still marked inRS — after a flush (chains may reference
// flushed entries, so everything is dropped and re-derived from the
// register file's ready bits).
func (c *Core) schedRebuild() {
	for i := range c.waitHead {
		c.waitHead[i] = nil
	}
	clearTail(c.readyList, 0)
	c.readyList = c.readyList[:0]
	clearTail(c.staPending, 0)
	c.staPending = c.staPending[:0]
	for _, sec := range [2][]*entry{c.robCrit.items, c.robNon.items} {
		for _, e := range sec {
			if e.inRS {
				e.wnext[0], e.wnext[1] = nil, nil
				e.waitCnt = 0
				c.schedEnqueue(e)
			}
		}
	}
}

// issueFast is the fast path's issue stage: identical selection to
// Core.issue, driven by staPending and readyList instead of RS scans.
func (c *Core) issueFast() {
	var ports [isa.NumPortClasses]int
	copy(ports[:], c.cfg.Ports[:])
	budget := c.cfg.Width

	// Store address generation: STA fires as soon as the base register is
	// ready, independent of the data.
	keep := c.staPending[:0]
	for _, e := range c.staPending {
		if !e.addrReady && c.rf.isReady(e.src1) {
			e.addr = e.dyn.Addr
			e.addrReady = true
			c.work = true
			c.checkStoreViolation(e)
		}
		if !e.addrReady {
			keep = append(keep, e)
		}
	}
	clearTail(c.staPending, len(keep))
	c.staPending = keep

	// Two passes over the ready list: critical entries first, then the
	// rest; both oldest-first (the list is program-ordered). Only entries
	// of the critical ROB section are critical, so with that section empty
	// the first pass is skipped. Issued and parked entries — the only
	// ones that leave the RS or gain a wait count here — have their slot
	// cleared, and leave the list in one compaction afterwards that starts
	// at the first cleared slot.
	lo := len(c.readyList)
	first := 0
	if c.robCrit.len() == 0 {
		first = 1
	}
	for pass := first; pass < 2 && budget > 0; pass++ {
		wantCritical := pass == 0
		for i, e := range c.readyList {
			if budget == 0 {
				break
			}
			if e == nil || e.critical != wantCritical {
				continue
			}
			if !e.wrongPath && !(c.rf.isReady(e.src1) && c.rf.isReady(e.src2)) {
				// A source's physical register was freed and re-allocated
				// after this entry became ready (CDF's dual rename reuses
				// registers while consumers still sit in the window). The
				// slow path re-checks readiness every cycle, so park the
				// entry back on the wait chains of its new producers.
				c.schedChain(e)
				c.readyList[i] = nil
				lo = min(lo, i)
				continue
			}
			cls := e.op.Port()
			if ports[cls] <= 0 {
				continue
			}
			if e.op.IsLoad() && !e.wrongPath {
				if blocked, _ := c.loadBlockedByStore(e); blocked {
					continue
				}
			}
			ports[cls]--
			budget--
			c.work = true
			if c.tracer != nil {
				c.traceEvent("issue", e, e.op.String())
			}
			c.readyList[i] = nil
			lo = min(lo, i)
			c.execute(e)
		}
	}
	if lo < len(c.readyList) {
		kept := c.readyList[:lo]
		for _, e := range c.readyList[lo:] {
			if e != nil {
				kept = append(kept, e)
			}
		}
		clearTail(c.readyList, len(kept))
		c.readyList = kept
	}
}
