package core

import (
	"fmt"

	"cdf/internal/cdf"
	"cdf/internal/isa"
	"cdf/internal/stats"
)

// --- allocation (rename + dispatch, §3.4/§3.5) ---

// allocate runs the Issue logic: it always picks from the critical rename
// stage first (if present and unblocked), then the regular stage, within
// the machine width.
func (c *Core) allocate() {
	budget := c.cfg.Width
	if c.cdfOn {
		budget = c.allocCritical(budget)
	}
	c.allocRegular(budget)
}

// The structures §3.5 splits into a critical and a non-critical section,
// indexed as partitions lists them.
const (
	partROB = iota
	partLQ
	partSQ
)

var partNames = [3]string{"ROB", "LQ", "SQ"}

// fullRS indexes the RS in Core.fullAt, after the partitioned structures.
const fullRS = partSQ + 1

// partitions returns the ROB, LQ and SQ partitions (all nil outside the CDF
// modes).
func (c *Core) partitions() [3]*cdf.Partition {
	return [3]*cdf.Partition{c.robPart, c.lqPart, c.sqPart}
}

// occupancy returns partitioned structure i's capacity and its entries in
// use: all of them, and those of the critical section.
func (c *Core) occupancy(i int) (size, used, crit int) {
	switch i {
	case partROB:
		crit = c.robCrit.len()
		return c.cfg.ROBSize, crit + c.robNon.len(), crit
	case partLQ:
		return c.cfg.LQSize, c.lq.len(), c.lqCrit
	}
	return c.cfg.SQSize, c.sq.len(), c.sqCrit
}

// atCap reports whether a stream's section of a partitioned structure with
// used entries in use, crit of them critical, is at its partition cap.
func atCap(p *cdf.Partition, used, crit int, critical bool) bool {
	if critical {
		return crit >= p.CritCap
	}
	return used-crit >= p.NonCritCap()
}

// sectionHead returns the oldest in-flight entry of a stream's section of
// partitioned structure i.
func (c *Core) sectionHead(i int, critical bool) *entry {
	f := &c.lq
	switch {
	case i == partROB && critical:
		f = &c.robCrit
	case i == partROB:
		f = &c.robNon
	case i == partSQ:
		f = &c.sq
	}
	for _, e := range f.items {
		if e.critical == critical {
			return e
		}
	}
	return nil
}

// stalledOnLatency reports whether a section's fullness is latency-caused:
// its oldest entry has not produced its result yet. A section full of
// completed uops is retirement-bound, and expanding it cannot help — the
// distinction the paper's full-window-stall counters make.
func stalledOnLatency(e *entry) bool {
	return e != nil && e.state != stateDone
}

// hasRoom is the backend's one allocation rule (§3.5), shared by both rename
// stages: it reports whether e finds room in its stream's share of the ROB,
// RS, LQ, SQ and PRF, and of the CMQ for a critical writer. The critical
// stream's split is always in force; the regular stream's only while a CDF
// episode is live or still draining. The RS and PRF cap critical occupancy
// in proportion to the ROB split. The first full ROB, RS, LQ or SQ is
// charged its full-cycle counter (see sectionFull and chargeFull); a full
// PRF or CMQ is not.
func (c *Core) hasRoom(e *entry) bool {
	crit := e.critical
	split := crit || c.robPart != nil && (c.cdfOn || c.robCrit.len() > 0)
	if c.sectionFull(partROB, crit, split, &c.st.ROBFullCycles) {
		return false
	}
	if c.rsLen >= c.cfg.RSSize || crit && c.rsCrit >= c.critRSLimit() {
		c.chargeFull(fullRS, &c.st.RSFullCycles)
		return false
	}
	if e.op.IsLoad() && c.sectionFull(partLQ, crit, split, &c.st.LQFullCycles) ||
		e.op.IsStore() && c.sectionFull(partSQ, crit, split, &c.st.SQFullCycles) {
		return false
	}
	if e.wrongPath || !e.dyn.U.Op.HasDst() {
		return true
	}
	return c.rf.freeCount() > 0 &&
		(!crit || c.rf.critInFlight < c.critPRFLimit() && c.cmq.len() < c.cfg.CDF.CMQSize)
}

// sectionFull reports whether a stream's section of partitioned structure i
// has no room: the structure is full as a whole or, with the split in
// force, the section is at its cap. A full section counts the cycle in
// *counter and, with the split in force, charges the partition a stall of
// the section — pressure to grow it — when its oldest entry still waits on
// a result. The partition is charged on every call, since each blocked
// stream is pressure of its own; the counter once per cycle.
func (c *Core) sectionFull(i int, critical, split bool, counter *uint64) bool {
	p := c.partitions()[i]
	if size, used, crit := c.occupancy(i); used < size && !(split && atCap(p, used, crit, critical)) {
		return false
	}
	c.chargeFull(i, counter)
	if split && stalledOnLatency(c.sectionHead(i, critical)) {
		p.NoteStall(critical)
	}
	return true
}

// chargeFull counts the current cycle in structure i's full-cycle counter,
// once however many rename stages find the structure full in it: during a
// CDF episode both stages can block on one structure in the same cycle.
func (c *Core) chargeFull(i int, counter *uint64) {
	if c.fullAt[i] != c.now+1 {
		c.fullAt[i] = c.now + 1
		*counter++
	}
}

// critRSLimit returns the cap on critical uops in the RS; it follows the
// ROB partition ratio (§3.5: "the number of critical uops in the RS and PRF
// change with the ROB partition size").
func (c *Core) critRSLimit() int {
	return c.cfg.RSSize * c.robPart.CritCap / c.cfg.ROBSize
}

func (c *Core) critPRFLimit() int {
	return max(c.cfg.PRFSize*c.robPart.CritCap/c.cfg.ROBSize, 16)
}

// noteCritHogging records reverse partition pressure: the critical section
// of a structure is at its cap and that is throttling the in-order
// (non-critical) stream, so the critical share should shrink. Only the
// first such structure is charged, and only when its critical head is *not*
// waiting on memory (a latency-stalled critical section is doing its job —
// shrinking it would surrender MLP; a section full of completed uops is
// hogging).
func (c *Core) noteCritHogging() {
	for i, p := range c.partitions() {
		if _, used, crit := c.occupancy(i); atCap(p, used, crit, true) {
			if !stalledOnLatency(c.sectionHead(i, true)) {
				p.NoteStall(false)
			}
			return
		}
	}
}

// allocCritical renames and allocates uops from the critical instruction
// buffer, returning the remaining width budget.
func (c *Core) allocCritical(budget int) int {
	for budget > 0 && c.critQ.len() > 0 && c.critQ.items[0].at <= c.now {
		e := c.critQ.items[0].e

		// Fork the critical RAT once all pre-entry uops have renamed.
		if !c.rf.critForked {
			if c.regNextSeq < c.cdfEntrySeq {
				break
			}
			c.rf.forkCritRAT()
		}
		if !c.hasRoom(e) {
			break
		}

		// Rename against the critical RAT.
		if !e.wrongPath {
			u := e.dyn.U
			e.src1 = c.rf.lookup(u.Src1, true)
			e.src2 = c.rf.lookup(u.Src2, true)
			if u.Op.HasDst() {
				p, _ := c.rf.alloc() // hasRoom saw a free register
				e.prevCrit = c.rf.critRAT[u.Dst]
				c.rf.critRAT[u.Dst] = p
				e.dstPhys = p
				c.rf.critInFlight++
				c.cmq.push(e)
			}
		}
		e.critRenamed = true
		c.traceEvent("rename", e, "critical")

		c.dispatch(e)
		c.critQ.popHead()
		budget--
	}
	return budget
}

// allocRegular renames/replays and allocates uops from the regular decode
// pipe in program order.
func (c *Core) allocRegular(budget int) {
	for budget > 0 && c.fetchQ.len() > 0 && c.fetchQ.items[0].at <= c.now {
		e := c.fetchQ.items[0].e

		if e.isReplay {
			// Replay a critical uop's rename to keep the regular RAT in
			// program order (§3.4); detect poison violations (§3.6).
			t := e.replayOf
			if t == nil || !t.critRenamed {
				// The critical rename stage has not processed it yet —
				// usually because a full critical section blocks it. That
				// throttles the in-order stream: reverse pressure.
				c.noteCritHogging()
				break
			}
			u := t.dyn.U
			// Poison check on sources: a poisoned source means a
			// non-critical uop produced a value this critical uop consumed
			// — it executed incorrectly.
			if c.violatesPoison(u) {
				if c.debugViol != nil {
					reg := -1
					if u.Src1.Valid() && c.rf.poison[u.Src1] {
						reg = int(u.Src1)
					} else if u.Src2.Valid() && c.rf.poison[u.Src2] {
						reg = int(u.Src2)
					}
					c.debugViol(t, reg)
				}
				c.st.DependenceViolations++
				c.fetchQ.popHead()
				c.pool.put(e)
				if c.tracer != nil {
					c.traceMode(fmt.Sprintf("register dependence violation at seq %d", t.seq))
				}
				c.violation(t)
				return
			}
			if u.Op.HasDst() {
				if c.cmq.len() == 0 || c.cmq.items[0] != t {
					panic(errInternal("CMQ head mismatch at replay of seq %d", t.seq))
				}
				c.cmq.popHead()
				t.prevReg = c.rf.rat[u.Dst]
				c.rf.rat[u.Dst] = t.dstPhys
				c.rf.poison[u.Dst] = false
			}
			t.regRenamed = true
			c.work = true
			c.traceEvent("rename", t, "replay")
			c.regNextSeq = e.seq + 1
			c.fetchQ.popHead()
			c.pool.put(e)
			budget--
			continue
		}
		if !c.hasRoom(e) {
			break
		}

		// Rename against the regular RAT.
		if !e.wrongPath {
			u := e.dyn.U
			e.src1 = c.rf.lookup(u.Src1, false)
			e.src2 = c.rf.lookup(u.Src2, false)
			if u.Op.HasDst() {
				p, _ := c.rf.alloc() // hasRoom saw a free register
				e.prevReg = c.rf.rat[u.Dst]
				c.rf.rat[u.Dst] = p
				e.dstPhys = p
				if c.cdfOn && e.fetchedInCDF {
					// Non-critical writer inside the episode: poison for
					// violation detection. Uops fetched before CDF entry are
					// ordered ahead of the critical RAT fork (the fork waits
					// for them) and must not poison.
					c.rf.poison[u.Dst] = true
					if c.debugViol != nil {
						c.lastPoisonWriter[u.Dst] = u.String()
					}
				}
			}
			e.regRenamed = true
			c.regNextSeq = e.seq + 1
		}
		c.traceEvent("rename", e, "")

		c.dispatch(e)
		c.fetchQ.popHead()
		budget--
	}
}

// violatesPoison reports whether any source of u is poisoned.
func (c *Core) violatesPoison(u isa.Uop) bool {
	if u.Src1.Valid() && c.rf.poison[u.Src1] {
		return true
	}
	if u.Src2.Valid() && c.rf.poison[u.Src2] {
		return true
	}
	return false
}

// dispatch places an allocated entry into the ROB section, RS, and LQ/SQ.
func (c *Core) dispatch(e *entry) {
	c.work = true
	if e.critical {
		c.robCrit.push(e)
	} else {
		c.robNon.push(e)
	}
	c.fig1Count(e, 1)
	e.state = stateWaiting
	e.inRS = true
	c.rsLen++
	if e.critical {
		c.rsCrit++
	}
	if e.op.IsLoad() {
		c.lq.insertOrdered(e)
		if e.critical {
			c.lqCrit++
		}
	}
	if e.op.IsStore() {
		c.sq.insertOrdered(e)
		if e.critical {
			c.sqCrit++
		}
	}
	if !e.wrongPath && e.seq > c.lastAllocSeq {
		c.lastAllocSeq = e.seq
	}
	if !c.cfg.SlowPath {
		c.schedEnqueue(e)
	}
}

// --- issue / execute (§3.5 "Issue and Dispatch") ---

// issue selects ready uops from the RS — oldest first, critical preferred —
// within port-class limits, and starts their execution.
func (c *Core) issue() {
	var ports [isa.NumPortClasses]int
	copy(ports[:], c.cfg.Ports[:])
	budget := c.cfg.Width
	sections := [2][]*entry{c.robCrit.items, c.robNon.items}

	// Store address generation: STA fires as soon as the base register is
	// ready, independent of the data, enabling early violation detection
	// and forwarding. The violation check keeps the program-order minimum,
	// so the scan order does not matter.
	for _, sec := range sections {
		for _, e := range sec {
			if e.inRS && e.op.IsStore() && !e.addrReady && !e.wrongPath && c.rf.isReady(e.src1) {
				e.addr = e.dyn.Addr
				e.addrReady = true
				c.work = true
				c.checkStoreViolation(e)
			}
		}
	}

	// Two passes: critical entries first, then the rest; both oldest-first.
	// The RS is the ROB entries still marked inRS, and each ROB section is
	// program-ordered and holds only its own criticality.
	for _, sec := range sections {
		for _, e := range sec {
			if budget == 0 {
				return
			}
			if !e.inRS || !c.readyToIssue(e) {
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
			c.execute(e)
		}
	}
}

// readyToIssue reports whether e's operands are available.
func (c *Core) readyToIssue(e *entry) bool {
	if e.state != stateWaiting {
		return false
	}
	if e.wrongPath {
		return true
	}
	return c.rf.isReady(e.src1) && c.rf.isReady(e.src2)
}

// loadBlockedByStore reports whether an older same-word store with a known
// address but unissued data blocks the load, and returns any forwarding
// source (older matching store whose data is available).
func (c *Core) loadBlockedByStore(ld *entry) (blocked bool, fwd *entry) {
	word := ld.dyn.Addr >> 3
	for i := len(c.sq.items) - 1; i >= 0; i-- {
		st := c.sq.items[i]
		if !st.before(ld) {
			continue
		}
		if st.wrongPath || !st.addrReady {
			continue // unknown address: speculate past it
		}
		if st.addr>>3 != word {
			continue
		}
		// Youngest older matching store.
		if st.state == stateExecuting || st.state == stateDone {
			return false, st
		}
		return true, nil // address matches but data not yet issued
	}
	return false, nil
}

// execute starts e on its port: computes addresses, accesses memory for
// loads, and schedules completion.
func (c *Core) execute(e *entry) {
	e.state = stateExecuting
	e.inRS = false
	c.rsLen--
	if e.critical {
		c.rsCrit--
	}

	switch {
	case e.op.IsLoad():
		if e.wrongPath {
			// Modelled wrong-path load: traffic and pollution only.
			res := c.hier.Load(e.addr, c.now+1, true)
			e.doneAt = res.Done
			e.issuedMem = true
			break
		}
		e.addr = e.dyn.Addr
		e.addrReady = true
		if _, fwd := c.loadBlockedByStore(e); fwd != nil {
			// Store-to-load forwarding.
			e.forwarded = true
			e.doneAt = max(c.now, fwd.doneAt) + uint64(c.cfg.Mem.L1DLatency)
			break
		}
		res := c.hier.Load(e.addr, c.now+1, false)
		e.doneAt = res.Done
		e.llcMiss = res.LLCMiss
		e.issuedMem = true
		c.wp.note(e.addr / c.cfg.Mem.LineBytes)

	case e.op.IsStore():
		if !e.wrongPath {
			e.addr = e.dyn.Addr
			if !e.addrReady {
				e.addrReady = true
				c.checkStoreViolation(e)
			}
		}
		e.doneAt = c.now + uint64(e.op.Latency())

	default:
		e.doneAt = c.now + uint64(e.op.Latency())
	}
	c.exec = append(c.exec, e)
}

// checkStoreViolation scans for younger loads that already read the store's
// word: a memory-order violation, flushed from the offending load (§3.5
// "Memory Disambiguation"). The flush itself is deferred to the end of the
// stage so the scheduler's scan is not mutated underneath it.
func (c *Core) checkStoreViolation(st *entry) {
	word := st.addr >> 3
	for _, ld := range c.lq.items {
		if ld.wrongPath || !ld.younger(st.seq, st.sub) {
			continue
		}
		if !ld.issuedMem && !ld.forwarded {
			continue
		}
		if ld.dyn.Addr>>3 != word {
			continue
		}
		if c.pendingMemViol == nil || ld.before(c.pendingMemViol) {
			c.pendingMemViol = ld
		}
	}
}

// processMemViolation applies a deferred memory-order violation flush.
func (c *Core) processMemViolation() {
	if c.pendingMemViol == nil {
		return
	}
	ld := c.pendingMemViol
	c.pendingMemViol = nil
	// The load may have been flushed meanwhile by a branch recovery; only
	// act if it is still in the LQ.
	for _, e := range c.lq.items {
		if e == ld {
			c.st.MemOrderViolations++
			c.violation(ld)
			return
		}
	}
}

// --- completion and branch resolution ---

// complete retires execution results: wakes dependents and resolves
// branches, possibly triggering recovery.
func (c *Core) complete() {
	var resolved *entry
	live := c.exec[:0]
	for _, e := range c.exec {
		if e.doneAt > c.now {
			live = append(live, e)
			continue
		}
		e.state = stateDone
		c.work = true
		c.markReadyWake(e.dstPhys)
		c.traceEvent("complete", e, "")
		if e.op.IsLoad() && e.wrongPath {
			continue // wrong-path slots need no resolution
		}
		if !e.wrongPath && e.op.IsBranch() && e.mispredict && !e.resolved {
			if resolved == nil || e.before(resolved) {
				resolved = e
			}
		}
	}
	c.exec = live
	if resolved != nil {
		resolved.resolved = true
		c.recoverBranch(resolved)
	}
}

// --- retire (§3.5 "In-Order Retirement") ---

func (c *Core) retire() {
	if c.debugBlockRetire != nil && c.debugBlockRetire() {
		return
	}
	for n := 0; n < c.cfg.Width; n++ {
		e := c.oldestROBHead()
		if e == nil {
			if c.strm.Halted() && c.pipelineEmpty() {
				c.finish(StopCompleted)
			}
			return
		}
		if e.wrongPath {
			// The slot's mispredicted branch is still in flight (possibly
			// still in the decode pipe); it will resolve and flush this
			// entry. Wrong-path work never retires.
			return
		}
		if e.state != stateDone {
			return
		}
		// Critical uops retire only after their regular-stream replay has
		// updated the RAT in program order (§3.4).
		if e.critical && !e.regRenamed {
			return
		}
		c.retireEntry(e)
		if c.finished {
			// Divergence or final uop: nothing younger may retire.
			return
		}
	}
}

// pipelineEmpty reports whether nothing is in flight.
func (c *Core) pipelineEmpty() bool {
	return c.robOccupancy() == 0 && c.fetchQ.len() == 0 && c.critQ.len() == 0
}

func (c *Core) retireEntry(e *entry) {
	c.work = true
	if !c.checkCommit(e) {
		// Divergence: the machine stops with its state intact for the
		// snapshot; the diverging uop does not retire.
		return
	}
	if e.critical {
		if c.robCrit.head() != e {
			panic(errInternal("critical retire head mismatch"))
		}
		c.robCrit.popHead()
	} else {
		if c.robNon.head() != e {
			panic(errInternal("non-critical retire head mismatch"))
		}
		c.robNon.popHead()
	}
	c.fig1Count(e, -1)

	if e.op.IsLoad() {
		if c.lq.head() != e {
			panic(errInternal("LQ retire head mismatch"))
		}
		c.lq.popHead()
		if e.critical {
			c.lqCrit--
		}
		c.st.RetiredLoads++
	}
	if e.op.IsStore() {
		if c.sq.head() != e {
			panic(errInternal("SQ retire head mismatch"))
		}
		c.sq.popHead()
		if e.critical {
			c.sqCrit--
		}
		// Commit the store to the memory system.
		c.hier.Store(e.dyn.Addr, c.now)
		c.st.RetiredStores++
	}
	if e.op.IsBranch() {
		c.st.RetiredBranches++
	}

	// Free the previous mapping of the destination register.
	if e.hasDst() {
		c.rf.release(e.prevReg)
		c.markReadyWake(e.prevReg)
		if e.critical {
			c.rf.critInFlight--
		}
	}

	c.st.RetiredUops++
	if c.tracer != nil {
		c.traceEvent("retire", e, e.op.String())
	}
	if e.critical {
		c.st.CriticalUopsRetired++
	}
	c.retired++

	if c.cfg.WarmupRetired > 0 && c.retired == c.cfg.WarmupRetired {
		// End of warm-up: drop the statistics, keep the machine warm.
		*c.st = stats.Stats{}
	}

	c.trainCriticality(e)

	if e.dyn.Last {
		c.finish(StopCompleted)
	}
	c.pool.put(e)
}

// --- flush and recovery ---

// collectFlush removes all entries younger than (seq, sub) — inclusive when
// requested — from every structure and undoes their renames youngest-first.
// Removed entries are recycled into the pool at the end, after their rename
// and stream bookkeeping has been undone.
func (c *Core) collectFlush(seq uint64, sub uint32, inclusive bool) {
	c.work = true
	crit := c.robCrit.flushYounger(seq, sub, inclusive, c.flushScratch[:0])
	removed := c.robNon.flushYounger(seq, sub, inclusive, crit)
	c.flushScratch = removed[:0]

	drop := func(e *entry) bool {
		if inclusive {
			return e.youngerEq(seq, sub)
		}
		return e.younger(seq, sub)
	}

	// LQ/SQ.
	c.lq.filter(func(e *entry) bool { return !drop(e) }, func(e *entry) {
		if e.critical {
			c.lqCrit--
		}
	})
	c.sq.filter(func(e *entry) bool { return !drop(e) }, func(e *entry) {
		if e.critical {
			c.sqCrit--
		}
	})

	// The RS and Fig. 1 counts lose the removed ROB entries.
	for _, e := range removed {
		c.fig1Count(e, -1)
		if e.inRS {
			c.rsLen--
			if e.critical {
				c.rsCrit--
			}
		}
	}
	keepEx := c.exec[:0]
	for _, e := range c.exec {
		if !drop(e) {
			keepEx = append(keepEx, e)
		}
	}
	clearTail(c.exec, len(keepEx))
	c.exec = keepEx

	// Frontend queues. Entries still in the decode pipes were never
	// dispatched, so nothing else references them: recycle immediately
	// (clearing any stream record that points at a dropped critical entry,
	// so a later refetch of the position starts clean).
	c.fetchQ.filter(func(it fqItem) bool { return !drop(it.e) }, func(it fqItem) {
		c.pool.put(it.e)
	})
	c.critQ.filter(func(it fqItem) bool { return !drop(it.e) }, func(it fqItem) {
		c.clearStreamCrit(it.e)
		c.pool.put(it.e)
	})

	// DBQ / CMQ. CMQ entries alias backend entries already collected above.
	c.dbq.filter(func(d dbqEntry) bool {
		return d.seq <= seq && !(inclusive && d.seq == seq)
	}, nil)
	c.cmq.filter(func(e *entry) bool { return !drop(e) }, nil)

	// Wrong-path engines whose source branch got flushed.
	if c.regWPActive {
		probe := entry{seq: c.regWPSeq}
		if drop(&probe) {
			c.regWPActive = false
		}
	}
	if c.critWPActive {
		probe := entry{seq: c.critWPSeq}
		if drop(&probe) {
			c.critWPActive = false
		}
	}

	c.st.FlushedUops += uint64(len(removed))
	if c.tracer != nil && len(removed) > 0 {
		c.traceMode(fmt.Sprintf("flush %d uops younger than %d.%d", len(removed), seq, sub))
	}

	// Undo renames youngest-first. Each ROB section's removals are already
	// a youngest-first run; merge the two when both are non-empty (outside
	// CDF episodes the critical run always is).
	if n := len(crit); n > 0 && n < len(removed) {
		c.flushMerge = mergeYoungestFirst(c.flushMerge[:0], removed[:n], removed[n:])
		removed = c.flushMerge
	}
	for _, e := range removed {
		if !e.hasDst() {
			continue
		}
		u := e.dyn.U
		if e.regRenamed && c.rf.rat[u.Dst] == e.dstPhys {
			c.rf.rat[u.Dst] = e.prevReg
		}
		if e.critRenamed && c.rf.critForked && c.rf.critRAT[u.Dst] == e.dstPhys {
			c.rf.critRAT[u.Dst] = e.prevCrit
		}
		c.rf.release(e.dstPhys)
		c.rf.markReady(e.dstPhys)
		if e.critical {
			c.rf.critInFlight--
		}
	}

	// Stream bookkeeping, then recycle. A critical entry flushed while CDF
	// mode survives (no epoch bump) would otherwise leave a stale critEntry
	// pointer in its stream record; the critical fetcher re-examines those
	// positions, and a later regular fetch of one must not replay a dead
	// (now recycled) entry.
	for _, e := range removed {
		c.clearStreamCrit(e)
		c.pool.put(e)
	}
	if !c.cfg.SlowPath {
		c.schedRebuild()
	}
}

// mergeYoungestFirst appends to dst the merge of two youngest-first runs.
func mergeYoungestFirst(dst, a, b []*entry) []*entry {
	for len(a) > 0 && len(b) > 0 {
		if b[0].before(a[0]) {
			dst, a = append(dst, a[0]), a[1:]
		} else {
			dst, b = append(dst, b[0]), b[1:]
		}
	}
	return append(append(dst, a...), b...)
}

// clearStreamCrit erases a critical entry's stream-record linkage (no-op
// for other entries or already-released positions).
func (c *Core) clearStreamCrit(e *entry) {
	if !e.critical || e.wrongPath {
		return
	}
	if r := c.strm.peek(e.seq); r != nil && r.critEntry == e {
		r.fetchedCritical = false
		r.critEntry = nil
	}
}

func clearTail[T any](s []T, from int) {
	var zero T
	for i := from; i < len(s); i++ {
		s[i] = zero
	}
}

// recoverBranch handles a resolved misprediction: flush, redirect, and CDF
// mode bookkeeping (§3.6 "Branch Mispredictions").
func (c *Core) recoverBranch(br *entry) {
	c.st.BranchMispredicts++
	if c.tracer != nil {
		c.traceMode(fmt.Sprintf("mispredicted branch at seq %d resolves", br.seq))
	}
	c.collectFlush(br.seq, br.sub, false)
	// The regular fetcher re-reads its line either way; it refetches only
	// if it had gone past the branch.
	c.haveFetchLine = false
	if c.regSeq > br.seq+1 || c.regWPActive && c.regWPSeq == br.seq {
		c.refetch(br.seq + 1)
	}

	if !c.cdfOn {
		return
	}
	if br.fetchedInCDF {
		// CDF mode survives: the critical fetcher restarts on the correct
		// path right after the branch.
		if c.critWPActive && c.critWPSeq == br.seq {
			c.critWPActive = false
		}
		if !c.cdfExitPending {
			c.critScanSeq = br.seq + 1
			// The critical frontend restarts from the Critical Uop Cache
			// with pre-decoded uops: only the short critical pipe refills.
			c.critStallUntil = c.now + uint64(c.cfg.CritDecodeLat)
		}
		// Correct the branch's DBQ entry if the regular stream has not
		// consumed it yet ("resolved earlier" — the non-critical stream
		// then follows the corrected direction with no flush of its own).
		for i := range c.dbq.items {
			if c.dbq.items[i].seq == br.seq {
				c.dbq.items[i].taken = br.dyn.Taken
				c.dbq.items[i].target = br.dyn.NextPC
				c.dbq.items[i].wrong = false
			}
		}
		return
	}
	// §3.6: recovering to a branch fetched in regular mode ends CDF mode.
	c.exitCDFNow()
}

// violation flushes from e (inclusive) and restarts fetch there in regular
// mode: the §3.6 recovery from a poisoned-register read by a critical uop
// ("Dependence Violations in the Critical Instruction Stream") and the
// §3.5 one from a load that read memory too early ("Memory
// Disambiguation").
func (c *Core) violation(e *entry) {
	seq := e.seq // the inclusive flush recycles e itself
	c.collectFlush(seq, e.sub, true)
	if c.cdfOn {
		c.exitCDFNow()
	}
	c.refetch(seq)
}

// refetch redirects the regular fetcher to seq after a flush: it leaves any
// wrong path, fetch and rename resume at seq, and fetch waits out the
// redirect penalty before re-reading its line.
func (c *Core) refetch(seq uint64) {
	c.regWPActive = false
	c.regSeq = min(c.regSeq, seq)
	c.regNextSeq = min(c.regNextSeq, seq)
	c.haveFetchLine = false
	c.fetchStallUntil = c.now + uint64(c.cfg.RedirectPenalty)
	c.fetchStallReason = stallRedirect
}
