package core

import (
	"fmt"

	"cdf/internal/emu"
)

// CheckInvariants validates the machine's structural invariants. It is
// O(window) and meant for tests (run it every cycle on short workloads);
// the simulator never calls it on its own.
//
// Invariants checked:
//
//  1. ROB sections, LQ, and SQ are in program order.
//  2. Occupancies respect capacities, and each critical section its
//     partition cap.
//  3. Per-section criticality: robCrit holds only critical entries,
//     robNon only non-critical ones; lqCrit/sqCrit counters match, and
//     rsLen/rsCrit and the Fig. 1 counters match a recount of the ROB.
//  4. No physical register is both free and mapped by a RAT.
//  5. Every in-flight entry with a destination owns a physical register.
//  6. CMQ entries are critical, renamed, and in program order.
//  7. The DBQ is in program order.
//  8. Every correct-path entry in the ROB or a decode pipe is at or above
//     the stream's released base, and its dyn is the resident record at
//     its seq (replay markers carry none).
//  9. The ready list is strictly program-ordered, and each of its entries
//     is in the RS with no outstanding source.
//  10. Each exec slot's inline doneAt is its entry's, and no earlier than
//     the cached earliest doneAt complete's early return relies on.
func (c *Core) CheckInvariants() error {
	if err := checkOrdered("robCrit", c.robCrit.items); err != nil {
		return err
	}
	if err := checkOrdered("robNon", c.robNon.items); err != nil {
		return err
	}
	if err := checkOrdered("LQ", c.lq.items); err != nil {
		return err
	}
	if err := checkOrdered("SQ", c.sq.items); err != nil {
		return err
	}

	if c.robOccupancy() > c.cfg.ROBSize {
		return fmt.Errorf("ROB occupancy %d > %d", c.robOccupancy(), c.cfg.ROBSize)
	}
	if len(c.lq.items) > c.cfg.LQSize {
		return fmt.Errorf("LQ occupancy %d > %d", len(c.lq.items), c.cfg.LQSize)
	}
	if len(c.sq.items) > c.cfg.SQSize {
		return fmt.Errorf("SQ occupancy %d > %d", len(c.sq.items), c.cfg.SQSize)
	}
	if c.rsLen > c.cfg.RSSize {
		return fmt.Errorf("RS occupancy %d > %d", c.rsLen, c.cfg.RSSize)
	}

	for _, e := range c.robCrit.items {
		if !e.critical {
			return fmt.Errorf("non-critical entry %d.%d in critical ROB section", e.seq, e.sub)
		}
	}
	for _, e := range c.robNon.items {
		if e.critical {
			return fmt.Errorf("critical entry %d.%d in non-critical ROB section", e.seq, e.sub)
		}
	}

	lqCrit, sqCrit := 0, 0
	for _, e := range c.lq.items {
		if e.critical {
			lqCrit++
		}
	}
	for _, e := range c.sq.items {
		if e.critical {
			sqCrit++
		}
	}
	if lqCrit != c.lqCrit {
		return fmt.Errorf("lqCrit counter %d != actual %d", c.lqCrit, lqCrit)
	}
	if sqCrit != c.sqCrit {
		return fmt.Errorf("sqCrit counter %d != actual %d", c.sqCrit, sqCrit)
	}
	// The RS is the ROB entries still waiting to issue; it and the Fig. 1
	// composition are counters, recounted here from the ROB sections.
	rsLen, rsCrit, fig1Crit, fig1Non := 0, 0, 0, 0
	for _, sec := range [2][]*entry{c.robCrit.items, c.robNon.items} {
		for _, e := range sec {
			if e.inRS != (e.state == stateWaiting) {
				return fmt.Errorf("entry %d.%d has inRS %v in state %v", e.seq, e.sub, e.inRS, e.state)
			}
			if e.inRS {
				rsLen++
				if e.critical {
					rsCrit++
				}
			}
			switch {
			case e.wrongPath:
			case e.critical || e.obsCritical:
				fig1Crit++
			default:
				fig1Non++
			}
		}
	}
	if rsLen != c.rsLen || rsCrit != c.rsCrit {
		return fmt.Errorf("RS counters len %d crit %d != actual %d, %d", c.rsLen, c.rsCrit, rsLen, rsCrit)
	}
	if fig1Crit != c.fig1Crit || fig1Non != c.fig1Non {
		return fmt.Errorf("Fig. 1 counters crit %d non %d != actual %d, %d", c.fig1Crit, c.fig1Non, fig1Crit, fig1Non)
	}

	if err := c.rf.checkInvariant(); err != nil {
		return err
	}
	for _, e := range c.robCrit.items {
		if !e.wrongPath && e.dyn.U.Op.HasDst() && e.critRenamed && e.dstPhys < 0 {
			return fmt.Errorf("renamed critical entry %d has no phys reg", e.seq)
		}
	}

	// CMQ: critical, critically renamed, program-ordered.
	for i, e := range c.cmq.items {
		if !e.critical || !e.critRenamed {
			return fmt.Errorf("CMQ[%d] holds a non-renamed or non-critical entry", i)
		}
		if i > 0 && !c.cmq.items[i-1].before(e) {
			return fmt.Errorf("CMQ out of order at %d", i)
		}
	}
	// DBQ: program-ordered.
	for i := 1; i < c.dbq.len(); i++ {
		if c.dbq.items[i].seq <= c.dbq.items[i-1].seq {
			return fmt.Errorf("DBQ out of order at %d", i)
		}
	}

	if err := c.checkStreamRefs(); err != nil {
		return err
	}
	if err := c.checkSched(); err != nil {
		return err
	}

	// Partition caps (when active): the sections span the structure, and
	// the critical section stays within its cap.
	for i, p := range c.partitions() {
		if p == nil {
			continue
		}
		size, _, crit := c.occupancy(i)
		if p.CritCap+p.NonCritCap() != size {
			return fmt.Errorf("%s partition sections do not sum to capacity", partNames[i])
		}
		if crit > p.CritCap {
			return fmt.Errorf("%s critical section holds %d > cap %d", partNames[i], crit, p.CritCap)
		}
	}
	return nil
}

func checkOrdered(name string, items []*entry) error {
	for i := 1; i < len(items); i++ {
		if !items[i-1].before(items[i]) {
			return fmt.Errorf("%s out of program order at %d: %d.%d then %d.%d",
				name, i, items[i-1].seq, items[i-1].sub, items[i].seq, items[i].sub)
		}
	}
	return nil
}

// checkStreamRefs checks invariant 8: an entry's stream record stays
// resident while the entry lives.
func (c *Core) checkStreamRefs() error {
	check := func(where string, e *entry) error {
		if e.wrongPath {
			return nil
		}
		if e.seq < c.strm.base {
			return fmt.Errorf("%s entry %d is below the stream base %d (record released)", where, e.seq, c.strm.base)
		}
		var want *emu.DynUop
		if !e.isReplay {
			r := c.strm.peek(e.seq)
			if r == nil {
				return fmt.Errorf("%s entry %d has no resident stream record", where, e.seq)
			}
			want = &r.dyn
		}
		if e.dyn != want {
			return fmt.Errorf("%s entry %d does not point at its stream record", where, e.seq)
		}
		return nil
	}
	for _, sec := range [2][]*entry{c.robCrit.items, c.robNon.items} {
		for _, e := range sec {
			if err := check("ROB", e); err != nil {
				return err
			}
		}
	}
	for _, q := range [2][]fqItem{c.fetchQ.items, c.critQ.items} {
		for _, it := range q {
			if err := check("decode-pipe", it.e); err != nil {
				return err
			}
		}
	}
	return nil
}

// checkSched checks invariants 9 and 10, the fast-path scheduler's ready
// list and the exec list.
func (c *Core) checkSched() error {
	for i, e := range c.readyList {
		if i > 0 && !c.readyList[i-1].before(e) {
			return fmt.Errorf("ready list out of program order at %d: %d.%d", i, e.seq, e.sub)
		}
		if !e.inRS || e.waitCnt != 0 {
			return fmt.Errorf("ready entry %d.%d has inRS %v, waitCnt %d", e.seq, e.sub, e.inRS, e.waitCnt)
		}
	}

	for _, x := range c.exec {
		if x.doneAt < c.execMin || x.doneAt != x.e.doneAt {
			return fmt.Errorf("exec slot of %d.%d: doneAt %d, entry's %d, cached earliest %d",
				x.e.seq, x.e.sub, x.doneAt, x.e.doneAt, c.execMin)
		}
	}
	return nil
}
