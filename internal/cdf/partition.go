package cdf

// stallLogCap is the capacity of a partition's per-cycle NoteStall log. A
// cycle makes at most one call from each of the critical rename stage, the
// regular rename stage and the full-window stall check, so four slots leave
// room to spare.
const stallLogCap = 4

// Partition dynamically splits one backend structure (ROB, LQ, or SQ)
// between critical and non-critical sections (§3.5). Stall counters for the
// two sections drive resizing: when one section causes more full-window
// stall cycles than the other by the configured threshold, its share grows
// by the structure's step size. Actual resizing is applied gradually — a
// section shrinks only as its occupancy allows, modelling the paper's
// "mark the boundary slot and wait for it to empty".
type Partition struct {
	Total int // structure capacity
	Step  int
	// CritCap is the current capacity of the critical section; the
	// non-critical section gets Total-CritCap.
	CritCap int
	// desired is the target critical capacity the stall counters ask for.
	desired int

	// MinCrit/MinNonCrit keep both streams alive.
	MinCrit    int
	MinNonCrit int

	stallThresh   uint64
	critStalls    uint64
	nonCritStalls uint64

	// Frozen pins the partition at its current split (the §3.5 static-
	// partition ablation).
	Frozen bool

	Grows   uint64
	Shrinks uint64

	// stallLog holds the critical flag of each NoteStall call since the
	// last ResetStallLog, in order; stallLogN counts the calls, saturating
	// one past the capacity to mark an overflow. The core's idle skip
	// replays one observed cycle's log across the skipped cycles.
	stallLog  [stallLogCap]bool
	stallLogN int
}

// NewPartition builds a partition over a structure of the given capacity.
// The initial split is skewed toward the critical section (the paper notes
// the partitioning is "generally skewed towards a larger critical section").
func NewPartition(total, step int, stallThresh uint64) *Partition {
	crit := total * 3 / 4
	// Each section keeps at least a quarter of the structure: the critical
	// stream needs window to expose MLP, and the non-critical stream is the
	// retirement path — starving either collapses throughput (§3.5: "too
	// small a partition for non-critical instructions will eventually lead
	// to them bottlenecking execution"; the converse holds for critical).
	minSide := total / 4
	if minSide < step {
		minSide = step
	}
	if minSide*2 > total {
		minSide = total / 2
	}
	if crit < minSide {
		crit = minSide
	}
	if crit > total-minSide {
		crit = total - minSide
	}
	return &Partition{
		Total: total, Step: step, CritCap: crit, desired: crit,
		MinCrit: minSide, MinNonCrit: minSide, stallThresh: stallThresh,
	}
}

// NonCritCap returns the capacity of the non-critical section.
func (p *Partition) NonCritCap() int { return p.Total - p.CritCap }

// NoteStall records one full-window-stall cycle caused by the given section
// being full, and resizes when the imbalance crosses the threshold.
func (p *Partition) NoteStall(critical bool) {
	if p.Frozen {
		return
	}
	if p.stallLogN < stallLogCap {
		p.stallLog[p.stallLogN] = critical
	}
	if p.stallLogN <= stallLogCap {
		p.stallLogN++
	}
	var dir int
	p.critStalls, p.nonCritStalls, dir = p.count(p.critStalls, p.nonCritStalls, critical)
	if dir != 0 {
		p.request(p.desired + dir*p.Step)
	}
}

// count adds one stall to the counters (crit, non) and reports the resize
// the result asks for: +1 grow the critical section, -1 shrink it, 0 none.
// A crossing resets both counters.
func (p *Partition) count(crit, non uint64, critical bool) (uint64, uint64, int) {
	if critical {
		crit++
	} else {
		non++
	}
	switch {
	case crit >= non+p.stallThresh:
		return 0, 0, +1
	case non >= crit+p.stallThresh:
		return 0, 0, -1
	}
	return crit, non, 0
}

func (p *Partition) request(crit int) {
	crit = p.clamp(crit)
	if crit > p.desired {
		p.Grows++
	} else if crit < p.desired {
		p.Shrinks++
	}
	p.desired = crit
}

// clamp bounds a critical capacity so both sections keep their minimum.
func (p *Partition) clamp(crit int) int {
	if crit < p.MinCrit {
		crit = p.MinCrit
	}
	if crit > p.Total-p.MinNonCrit {
		crit = p.Total - p.MinNonCrit
	}
	return crit
}

// Apply moves the actual boundary toward the desired one, constrained by
// current occupancies (a section cannot shrink below its occupancy: the
// boundary slot must drain first). Call once per cycle with the live
// occupancy of each section.
func (p *Partition) Apply(critOcc, nonCritOcc int) {
	if p.desired > p.CritCap {
		// Grow critical: take slots the non-critical section is not using.
		room := p.NonCritCap() - nonCritOcc
		grow := p.desired - p.CritCap
		if grow > room {
			grow = room
		}
		if grow > 0 {
			p.CritCap += grow
		}
	} else if p.desired < p.CritCap {
		room := p.CritCap - critOcc
		shrink := p.CritCap - p.desired
		if shrink > room {
			shrink = room
		}
		if shrink > 0 {
			p.CritCap -= shrink
		}
	}
}

// SetDesired moves the desired critical capacity directly (CDF mode entry
// re-skews toward critical; on exit the critical section drains down, §3.6).
func (p *Partition) SetDesired(crit int) {
	if p.Frozen {
		return
	}
	p.desired = p.clamp(crit)
}

// Desired returns the target critical capacity (for tests).
func (p *Partition) Desired() int { return p.desired }

// Stalls returns the two stall counters (critical, non-critical).
func (p *Partition) Stalls() (crit, nonCrit uint64) { return p.critStalls, p.nonCritStalls }

// ResetStallLog empties the NoteStall log; the core calls it before a cycle
// it observes for the idle skip, so the log then holds that cycle's calls.
func (p *Partition) ResetStallLog() { p.stallLogN = 0 }

// ReplayBound dry-runs the logged NoteStall sequence once per cycle, from
// the current counters, for up to k cycles. It returns how many cycles n
// replay without moving the desired split, and the counters after them. The
// dry-run stops before the first cycle in which a crossing would grow or
// shrink the target; a crossing whose clamped request equals the current
// target only resets the counters, and the dry-run passes through it. ok is
// false when the log overflowed. A frozen partition logs nothing, so it
// replays as a no-op.
func (p *Partition) ReplayBound(k uint64) (n, crit, non uint64, ok bool) {
	crit, non = p.critStalls, p.nonCritStalls
	if p.stallLogN > stallLogCap {
		return 0, crit, non, false
	}
	if p.stallLogN == 0 {
		return k, crit, non, true
	}
	moves := [3]bool{ // indexed by crossing direction + 1
		p.clamp(p.desired-p.Step) != p.desired, false, p.clamp(p.desired+p.Step) != p.desired,
	}
	log := p.stallLog[:p.stallLogN]
	for ; n < k; n++ {
		c, nc := crit, non
		for _, critical := range log {
			var dir int
			if c, nc, dir = p.count(c, nc, critical); moves[dir+1] {
				return n, crit, non, true
			}
		}
		crit, non = c, nc
	}
	return n, crit, non, true
}

// Replay applies the logged NoteStall sequence for k cycles, with the
// effect k cycles of real calls would have. k must be within ReplayBound.
func (p *Partition) Replay(k uint64) {
	n, crit, non, ok := p.ReplayBound(k)
	if !ok || n < k {
		panic("cdf: partition replay past its bound")
	}
	p.critStalls, p.nonCritStalls = crit, non
}
