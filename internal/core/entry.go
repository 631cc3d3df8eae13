package core

import (
	"slices"

	"cdf/internal/emu"
	"cdf/internal/isa"
)

// uopState tracks an in-flight uop through the backend.
type uopState uint8

const (
	stateWaiting   uopState = iota // in RS, sources not ready
	stateReady                     // in RS, ready to issue
	stateExecuting                 // issued, completing at doneAt
	stateDone                      // result produced
)

// entry is one in-flight uop. Program order is the (seq, sub) pair: sub is
// zero for correct-path uops and a positive index for modelled wrong-path
// slots younger than the branch at seq.
type entry struct {
	seq uint64
	sub uint32

	dyn       emu.DynUop // correct-path record (zero for wrong-path slots)
	op        isa.Op     // cached opcode (synthesized for wrong-path slots)
	wrongPath bool

	critical     bool // allocated via the critical stream / marked critical
	obsCritical  bool // observe-only mark (Fig. 1 sampling)
	fetchedInCDF bool

	// Rename state. Physical registers are int16 indices; -1 means none.
	dstPhys     int16
	prevCrit    int16 // critical RAT's previous mapping of dst (CDF rename)
	prevReg     int16 // regular RAT's previous mapping of dst
	src1        int16
	src2        int16
	critRenamed bool // renamed by the critical rename stage
	regRenamed  bool // renamed (or replayed) by the regular rename stage

	state  uopState
	doneAt uint64
	inRS   bool

	// Memory state.
	addr      uint64
	addrReady bool
	issuedMem bool
	llcMiss   bool
	forwarded bool

	// Branch state.
	mispredict bool // oracle: fetched with a wrong prediction
	resolved   bool

	// Replay markers: the regular stream's copy of a critical uop. Replay
	// entries are never allocated into the backend; at rename they replay
	// replayOf's mapping from the Critical Map Queue and are discarded.
	isReplay bool
	replayOf *entry

	// Scheduler wakeup state (fast path only, see sched.go). wnext chains
	// this entry on the waiter lists of up to two unready source registers;
	// waitCnt counts sources still outstanding.
	wnext   [2]*entry
	waitCnt int8

	// pooled marks an entry currently on the free list; a second put or a
	// use-after-put trips the invariant panic in entryPool.
	pooled bool
}

// entryPool recycles entry structs so the steady-state cycle loop does not
// allocate. Entries live in exactly one place (fetchQ/critQ pipe, or the
// backend windows rooted at the ROB sections); the owner at end-of-life
// returns them here.
type entryPool struct {
	free []*entry
}

func (p *entryPool) get() *entry {
	n := len(p.free)
	if n == 0 {
		return &entry{}
	}
	e := p.free[n-1]
	p.free[n-1] = nil
	p.free = p.free[:n-1]
	e.pooled = false
	return e
}

func (p *entryPool) put(e *entry) {
	if e.pooled {
		panic(errInternal("entry %d.%d recycled twice", e.seq, e.sub))
	}
	*e = entry{}
	e.pooled = true
	p.free = append(p.free, e)
}

// younger reports whether e is younger than (seq, sub) in program order.
func (e *entry) younger(seq uint64, sub uint32) bool {
	return e.seq > seq || (e.seq == seq && e.sub > sub)
}

// youngerEq reports program-order younger-or-equal.
func (e *entry) youngerEq(seq uint64, sub uint32) bool {
	return e.seq > seq || (e.seq == seq && e.sub >= sub)
}

// before reports whether e precedes f in program order.
func (e *entry) before(f *entry) bool {
	return e.seq < f.seq || (e.seq == f.seq && e.sub < f.sub)
}

// hasDst reports whether the entry writes a physical register.
func (e *entry) hasDst() bool { return e.dstPhys >= 0 }

// fifo is a program-ordered queue of in-flight entries used for the ROB
// sections and the LQ/SQ sections. Entries are appended in allocation order
// (which is program order within a section) and removed from the front at
// retire or anywhere by flush.
type fifo struct{ queue[*entry] }

func (f *fifo) head() *entry {
	if len(f.items) == 0 {
		return nil
	}
	return f.items[0]
}

// insertOrdered places e at its program-order position (the LQ/SQ hold
// critical and non-critical uops interleaved in program order even though
// they allocate out of order).
func (f *fifo) insertOrdered(e *entry) {
	f.push(e)
	items := f.items
	i := len(items) - 1
	for i > 0 && e.before(items[i-1]) {
		items[i] = items[i-1]
		i--
	}
	items[i] = e
}

// flushYounger removes entries younger than (seq, sub) — strictly, or
// inclusive of (seq, sub) itself when inclusive is set — appending the
// removed entries to scratch youngest-first (the order rename undo needs)
// and returning the extended slice. Callers pass a reusable buffer so the
// flush path does not allocate in steady state.
func (f *fifo) flushYounger(seq uint64, sub uint32, inclusive bool, scratch []*entry) []*entry {
	base := len(scratch)
	f.filter(func(e *entry) bool {
		if inclusive {
			return !e.youngerEq(seq, sub)
		}
		return !e.younger(seq, sub)
	}, func(e *entry) { scratch = append(scratch, e) })
	slices.Reverse(scratch[base:]) // youngest first among this fifo's removals
	return scratch
}

// queue is a sliding window over a backing array, for the frontend's
// value-typed pipes (fetch queue, DBQ), pointer queues (critical queue,
// CMQ) and the fifo windows: items is buf[off:], popHead just advances off,
// and push compacts the window back to the front of buf only when append
// would grow it — so both ends are amortized O(1) with zero steady-state
// allocation, and readers can keep iterating the items slice directly.
type queue[T any] struct {
	items []T // the live window: always buf[off:]
	buf   []T
	off   int
}

func (q *queue[T]) len() int    { return len(q.items) }
func (q *queue[T]) empty() bool { return len(q.items) == 0 }
func (q *queue[T]) push(v T) {
	if len(q.buf) == cap(q.buf) && q.off > 0 {
		n := copy(q.buf, q.items)
		clearTail(q.buf, n)
		q.buf = q.buf[:n]
		q.off = 0
	}
	q.buf = append(q.buf, v)
	q.items = q.buf[q.off:]
}
func (q *queue[T]) popHead() T {
	var zero T
	v := q.items[0]
	q.buf[q.off] = zero
	q.off++
	q.items = q.buf[q.off:]
	if len(q.items) == 0 {
		q.buf = q.buf[:0]
		q.off = 0
		q.items = q.buf
	}
	return v
}

// clear empties the queue.
func (q *queue[T]) clear() {
	clearTail(q.buf, 0)
	q.buf = q.buf[:0]
	q.off = 0
	q.items = q.buf
}

// filter keeps only items for which keep returns true, preserving order.
// Dropped items are handed to the callback before removal (nil ok).
func (q *queue[T]) filter(keep func(T) bool, dropped func(T)) {
	items := q.items
	kept := items[:0]
	for _, v := range items {
		if keep(v) {
			kept = append(kept, v)
		} else if dropped != nil {
			dropped(v)
		}
	}
	clearTail(items, len(kept))
	q.buf = q.buf[:q.off+len(kept)]
	q.items = q.buf[q.off:]
}
