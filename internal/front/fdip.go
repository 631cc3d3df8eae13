package front

import (
	"cdf/internal/branch"
	"cdf/internal/emu"
	"cdf/internal/isa"
)

// Oracle supplies the dynamic uop stream the walker runs ahead on. The core
// implements it with its own lazily materialized stream (the same interface
// the PRE runahead oracle uses). The walker follows oracle control flow —
// it never walks a wrong path — but its *reach* is realistic: it cannot
// advance past a taken branch whose target neither the BTB, the shadow BTB,
// nor the RAS (returns) can supply. That models a decoupled frontend whose
// direction predictor is near-perfect while target supply is the binding
// constraint, which is the regime MANA and the shadow-branch work study.
type Oracle interface {
	DynAt(seq uint64) *emu.DynUop
}

// State is the walker's comparable signature, embedded in the core's
// idle-skip signature: if none of this changed across a cycle (and the FTQ
// head index and length are equal, so the queue contents cannot differ),
// the frontend replays identically.
type State struct {
	Next     uint64 // next dynamic seq the walker will examine
	LastLine uint64 // last line enqueued (dedup cursor)
	HaveLast bool
	Head, N  int // FTQ ring position and occupancy
}

// FDIP is the decoupled fetch-directed prefetcher: a lookahead walker that
// enqueues upcoming instruction lines into a fetch-target queue (FTQ),
// drained each cycle into L1I prefetches under the accuracy throttle.
type FDIP struct {
	cfg       Config
	lineBytes uint64
	oracle    Oracle
	btb       *branch.BTB
	shadow    *branch.BTB // nil without shadow decoding

	ring []uint64 // FTQ line-address ring buffer
	head int
	n    int

	next     uint64
	lastLine uint64
	haveLast bool
}

// NewFDIP builds the walker. shadow may be nil.
func NewFDIP(cfg Config, lineBytes uint64, oracle Oracle, btb, shadow *branch.BTB) *FDIP {
	return &FDIP{
		cfg:       cfg,
		lineBytes: lineBytes,
		oracle:    oracle,
		btb:       btb,
		shadow:    shadow,
		ring:      make([]uint64, cfg.FTQSize),
	}
}

// Len returns the FTQ occupancy.
func (f *FDIP) Len() int { return f.n }

// Sig returns the walker's idle-skip signature.
func (f *FDIP) Sig() State {
	return State{Next: f.next, LastLine: f.lastLine, HaveLast: f.haveLast, Head: f.head, N: f.n}
}

// Peek returns the FTQ head without consuming it.
func (f *FDIP) Peek() (line uint64, ok bool) {
	if f.n == 0 {
		return 0, false
	}
	return f.ring[f.head], true
}

// Pop consumes the FTQ head.
func (f *FDIP) Pop() {
	f.head = (f.head + 1) % len(f.ring)
	f.n--
}

func (f *FDIP) push(line uint64) {
	f.ring[(f.head+f.n)%len(f.ring)] = line
	f.n++
}

// Advance runs the walker for one cycle. frontier is the fetch stage's next
// sequence number; the walker never falls behind it and never runs more
// than LookaheadUops ahead of it. It reports whether it mutated any state
// (the core's work-flag discipline: a fully blocked walker leaves the cycle
// skippable).
func (f *FDIP) Advance(frontier uint64) bool {
	work := false
	if f.next < frontier {
		// Fetch overtook the walker (stall recovery, startup): resync.
		f.next = frontier
		f.haveLast = false
		work = true
	}
	for scanned := 0; scanned < f.cfg.ScanUops; scanned++ {
		if f.next-frontier >= uint64(f.cfg.LookaheadUops) {
			break
		}
		d := f.oracle.DynAt(f.next)
		if d == nil {
			break // end of stream
		}
		line := d.PC / f.lineBytes
		if !f.haveLast || line != f.lastLine {
			if f.n == len(f.ring) {
				break // FTQ full; resume when issue drains it
			}
			f.push(line)
			f.lastLine, f.haveLast = line, true
			work = true
		}
		if d.IsBranch() && d.Taken && !f.targetKnown(d) {
			// Reach limit: a taken branch whose target no structure can
			// supply. Stay here and re-probe next cycle (resolution may
			// have trained the BTB, or a fetch may have shadow-decoded it).
			break
		}
		f.next++
		work = true
	}
	return work
}

// targetKnown reports whether some frontend structure can supply the taken
// target of branch d. Targets are static per PC in this ISA, so any hit is
// a correct target.
func (f *FDIP) targetKnown(d *emu.DynUop) bool {
	if d.U.Op == isa.OpRet {
		return true // RAS-supplied
	}
	if _, ok := f.btb.Probe(d.PC); ok {
		return true
	}
	if f.shadow != nil {
		if _, ok := f.shadow.Probe(d.PC); ok {
			return true
		}
	}
	return false
}
