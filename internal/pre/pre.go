// Package pre implements Precise Runahead (Naithani et al., HPCA 2020) as
// the paper's §4.1 comparison configures it: the same criticality marking
// and storage machinery as CDF, except only loads that cause full-window
// stalls are marked, and the marked dependence chains are fetched from the
// Critical Uop Cache and executed — using free reservation stations and
// physical registers — only while the core is in a full-window stall. The
// runahead slices are non-retiring prefetch code: correct-path chains warm
// the caches; chains past a mispredicted branch (or built from stale masks)
// fetch wrong addresses, which is PRE's memory-traffic overhead (Fig. 15).
package pre

import (
	"cdf/internal/branch"
	"cdf/internal/cdf"
	"cdf/internal/emu"
	"cdf/internal/isa"
	"cdf/internal/mem"
	"cdf/internal/prog"
	"cdf/internal/stats"
)

// Oracle exposes the correct-path dynamic stream.
type Oracle interface {
	DynAt(seq uint64) *emu.DynUop
}

// Config sizes the runahead engine.
type Config struct {
	Width         int // uops processed per runahead cycle
	LineBytes     uint64
	WrongLoadFrac float64 // load fraction of modelled wrong-path slices
	Seed          uint64
}

// Deps are the core structures the engine shares.
type Deps struct {
	CUC    *cdf.UopCache
	Pred   *branch.Predictor
	Oracle Oracle
	Mem    *mem.Hierarchy
	Prog   *prog.Program
	Stats  *stats.Stats
	// RecentLine returns a recently-touched demand line (and whether one
	// exists); wrong-chain slices synthesize addresses near it.
	RecentLine func() (uint64, bool)
}

// Engine is the runahead controller. The core calls BeginStall when a
// full-window stall starts, Cycle every cycle, and EndStall when the stall
// breaks.
type Engine struct {
	cfg Config
	d   Deps

	active     bool
	endAt      uint64 // the stall-breaking load's completion time
	scanSeq    uint64 // next dynamic position to examine
	blockOff   int    // resume offset within the current block
	budgetRS   int    // free RS entries available to runahead uops
	wrongPath  bool
	missBudget int // novel (certainly-missing) wrong-path addresses left
	junkBudget int // wrong-path slice uops before the walk dies (CUC miss)

	// Runahead-local register timing: regReady[r] is the cycle the slice's
	// value for architectural register r becomes available.
	regReady [isa.NumRegs]uint64

	rng         uint64
	recentLines [32]uint64
	recentN     int

	pr branch.Prediction // scratch for the slice-terminating branch
}

// NewEngine builds a runahead engine.
func NewEngine(cfg Config, d Deps) *Engine {
	return &Engine{cfg: cfg, d: d, rng: cfg.Seed*0x2545F4914F6CDD1D + 1}
}

// Active reports whether a runahead interval is in progress.
func (e *Engine) Active() bool { return e.active }

// BeginStall enters runahead mode: the frontend starts fetching marked
// chains from the Critical Uop Cache at the first instruction beyond the
// instruction window (tailSeq), with freeRS reservation stations (and
// physical registers) to run on. mispredictPending reports that the
// machine is waiting on an unresolved mispredicted branch: everything
// beyond the window is then wrong-path, and the runahead slices execute
// down that wrong path — prefetching garbage — the paper's point (b) about
// Runahead on high-branch-MPKI applications.
func (e *Engine) BeginStall(now, tailSeq, stallDoneAt uint64, freeRS int, mispredictPending bool) {
	if e.active {
		return
	}
	e.active = true
	e.endAt = stallDoneAt
	e.scanSeq = e.alignToBlock(tailSeq)
	e.blockOff = 0
	// Runahead runs on free RS/PRF entries, but those recycle as slice uops
	// complete (runahead uops never wait for retirement), so the free count
	// bounds *concurrency*, which only the long-latency loads occupy for
	// long. We model it as a per-interval budget of slice loads, with a
	// small floor since some entries always free up during a memory stall.
	e.budgetRS = freeRS
	if e.budgetRS < 12 {
		e.budgetRS = 12
	}
	e.wrongPath = mispredictPending
	// Wrong-path slices (runahead while a misprediction is unresolved) are
	// where PRE's "incorrect chains" burn bandwidth; correct-path walks
	// only emit junk after their own divergence, briefly.
	e.missBudget = 3
	if mispredictPending {
		e.missBudget = 8
	}
	e.junkBudget = 48
	for i := range e.regReady {
		e.regReady[i] = now
	}
	e.d.Stats.RunaheadIntervals++
}

// alignToBlock advances seq to the next block boundary (runahead fetches
// whole traces).
func (e *Engine) alignToBlock(seq uint64) uint64 {
	for {
		d := e.d.Oracle.DynAt(seq)
		if d == nil || d.Index == 0 {
			return seq
		}
		seq++
	}
}

// EndStall leaves runahead mode; slice state is discarded (PRE's precise
// entry/exit is what makes short intervals viable — we model the exit as
// free, matching the paper's description of PRE's advantage).
func (e *Engine) EndStall() {
	e.active = false
}

// Cycle advances the runahead frontend one cycle: read one trace from the
// Critical Uop Cache, issue its marked uops (dataflow-timed), and predict
// its terminating branch.
func (e *Engine) Cycle(now uint64) {
	if !e.active || e.budgetRS <= 0 {
		return
	}
	if now >= e.endAt {
		e.EndStall()
		return
	}

	if e.wrongPath {
		e.wrongPathSlice(now)
		return
	}

	d := e.d.Oracle.DynAt(e.scanSeq)
	if d == nil || d.U.Op == isa.OpHalt {
		e.active = false
		return
	}
	blockPC := e.d.Prog.BlockPC(d.BlockID)
	tr, ok := e.d.CUC.Lookup(blockPC)
	if !ok {
		// Beyond the stored chains: runahead cannot fetch further (the
		// paper's limit (c) — distant loads are out of reach).
		e.active = false
		return
	}
	blen := len(e.d.Prog.Blocks[d.BlockID].Uops)

	processed := 0
	i := e.blockOff
	for ; i < blen && processed < e.cfg.Width && e.budgetRS > 0; i++ {
		if i >= 64 || tr.Mask&(1<<uint(i)) == 0 {
			continue
		}
		du := e.d.Oracle.DynAt(e.scanSeq + uint64(i))
		if du == nil {
			e.active = false
			return
		}
		e.runUop(now, du)
		processed++
		if du.U.Op.IsLoad() {
			e.budgetRS-- // loads hold their entries for the full miss
		}
		e.d.Stats.RunaheadUops++
	}
	if i < blen {
		// Width exhausted mid-block: resume at this uop next cycle.
		e.blockOff = i
		return
	}
	e.blockOff = 0

	// Terminating branch: predicted, never resolved during runahead. A
	// wrong prediction sends the slice down the wrong path for the rest of
	// the interval.
	lastSeq := e.scanSeq + uint64(blen) - 1
	last := e.d.Oracle.DynAt(lastSeq)
	if last == nil {
		e.active = false
		return
	}
	if last.U.Op.IsBranch() {
		pr := &e.pr
		e.d.Pred.Predict(last.U.Op, last.PC, 0, pr)
		// Runahead reads the predictor but must not corrupt its history:
		// real execution will predict this branch again. We therefore do
		// not call Update here (documented deviation: PRE's predictions
		// during runahead are "free reads").
		wrong := pr.Taken != last.Taken ||
			(last.Taken && (!pr.TargetHit || pr.Target != last.NextPC))
		if wrong {
			e.wrongPath = true
			return
		}
	}
	e.scanSeq = lastSeq + 1
	e.d.Stats.RunaheadCycles++
}

// runUop advances the slice's dataflow clock through one marked uop,
// issuing prefetches for loads.
func (e *Engine) runUop(now uint64, d *emu.DynUop) {
	u := d.U
	ready := now
	if u.Src1.Valid() && e.regReady[u.Src1] > ready {
		ready = e.regReady[u.Src1]
	}
	if u.Src2.Valid() && e.regReady[u.Src2] > ready {
		ready = e.regReady[u.Src2]
	}
	switch {
	case u.Op.IsLoad():
		if ready >= e.endAt {
			// The chain's next load cannot even issue before the stall
			// breaks: runahead is out of useful reach for this interval.
			e.budgetRS = 0
			return
		}
		res := e.d.Mem.Load(d.Addr, ready, false)
		e.d.Stats.RunaheadPrefetches++
		e.noteLine(d.Addr / e.cfg.LineBytes)
		if u.Dst.Valid() {
			e.regReady[u.Dst] = res.Done
		}
	case u.Op.IsStore():
		// Runahead stores do not commit; they only advance the clock.
	default:
		if u.Dst.Valid() {
			e.regReady[u.Dst] = ready + uint64(u.Op.Latency())
		}
	}
}

// wrongPathSlice models runahead past a mispredicted branch: chain loads
// with wrong addresses that still consume memory bandwidth and pollute the
// caches — the PRE overhead the paper measures in Fig. 15/16. Off-path
// blocks are rarely in the Critical Uop Cache, so the slice dies after a
// short burst (junkBudget) rather than churning for the whole interval.
func (e *Engine) wrongPathSlice(now uint64) {
	if e.junkBudget <= 0 {
		e.active = false
		return
	}
	n := e.cfg.Width
	if n > e.budgetRS {
		n = e.budgetRS
	}
	if n > e.junkBudget {
		n = e.junkBudget
	}
	e.junkBudget -= n
	for i := 0; i < n; i++ {
		e.rng ^= e.rng << 13
		e.rng ^= e.rng >> 7
		e.rng ^= e.rng << 17
		if float64(e.rng>>11)/float64(1<<53) < e.cfg.WrongLoadFrac {
			addr := e.synthAddr()
			e.d.Mem.Load(addr, now, true)
			e.d.Stats.RunaheadPrefetches++
			e.budgetRS--
		}
		e.d.Stats.RunaheadUops++
	}
}

func (e *Engine) noteLine(line uint64) {
	e.recentLines[e.recentN%len(e.recentLines)] = line
	e.recentN++
}

// synthAddr picks a wrong-chain prefetch address: usually a warm
// recently-prefetched line (hits), occasionally — within the interval's
// miss budget — a novel nearby line that misses, producing PRE's
// wrong-chain DRAM traffic without flooding the memory system.
func (e *Engine) synthAddr() uint64 {
	n := e.recentN
	if n > len(e.recentLines) {
		n = len(e.recentLines)
	}
	var base uint64
	switch {
	case n > 0:
		base = e.recentLines[e.rng%uint64(n)]
	case e.d.RecentLine != nil:
		l, ok := e.d.RecentLine()
		if !ok {
			return 0x200000
		}
		base = l
	default:
		return 0x200000
	}
	if e.missBudget <= 0 || e.rng&3 != 0 {
		return base * e.cfg.LineBytes
	}
	e.missBudget--
	off := int64(e.rng>>33)%4097 - 2048
	line := int64(base) + off
	if line < 0 {
		line = int64(base)
	}
	return uint64(line) * e.cfg.LineBytes
}

// Idle reports that Cycle is a no-op in the engine's current state (not in
// an interval, or the interval's RS budget is exhausted so the slice can
// make no further progress). The core's idle-skip may only jump over
// cycles where this holds.
func (e *Engine) Idle() bool { return !e.active || e.budgetRS <= 0 }
