package core

import (
	"fmt"

	"cdf/internal/branch"
	"cdf/internal/cdf"
	"cdf/internal/emu"
	"cdf/internal/mem"
	"cdf/internal/pre"
	"cdf/internal/prog"
	"cdf/internal/stats"
)

// fqItem is a fetched uop waiting in the decode pipe for rename.
type fqItem struct {
	e  *entry
	at uint64 // cycle it becomes visible to rename
}

// execSlot is an issued uop with its completion cycle inline, so the
// per-cycle completion scan reads no entry that is still executing.
type execSlot struct {
	doneAt uint64
	e      *entry
}

// dbqEntry is one Delayed Branch Queue record (§3.3): the prediction made
// by the critical fetch engine, replayed by the regular fetch engine.
type dbqEntry struct {
	seq    uint64
	taken  bool
	target uint64
	wrong  bool // prediction disagrees with the oracle outcome
}

// Core is the simulated machine.
type Core struct {
	cfg  Config
	st   *stats.Stats
	hier *mem.Hierarchy
	pred *branch.Predictor
	prg  *prog.Program
	strm *stream

	// fullAt[i] is one more than the last cycle charged to the full-cycle
	// counter of structure i (partROB, partLQ, partSQ, fullRS).
	fullAt [fullRS + 1]uint64

	// pr is the fetch stages' scratch prediction: each branch's Predict
	// and Update share it by pointer and nothing keeps it afterwards.
	pr branch.Prediction

	blockByPC map[uint64]int // block start PC -> block ID

	rf *regFile

	// Windows. robCrit/robNon are the two ROB sections; lq/sq hold memory
	// ops in program order with per-section occupancy counts. The RS is
	// the ROB entries with inRS set, counted by rsLen and rsCrit.
	robCrit fifo
	robNon  fifo
	lq      fifo
	sq      fifo
	lqCrit  int
	sqCrit  int
	rsLen   int
	rsCrit  int
	exec    []execSlot // issued, in issue order, completing at doneAt
	execMin uint64     // lower bound on every doneAt in exec

	// Fig. 1 composition of the ROB (see fig1Count): correct-path entries
	// on the critical path and off it.
	fig1Crit, fig1Non int

	// Dynamic partitions (active in ModeCDF).
	robPart *cdf.Partition
	lqPart  *cdf.Partition
	sqPart  *cdf.Partition

	// Regular frontend.
	regSeq          uint64 // next dynamic position for regular fetch
	regNextSeq      uint64 // next seq the regular rename stage expects
	fetchQ          queue[fqItem]
	fetchStallUntil uint64
	regWPActive     bool   // regular stream on a modelled wrong path
	regWPSeq        uint64 // ...behind the mispredicted branch at this seq
	lastFetchLine   uint64
	haveFetchLine   bool
	lastAllocSeq    uint64 // youngest correct-path seq allocated

	// Instruction-supply subsystem (nil when cfg.Front.Enabled is false;
	// see isupply.go). fetchStallReason attributes the current
	// fetchStallUntil to its cause for the stall-split counters.
	fr               *frontEng
	fetchStallReason uint8

	// CDF frontend.
	cdfOn          bool
	cdfExitPending bool
	cdfEntrySeq    uint64
	cdfEpoch       uint32
	critScanSeq    uint64 // next position the critical fetcher examines
	critStallUntil uint64
	critWPActive   bool
	critWPSeq      uint64
	critWPEmitted  int
	critWPCritBr   bool
	critQ          queue[fqItem]
	dbq            queue[dbqEntry]
	cmq            queue[*entry]
	wpCounter      uint32

	// Allocation discipline: recycled entry structs and the reusable flush
	// scratch buffer, so the steady-state loop never heap-allocates.
	pool         entryPool
	flushScratch []*entry
	flushMerge   []*entry

	// Fast-path scheduler state (see sched.go; unused when cfg.SlowPath).
	// readyList holds RS entries whose operands are available, in program
	// order; waitHead chains waiting entries per physical register;
	// staPending holds stores awaiting address generation.
	readyList  []*entry
	staPending []*entry
	waitHead   []*entry

	// work records whether the current cycle changed machine state beyond
	// the per-cycle counters the idle skip replicates (see skip.go).
	work bool
	// The observed cycle's counters and signature (filled only when Cycle
	// observes), and its counter deltas (trySkip).
	obsStats  stats.Stats
	obsSig    coreSig
	skipDelta stats.Stats

	// Criticality machinery, shared with the warmer it was adopted from.
	crit     *criticality
	machBusy uint64 // criticality machinery busy (walk in progress) until

	// posBase is the absolute program position (in executed uops) of this
	// core's first instruction — zero for a full run, the checkpoint
	// position for a sampled interval core. crit trains at posBase+retired,
	// so the periodic criticality cycles — mask decay, walk epochs — fire
	// at the same absolute positions they would in a continuous run.
	posBase uint64

	// Precise Runahead.
	runahead    *pre.Engine
	preStallSeq uint64 // head seq of the last PRE-marked stall
	preStalled  bool

	// Wrong-path load address synthesis.
	wp           wpLines
	wpMissBudget int
	wpBudgetSeq  uint64

	pendingMemViol *entry

	// tracer receives pipeline events when set (see trace.go).
	tracer Tracer

	// Differential-oracle hooks (see commit.go).
	commitCheck func(CommitEffect) error
	commitFault func(*CommitEffect)
	checkErr    error

	// Debug hooks (tests only).
	debugVerifySkip   bool                     // check skips against real simulation
	skipPred          *skipPrediction          // pending skip-verifier prediction
	debugSkipRefusals *[numSkipRefusals]uint64 // trySkip refusals by reason
	debugViol         func(e *entry, reg int)
	debugBlockRetire  func() bool // when set and true, retire stalls (watchdog tests)
	lastPoisonWriter  [32]string

	// Forward-progress watchdog anchor: retired count and cycle of the
	// last observed retirement.
	wdRetired uint64
	wdCycle   uint64

	now        uint64
	retired    uint64
	finished   bool
	stopReason StopReason

	// nextRelease is the retire-count high-water mark at which the stream
	// buffer next drops its retired prefix (endOfCycle).
	nextRelease uint64
}

// effectiveCDF returns cfg.CDF with the mode-specific policy adjustments
// applied. It is the configuration the criticality structures are actually
// built with, in both New and NewWarmer (the two must agree for warm
// structures to be adoptable).
func (cfg Config) effectiveCDF() cdf.Config {
	cc := cfg.CDF
	if cfg.Mode == ModePRE {
		// PRE uses the marking machinery purely for prefetch chains; the
		// density gates only matter for entering CDF mode.
		cc.DisableDensityGates = true
	}
	if cfg.Mode == ModeHybrid {
		// Gates still bar CDF-mode entry, but rejected traces stay in the
		// CUC for the runahead engine.
		cc.RejectKeepsTraces = true
	}
	if cfg.Mode == ModeBaseline && cfg.TrainCriticality {
		// Observe-only marking (Fig. 1) measures the criticality mix; the
		// gates exist to control CDF-mode entry, which never happens here.
		cc.DisableDensityGates = true
	}
	return cc
}

// New builds a core executing p with memory state m.
func New(cfg Config, p *prog.Program, m *emu.Memory) (*Core, error) {
	return NewAt(cfg, p, emu.New(p, m), nil)
}

// NewAt builds a core that begins execution at em's current position — an
// emulator cloned from a fast-forwarding master at a sampling checkpoint,
// or a fresh one at program entry (New). When w is non-nil the core adopts
// w's warm microarchitectural structures (caches, branch predictor,
// criticality tables) instead of cold ones; the warmer must have been built
// for the same program and a structurally identical Config, and its
// structures belong to the returned core until it finishes (the handoff is
// strictly serial). With w nil the core gets cold structures, making New a
// special case of NewAt.
func NewAt(cfg Config, p *prog.Program, em *emu.Emulator, w *Warmer) (*Core, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if w == nil {
		var err error
		w, err = NewWarmer(cfg, p)
		if err != nil {
			return nil, err
		}
	} else if err := w.compatible(cfg, p); err != nil {
		return nil, err
	}
	st := &stats.Stats{}
	c := &Core{
		cfg:  cfg,
		st:   st,
		hier: w.hier,
		pred: w.pw.pred,
		prg:  p,
		strm: newStream(em),
		rf:   newRegFile(cfg.PRFSize),
		crit: w.crit,
		// Inherit the warmer's clock: the criticality cycles continue from
		// where warming left them. For a cold warmer this is zero.
		posBase: w.pos,
		wp:      wpLines{rng: cfg.Seed*0x9E3779B97F4A7C15 + 0xD1B54A32D192ED03},
	}
	// The hierarchy counts into this core's stats from now on, and every
	// cycle-valued piece of its state (MSHRs, DRAM schedules) is dropped:
	// this core's clock starts at zero, and completion times from warming
	// or a previous interval would poison it. For a cold warmer both calls
	// are no-ops.
	c.hier.SetStats(st)
	c.hier.ResetTiming()
	c.waitHead = make([]*entry, cfg.PRFSize)
	c.blockByPC = make(map[uint64]int, len(p.Blocks))
	for _, b := range p.Blocks {
		c.blockByPC[p.BlockPC(b.ID)] = b.ID
	}

	if cfg.Front.Enabled {
		c.fr = newFrontEng(cfg, w, c)
	}

	cc := cfg.effectiveCDF()
	if cfg.Mode == ModeCDF || cfg.Mode == ModeHybrid {
		c.robPart = cdf.NewPartition(cfg.ROBSize, cc.ROBStep, cc.PartitionStallThresh)
		c.lqPart = cdf.NewPartition(cfg.LQSize, cc.LSQStep, cc.PartitionStallThresh)
		c.sqPart = cdf.NewPartition(cfg.SQSize, cc.LSQStep, cc.PartitionStallThresh)
		for _, p := range c.partitions() {
			p.Frozen = cc.DisableDynamicPartition
		}
	}
	if cfg.Mode == ModePRE || cfg.Mode == ModeHybrid {
		c.runahead = pre.NewEngine(pre.Config{
			Width:         cfg.Width,
			LineBytes:     cfg.Mem.LineBytes,
			WrongLoadFrac: cfg.WrongPathLoadFrac,
			Seed:          cfg.Seed,
		}, pre.Deps{CUC: c.crit.cuc, Pred: c.pred, Oracle: c, Mem: c.hier, Prog: p, Stats: st,
			RecentLine: c.wp.pick})
	}
	return c, nil
}

// Stats returns the run's counters.
func (c *Core) Stats() *stats.Stats { return c.st }

// Hierarchy exposes the memory system (for energy accounting and tests).
func (c *Core) Hierarchy() *mem.Hierarchy { return c.hier }

// Predictor exposes the branch unit (for tests).
func (c *Core) Predictor() *branch.Predictor { return c.pred }

// UopCache exposes the Critical Uop Cache (for tests).
func (c *Core) UopCache() *cdf.UopCache { return c.crit.cuc }

// Cycles returns the current cycle.
func (c *Core) Cycles() uint64 { return c.now }

// Retired returns the number of retired uops.
func (c *Core) Retired() uint64 { return c.retired }

// FetchFrontier returns the furthest dynamic stream position either fetch
// engine has consumed. The frontend runs ahead of retirement, so when the
// core stops at a retire limit it has already fetched — and trained the
// branch predictor and touched the caches for — uops beyond it. Sampled
// simulation must resume functional warming at this frontier, not at the
// retire limit: re-observing the overfetched span would train the shared
// structures twice (and the duplicated history bits compound — the branch
// predictor ends up memorizing patterns a continuous run never learns).
func (c *Core) FetchFrontier() uint64 {
	f := c.regSeq
	if c.critScanSeq > f {
		f = c.critScanSeq
	}
	return f
}

// Finished reports whether the program retired its final uop or a run limit
// was reached.
func (c *Core) Finished() bool { return c.finished }

// DynAt implements pre.Oracle: the runahead engine walks the same
// correct-path stream the fetch engines use.
func (c *Core) DynAt(seq uint64) *emu.DynUop {
	rec := c.strm.At(seq)
	if rec == nil {
		return nil
	}
	return &rec.dyn
}

// Run simulates until the program finishes or a limit is reached, and
// returns the number of cycles executed.
func (c *Core) Run() uint64 {
	start := c.now
	for !c.finished {
		c.Cycle()
	}
	return c.now - start
}

// Cycle advances the machine one clock. Stages run in reverse pipeline
// order so same-cycle structural hazards resolve like hardware. On the fast
// path, a cycle following a workless cycle is observed for the idle skip
// (skip.go): if it proves to be a stalled fixed point, the clock jumps to
// the next event and the skipped cycles' deltas are replayed in bulk.
func (c *Core) Cycle() {
	if c.finished {
		return
	}
	observe := !c.work && c.skipEligible()
	if observe {
		c.obsStats = *c.st
		c.obsSig = c.sig()
		c.resetStallLogs()
	}
	c.work = false

	c.complete()
	c.retire()
	if c.cfg.SlowPath {
		c.issue()
	} else {
		c.issueFast()
	}
	c.processMemViolation()
	c.allocate()
	c.fetch()
	c.endOfCycle()
	c.now++

	if c.cfg.MaxRetired > 0 && c.retired >= c.cfg.MaxRetired {
		c.finish(StopCompleted)
	}
	if c.cfg.MaxCycles > 0 && c.now >= c.cfg.MaxCycles {
		c.finish(StopCycleBudget)
	}
	c.watchdog()
	if c.cfg.ParanoidEvery > 0 && c.now%c.cfg.ParanoidEvery == 0 {
		if err := c.CheckInvariants(); err != nil {
			panic(errInternal("paranoid invariant check failed at cycle %d: %v", c.now, err))
		}
	}
	if c.skipPred != nil && c.now >= c.skipPred.at {
		c.verifySkipPrediction()
	}
	if observe && !c.work && !c.finished {
		c.trySkip()
	}
}

// finish marks the run done with reason r; the first reason wins.
func (c *Core) finish(r StopReason) {
	if !c.finished {
		c.finished = true
		c.stopReason = r
	}
}

// watchdog aborts the run when retirement has made no progress for
// Config.WatchdogCycles cycles — unless the machine is in a legitimate
// full-window memory stall, i.e. the program-order-oldest uop is a load
// still outstanding in the hierarchy with a completion cycle ahead of us.
// A true deadlock (nothing in flight will ever complete) fails that test
// and stops immediately with StopWatchdog instead of spinning to
// MaxCycles and reporting truncated statistics as if they were real.
func (c *Core) watchdog() {
	if c.cfg.WatchdogCycles == 0 || c.finished {
		return
	}
	if c.retired != c.wdRetired {
		c.wdRetired, c.wdCycle = c.retired, c.now
		return
	}
	if c.now-c.wdCycle < c.cfg.WatchdogCycles {
		return
	}
	if h := c.oldestROBHead(); h != nil && h.op.IsLoad() &&
		h.state == stateExecuting && h.doneAt > c.now {
		return // slow, not wedged: the head load has a future completion
	}
	c.finish(StopWatchdog)
}

// endOfCycle gathers per-cycle statistics and runs the slow controllers.
func (c *Core) endOfCycle() {
	c.st.Cycles++
	c.st.TickMLP(c.hier.OutstandingLLCMisses(c.now))
	if c.cdfOn {
		c.st.CDFModeCycles++
	}

	// Full-window stall detection: ROB full and the oldest uop is a load
	// waiting on an LLC miss.
	inStall := false
	if c.robOccupancy() >= c.cfg.ROBSize {
		head := c.oldestROBHead()
		if head != nil && head.op.IsLoad() && head.state != stateDone && head.llcMiss {
			inStall = true
			c.st.FullWindowStallCycles++
			c.st.SampleStallROB(c.fig1Crit, c.fig1Non)
			// Per-section stall attribution drives the dynamic partitions.
			if c.robPart != nil {
				c.robPart.NoteStall(head.critical)
			}
			if c.runahead != nil && !c.cdfOn {
				// PRE marks loads that cause full-window stalls (§4.1) —
				// once per stall — and runs ahead for the stall's duration.
				// In hybrid mode (§6), marking stays CDF's retire-driven
				// policy and runahead only covers the stretches where the
				// processor is out of CDF mode.
				if !c.preStalled || c.preStallSeq != head.seq {
					c.preStalled, c.preStallSeq = true, head.seq
					if c.cfg.Mode == ModePRE {
						c.crit.loadCCT.Update(head.dyn.PC, true)
					}
					free := c.cfg.RSSize - c.rsLen
					if f := c.rf.freeCount(); f < free {
						free = f // runahead runs on free RS *and* PRF entries
					}
					c.runahead.BeginStall(c.now, c.lastAllocSeq+1, head.doneAt, free, c.regWPActive)
				}
			}
		}
	}
	if !inStall {
		// PRE's precise exit is effectively free: chains were fetched
		// pre-decoded from the Critical Uop Cache, so the regular decode
		// pipe still holds the main stream (§4.1: no EMQ needed).
		c.preStalled = false
		if c.runahead != nil {
			c.runahead.EndStall()
		}
	}
	if c.runahead != nil {
		if c.cdfOn {
			// Hybrid: the critical fetch engine owns the frontend while CDF
			// mode is on; runahead yields.
			c.runahead.EndStall()
		} else {
			c.runahead.Cycle(c.now)
		}
	}
	c.maybeFinalizeCDFExit()

	// Apply partition boundary movements.
	if c.robPart != nil {
		c.st.PartitionGrows, c.st.PartitionShrinks = 0, 0
		for i, p := range c.partitions() {
			_, used, crit := c.occupancy(i)
			p.Apply(crit, used-crit)
			c.st.PartitionGrows += p.Grows
			c.st.PartitionShrinks += p.Shrinks
		}
	}

	// Release retired stream positions (keep a safety margin for in-flight
	// references behind the oldest unretired seq). Retire advances by up to
	// the machine width per cycle, so trigger on a high-water mark rather
	// than an exact multiple.
	if c.retired >= c.nextRelease {
		c.nextRelease = c.retired + 4096
		c.strm.Release(c.oldestLiveSeq())
	}
}

// robOccupancy returns total ROB entries in use.
func (c *Core) robOccupancy() int { return c.robCrit.len() + c.robNon.len() }

// oldestROBHead returns the program-order oldest ROB entry.
func (c *Core) oldestROBHead() *entry {
	h1, h2 := c.robCrit.head(), c.robNon.head()
	switch {
	case h1 == nil:
		return h2
	case h2 == nil:
		return h1
	case h1.before(h2):
		return h1
	default:
		return h2
	}
}

// oldestLiveSeq returns the oldest dynamic position still referenced.
func (c *Core) oldestLiveSeq() uint64 {
	oldest := c.regSeq
	if h := c.oldestROBHead(); h != nil && h.seq < oldest {
		oldest = h.seq
	}
	for _, it := range c.fetchQ.items {
		if it.e.seq < oldest {
			oldest = it.e.seq
		}
	}
	if c.cdfOn && c.cdfEntrySeq < oldest {
		oldest = c.cdfEntrySeq
	}
	return oldest
}

// fig1Count adds d to e's class in the Fig. 1 ROB composition: critical
// path (everything in the critical section, plus non-critical-section
// entries the mask machinery marks) or not. Modelled wrong-path slots are
// not program instructions; Fig. 1 counts the real instruction mix. All
// three flags are fixed at fetch, so entering and leaving the ROB are the
// only updates.
func (c *Core) fig1Count(e *entry, d int) {
	switch {
	case e.wrongPath:
	case e.critical || e.obsCritical:
		c.fig1Crit += d
	default:
		c.fig1Non += d
	}
}

// Recycle returns a finished core's correct-path stream pages to a
// process-wide pool for the next core to reuse. Call it only from the
// goroutine that ran the core, after a normal finish; the core must not
// run again. On an unfinished core it does nothing.
func (c *Core) Recycle() {
	if c.finished {
		c.strm.recycle()
	}
}

// errInternal wraps invariant violations; used by panics in impossible
// states so test failures carry context.
func errInternal(format string, args ...any) error {
	return fmt.Errorf("core internal: %s", fmt.Sprintf(format, args...))
}
