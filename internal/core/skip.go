package core

import (
	"fmt"
	"strings"

	"cdf/internal/cdf"
	"cdf/internal/stats"
)

// Event-driven stall skipping (DESIGN.md §9). A memory-bound run spends most
// of its cycles in full-window stalls where the machine state is frozen and
// only a handful of per-cycle stall counters tick. The fast path detects
// those cycles by observation rather than prediction:
//
//  1. A cycle is *observed* when the previous cycle did no work (c.work):
//     before the stages run, the whitelisted counters, a compact signature
//     of the mutable machine state, and the partition stall counters are
//     snapshotted.
//  2. After the stages, if the cycle again did no work, the signature is
//     unchanged, and the statistics moved only in the per-idle-cycle
//     whitelist (stats.DeltaSince), the cycle is provably a fixed point:
//     re-running it can only reproduce the same deltas.
//  3. nextEvent computes the earliest future cycle E at which anything can
//     behave differently — an execution completing, an outstanding LLC miss
//     draining (which changes the MLP sample), a frontend stall expiring, a
//     decode-pipe entry becoming visible, the watchdog or cycle budget
//     firing, or a partition resize threshold crossing. The clock then
//     jumps straight to E, replaying the observed per-cycle delta for the
//     skipped cycles (stats.AddDelta, Partition.AddStalls).
//
// The jump is exact by construction: cycle E executes for real, and every
// skipped cycle's full effect is the replicated delta. Equivalence tests
// compare fast and slow (-slowpath) runs bit-for-bit.

// partSnap is one partition's stall counters at observation time.
type partSnap struct{ crit, non uint64 }

// coreSig is a comparable snapshot of the machine state that must be frozen
// for a cycle to be a skippable fixed point. Anything mutable outside the
// statistics whitelist and the partition stall counters either appears here
// or is covered by the work-flag discipline (mutating sites set c.work).
type coreSig struct {
	robCritLen, robNonLen   int
	lqLen, sqLen            int
	lqCrit, sqCrit, rsCrit  int
	rsLen, execLen          int
	readyLen, staLen        int
	fetchQLen, critQLen     int
	dbqLen, cmqLen          int
	robCritHead, robNonHead *entry

	regSeq, regNextSeq, lastAllocSeq uint64
	fetchStallUntil                  uint64
	fetchStallReason                 uint8
	regWPActive                      bool
	regWPSeq                         uint64
	lastFetchLine                    uint64
	haveFetchLine                    bool

	// Instruction-supply engine (zero when disabled; see isupply.go).
	front frontSig

	cdfOn, cdfExitPending bool
	cdfEntrySeq           uint64
	cdfEpoch              uint32
	critScanSeq           uint64
	critStallUntil        uint64
	critWPActive          bool
	critWPSeq             uint64
	critWPEmitted         int
	critWPCritBr          bool
	wpCounter             uint32

	rng          uint64
	recentN      int
	wpMissBudget int
	wpBudgetSeq  uint64

	collecting               bool
	machBusy                 uint64
	lastEpochAt, lastMaskRst uint64

	preStalled  bool
	preStallSeq uint64

	retired            uint64
	wdRetired, wdCycle uint64
	noPendingViol      bool
	noCheckErr         bool

	rfFree, rfCritInFlight int
	rfCritForked           bool

	partCritCap [3]int
	partDesired [3]int
	partGrows   [3]uint64
	partShrinks [3]uint64
}

func (c *Core) sig() coreSig {
	s := coreSig{
		robCritLen: c.robCrit.len(), robNonLen: c.robNon.len(),
		lqLen: c.lq.len(), sqLen: c.sq.len(),
		lqCrit: c.lqCrit, sqCrit: c.sqCrit, rsCrit: c.rsCrit,
		rsLen: c.rsLen, execLen: len(c.exec),
		readyLen: len(c.readyList), staLen: len(c.staPending),
		fetchQLen: c.fetchQ.len(), critQLen: c.critQ.len(),
		dbqLen: c.dbq.len(), cmqLen: c.cmq.len(),
		robCritHead: c.robCrit.head(), robNonHead: c.robNon.head(),

		regSeq: c.regSeq, regNextSeq: c.regNextSeq, lastAllocSeq: c.lastAllocSeq,
		fetchStallUntil:  c.fetchStallUntil,
		fetchStallReason: c.fetchStallReason,
		regWPActive:      c.regWPActive, regWPSeq: c.regWPSeq,
		lastFetchLine: c.lastFetchLine, haveFetchLine: c.haveFetchLine,
		front: c.frontSigNow(),

		cdfOn: c.cdfOn, cdfExitPending: c.cdfExitPending,
		cdfEntrySeq: c.cdfEntrySeq, cdfEpoch: c.cdfEpoch,
		critScanSeq: c.critScanSeq, critStallUntil: c.critStallUntil,
		critWPActive: c.critWPActive, critWPSeq: c.critWPSeq,
		critWPEmitted: c.critWPEmitted, critWPCritBr: c.critWPCritBr,
		wpCounter: c.wpCounter,

		rng: c.rng, recentN: c.recentN,
		wpMissBudget: c.wpMissBudget, wpBudgetSeq: c.wpBudgetSeq,

		collecting: c.collecting, machBusy: c.machBusy,
		lastEpochAt: c.lastEpochAt, lastMaskRst: c.lastMaskRst,

		preStalled: c.preStalled, preStallSeq: c.preStallSeq,

		retired:   c.retired,
		wdRetired: c.wdRetired, wdCycle: c.wdCycle,
		noPendingViol: c.pendingMemViol == nil,
		noCheckErr:    c.checkErr == nil,

		rfFree: len(c.rf.free), rfCritInFlight: c.rf.critInFlight,
		rfCritForked: c.rf.critForked,
	}
	for i, p := range [3]*cdf.Partition{c.robPart, c.lqPart, c.sqPart} {
		if p == nil {
			continue
		}
		s.partCritCap[i], s.partDesired[i] = p.CritCap, p.Desired()
		s.partGrows[i], s.partShrinks[i] = p.Grows, p.Shrinks
	}
	return s
}

// skipEligible reports whether the machine configuration and attachments
// permit skipping at all: observation hooks (tracer, paranoid checks, debug
// hooks) see per-cycle behaviour and must get every cycle, and a runahead
// engine mid-slice does real work each cycle.
func (c *Core) skipEligible() bool {
	return !c.cfg.SlowPath && c.tracer == nil && c.cfg.ParanoidEvery == 0 &&
		c.debugBlockRetire == nil && c.debugViol == nil &&
		c.pendingMemViol == nil &&
		(c.runahead == nil || c.runahead.Idle())
}

func (c *Core) partSnaps() (out [3]partSnap) {
	for i, p := range [3]*cdf.Partition{c.robPart, c.lqPart, c.sqPart} {
		if p != nil {
			out[i].crit, out[i].non = p.Stalls()
		}
	}
	return out
}

// nextEvent returns the earliest future cycle at which the machine can
// behave differently from the observed idle cycle, or ok=false when no
// bound can be established (then nothing is skipped).
func (c *Core) nextEvent() (uint64, bool) {
	const none = ^uint64(0)
	ev := uint64(none)
	min := func(v uint64) {
		if v < ev {
			ev = v
		}
	}
	// Execution completions: complete() acts at doneAt.
	for _, e := range c.exec {
		min(e.doneAt)
	}
	// Outstanding LLC misses: the per-cycle MLP sample changes when one
	// drains (OutstandingLLCMisses prunes at done <= now).
	if d, ok := c.hier.NextOutstandingDone(); ok {
		min(d)
	}
	// Frontend timers. trySkip runs post-increment, so c.now is the next
	// cycle to execute: an event exactly at c.now must force target==now
	// (no skip), hence >= rather than > in every comparison below. Values
	// strictly below c.now expired before the observed idle cycle and
	// contribute no event (the observed cycle already saw them expired).
	if c.fetchStallUntil >= c.now {
		min(c.fetchStallUntil)
	}
	if c.cdfOn && !c.cdfExitPending && c.critStallUntil >= c.now {
		min(c.critStallUntil)
	}
	// Criticality machinery walk completion (gates CDF-mode entry).
	if c.machBusy >= c.now {
		min(c.machBusy)
	}
	// Decode-pipe visibility: rename sees the queue heads at their .at. A
	// head already visible before the observed cycle (at < c.now) was
	// provably blocked by window occupancy, which only work can change.
	if !c.fetchQ.empty() {
		if at := c.fetchQ.items[0].at; at >= c.now {
			min(at)
		}
	}
	if !c.critQ.empty() {
		if at := c.critQ.items[0].at; at >= c.now {
			min(at)
		}
	}
	// FDIP issue blocked on full L1I MSHRs: a non-empty FTQ in an idle
	// cycle means every issue slot bounced off a busy MSHR file (any other
	// outcome — a pop, an issue — sets the work flag), so the queue drains
	// when the earliest in-flight fill completes. Fills never complete in
	// the past here (PrefetchInst prunes expired entries when it checks
	// capacity), but clamp to now anyway so a surprise forces a real cycle
	// instead of an unsound skip.
	if c.fr != nil && c.fr.fdip != nil && c.fr.fdip.Len() > 0 {
		d, ok := c.hier.L1INextPendingReady()
		if !ok {
			return 0, false
		}
		min(maxU(d, c.now))
	}
	if ev == none {
		return 0, false
	}
	// The watchdog must run for real at the first cycle it could fire.
	// Its check sees the post-increment clock, so stage-cycle t is judged
	// at t+1: the last safely skippable resume target is wdCycle+W-1 —
	// extended to doneAt-1 while the head-load exemption provably holds.
	if c.cfg.WatchdogCycles > 0 {
		wd := c.wdCycle + c.cfg.WatchdogCycles - 1
		if h := c.oldestROBHead(); h != nil && h.op.IsLoad() &&
			h.state == stateExecuting && h.doneAt > c.now {
			wd = maxU(wd, h.doneAt-1)
		}
		if wd < ev {
			ev = wd
		}
	}
	// The cycle-budget stop fires at now==MaxCycles post-increment: cycle
	// MaxCycles-1 must execute for real.
	if c.cfg.MaxCycles > 0 && c.cfg.MaxCycles-1 < ev {
		ev = c.cfg.MaxCycles - 1
	}
	return ev, true
}

// trySkip runs after the stages of an observed cycle. If the cycle proved
// to be an idle fixed point, jump the clock to the next event, replaying
// the observed per-cycle deltas for the skipped cycles.
func (c *Core) trySkip() {
	if c.skipPred != nil {
		return
	}
	if c.sig() != c.obsSig {
		return
	}
	d := &c.skipDelta
	if !c.st.DeltaSince(&c.obsStats, d) {
		return
	}
	parts := [3]*cdf.Partition{c.robPart, c.lqPart, c.sqPart}
	var dcs, dns [3]uint64
	for i, p := range parts {
		if p == nil {
			continue
		}
		crit, non := p.Stalls()
		prev := c.obsParts[i]
		if crit < prev.crit || non < prev.non {
			return // a resize threshold fired and reset the counters
		}
		dcs[i], dns[i] = crit-prev.crit, non-prev.non
	}
	target, ok := c.nextEvent()
	if !ok || target <= c.now {
		return
	}
	k := target - c.now // skipped cycles: now .. target-1; resume at target
	// Cap k so no partition's NoteStall threshold can cross mid-skip (the
	// crossing resets counters and resizes — that cycle must run for real).
	// Conservative: intermediate values within a cycle stay within
	// |diff| + (dc+dn)*m of the pre-skip imbalance.
	for i, p := range parts {
		if p == nil || dcs[i]+dns[i] == 0 || p.Frozen {
			continue
		}
		crit, non := p.Stalls()
		diff := int64(crit) - int64(non)
		if diff < 0 {
			diff = -diff
		}
		headroom := int64(p.StallThresh()) - 1 - diff
		if headroom <= 0 {
			return
		}
		if maxK := uint64(headroom) / (dcs[i] + dns[i]); maxK < k {
			k = maxK
		}
	}
	if k == 0 {
		return
	}
	if c.debugVerifySkip {
		// Test-only verification: predict the post-skip statistics, then
		// simulate the k cycles for real and compare (verifySkipPrediction).
		want := *c.st
		want.AddDelta(d, k)
		c.skipPred = &skipPrediction{at: c.now + k, want: want, sig: c.obsSig}
		return
	}
	c.st.AddDelta(d, k)
	for i, p := range parts {
		if p != nil {
			p.AddStalls(dcs[i], dns[i], k)
		}
	}
	c.now += k
}

// skipPrediction is the pending check of the test-only skip verifier (see
// Core.debugVerifySkip): the statistics and signature the skip would have
// produced by jumping, to be compared against real simulation at cycle at.
type skipPrediction struct {
	at   uint64
	want stats.Stats
	sig  coreSig
}

func (c *Core) verifySkipPrediction() {
	p := c.skipPred
	c.skipPred = nil
	if c.sig() != p.sig {
		panic(errInternal("skip verifier: machine state changed during predicted-idle stretch ending at cycle %d:\n pred %+v\n got  %+v",
			c.now, p.sig, c.sig()))
	}
	if *c.st != p.want {
		var diff strings.Builder
		pred, got := p.want.Table(), c.st.Table()
		for i := range got {
			if got[i] != pred[i] {
				fmt.Fprintf(&diff, "\n %s: pred %v got %v", got[i].Name, pred[i].Value, got[i].Value)
			}
		}
		panic(errInternal("skip verifier: statistics diverge at cycle %d:%s", c.now, diff.String()))
	}
}
