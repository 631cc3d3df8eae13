package core

import (
	"fmt"
	"strings"

	"cdf/internal/stats"
)

// Event-driven stall skipping (DESIGN.md §9). A memory-bound run spends most
// of its cycles in full-window stalls where the machine state is frozen and
// only a handful of per-cycle stall counters tick. The fast path detects
// those cycles by observation rather than prediction:
//
//  1. A cycle is *observed* when the previous cycle did no work (c.work):
//     before the stages run, the whitelisted counters and a compact
//     signature of the mutable machine state are snapshotted, and each
//     partition's NoteStall log is emptied so it records this cycle's calls.
//  2. After the stages, if the cycle again did no work, the signature is
//     unchanged, and the statistics moved only in the per-idle-cycle
//     whitelist (stats.DeltaSince), the cycle is provably a fixed point:
//     re-running it can only reproduce the same deltas and the same
//     NoteStall call sequence.
//  3. nextEvent computes the earliest future cycle E at which anything can
//     behave differently — an execution completing, an outstanding LLC miss
//     draining (which changes the MLP sample), a frontend stall expiring, a
//     decode-pipe entry becoming visible, or the watchdog or cycle budget
//     firing. Each partition then dry-runs its logged call sequence cycle
//     by cycle (Partition.ReplayBound) and stops the jump before the first
//     cycle in which a threshold crossing would resize it; crossings that
//     clamp to the current target only reset the counters and are replayed.
//     The clock jumps to the bound, replaying the observed per-cycle delta
//     (stats.AddDelta) and call sequence (Partition.Replay) for the skipped
//     cycles.
//
// The jump is exact by construction: the cycle at the bound executes for
// real, and every skipped cycle's full effect is the replayed one.
// Equivalence tests compare fast and slow (-slowpath) runs bit-for-bit.

// coreSig is a comparable snapshot of the machine state that must be frozen
// for a cycle to be a skippable fixed point. Anything mutable outside the
// statistics whitelist and the partition stall counters (replayed from the
// NoteStall log) either appears here or is covered by the work-flag
// discipline (mutating sites set c.work).
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

		rng: c.wp.rng, recentN: c.wp.n,
		wpMissBudget: c.wpMissBudget, wpBudgetSeq: c.wpBudgetSeq,

		collecting: c.crit.collecting, machBusy: c.machBusy,
		lastEpochAt: c.crit.lastEpochAt, lastMaskRst: c.crit.lastMaskRst,

		preStalled: c.preStalled, preStallSeq: c.preStallSeq,

		retired:   c.retired,
		wdRetired: c.wdRetired, wdCycle: c.wdCycle,
		noPendingViol: c.pendingMemViol == nil,
		noCheckErr:    c.checkErr == nil,

		rfFree: len(c.rf.free), rfCritInFlight: c.rf.critInFlight,
		rfCritForked: c.rf.critForked,
	}
	for i, p := range c.partitions() {
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

// resetStallLogs empties the partitions' NoteStall logs before an observed
// cycle.
func (c *Core) resetStallLogs() {
	for _, p := range c.partitions() {
		if p != nil {
			p.ResetStallLog()
		}
	}
}

// nextEvent returns the earliest future cycle at which the machine can
// behave differently from the observed idle cycle, or ok=false when no
// bound can be established (then nothing is skipped).
func (c *Core) nextEvent() (uint64, bool) {
	const none = ^uint64(0)
	ev := uint64(none)
	bound := func(v uint64) {
		if v < ev {
			ev = v
		}
	}
	// Execution completions: complete() acts at doneAt.
	for _, x := range c.exec {
		bound(x.doneAt)
	}
	// Outstanding LLC misses: the per-cycle MLP sample changes when one
	// drains (OutstandingLLCMisses prunes at done <= now).
	if d, ok := c.hier.NextOutstandingDone(); ok {
		bound(d)
	}
	// Frontend timers. trySkip runs post-increment, so c.now is the next
	// cycle to execute: an event exactly at c.now must force target==now
	// (no skip), hence >= rather than > in every comparison below. Values
	// strictly below c.now expired before the observed idle cycle and
	// contribute no event (the observed cycle already saw them expired).
	if c.fetchStallUntil >= c.now {
		bound(c.fetchStallUntil)
	}
	if c.cdfOn && !c.cdfExitPending && c.critStallUntil >= c.now {
		bound(c.critStallUntil)
	}
	// Criticality machinery walk completion (gates CDF-mode entry).
	if c.machBusy >= c.now {
		bound(c.machBusy)
	}
	// Decode-pipe visibility: rename sees the queue heads at their .at. A
	// head already visible before the observed cycle (at < c.now) was
	// provably blocked by window occupancy, which only work can change.
	if !c.fetchQ.empty() {
		if at := c.fetchQ.items[0].at; at >= c.now {
			bound(at)
		}
	}
	if !c.critQ.empty() {
		if at := c.critQ.items[0].at; at >= c.now {
			bound(at)
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
		d, ok := c.hier.L1I.NextPendingReady()
		if !ok {
			return 0, false
		}
		bound(max(d, c.now))
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
			wd = max(wd, h.doneAt-1)
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
// to be an idle fixed point, jump the clock to the next event — or to the
// first partition resize before it — replaying the observed per-cycle
// deltas and NoteStall calls for the skipped cycles.
func (c *Core) trySkip() {
	if c.skipPred != nil {
		return
	}
	if c.sig() != c.obsSig {
		c.refuseSkip(refuseSig)
		return
	}
	d := &c.skipDelta
	if !c.st.DeltaSince(&c.obsStats, d) {
		c.refuseSkip(refuseDelta)
		return
	}
	target, ok := c.nextEvent()
	if !ok || target <= c.now {
		c.refuseSkip(refuseNoEvent)
		return
	}
	k := target - c.now // skipped cycles: now .. now+k-1; resume at now+k
	parts := c.partitions()
	for _, p := range parts {
		if p == nil {
			continue
		}
		n, _, _, ok := p.ReplayBound(k)
		if !ok {
			c.refuseSkip(refusePartition)
			return
		}
		k = n
	}
	if k == 0 {
		c.refuseSkip(refuseZeroK)
		return
	}
	if c.debugVerifySkip {
		// Test-only verification: predict the post-skip statistics and
		// partition counters, then simulate the k cycles for real and
		// compare (verifySkipPrediction).
		pred := &skipPrediction{at: c.now + k, want: *c.st, sig: c.obsSig}
		pred.want.AddDelta(d, k)
		for i, p := range parts {
			if p != nil {
				_, pred.stalls[i].crit, pred.stalls[i].non, _ = p.ReplayBound(k)
			}
		}
		c.skipPred = pred
		return
	}
	c.st.AddDelta(d, k)
	for _, p := range parts {
		if p != nil {
			p.Replay(k)
		}
	}
	c.now += k
}

// skipRefusal names why trySkip left an observed cycle unskipped; the
// test-only Core.debugSkipRefusals counts them.
type skipRefusal int

const (
	refuseSig       skipRefusal = iota // machine signature changed
	refuseDelta                        // a counter outside the idle whitelist moved
	refuseNoEvent                      // no next event, or it is the next cycle
	refusePartition                    // a partition's NoteStall log overflowed
	refuseZeroK                        // a partition resizes in the first skipped cycle
	numSkipRefusals
)

func (c *Core) refuseSkip(r skipRefusal) {
	if c.debugSkipRefusals != nil {
		c.debugSkipRefusals[r]++
	}
}

// skipPrediction is the pending check of the test-only skip verifier (see
// Core.debugVerifySkip): the statistics, signature and partition stall
// counters the skip would have produced by jumping, to be compared against
// real simulation at cycle at.
type skipPrediction struct {
	at     uint64
	want   stats.Stats
	sig    coreSig
	stalls [3]partStalls // ROB, LQ, SQ
}

// partStalls is one partition's (critical, non-critical) stall counters.
type partStalls struct{ crit, non uint64 }

func (c *Core) verifySkipPrediction() {
	p := c.skipPred
	c.skipPred = nil
	if c.sig() != p.sig {
		panic(errInternal("skip verifier: machine state changed during predicted-idle stretch ending at cycle %d:\n pred %+v\n got  %+v",
			c.now, p.sig, c.sig()))
	}
	var diff strings.Builder
	if *c.st != p.want {
		pred, got := p.want.Table(), c.st.Table()
		for i := range got {
			if got[i] != pred[i] {
				fmt.Fprintf(&diff, "\n %s: pred %v got %v", got[i].Name, pred[i].Value, got[i].Value)
			}
		}
	}
	for i, part := range c.partitions() {
		if part == nil {
			continue
		}
		var got partStalls
		if got.crit, got.non = part.Stalls(); got != p.stalls[i] {
			fmt.Fprintf(&diff, "\n %s_partition_stalls: pred %+v got %+v", strings.ToLower(partNames[i]), p.stalls[i], got)
		}
	}
	if diff.Len() > 0 {
		panic(errInternal("skip verifier: counters diverge at cycle %d:%s", c.now, diff.String()))
	}
}
