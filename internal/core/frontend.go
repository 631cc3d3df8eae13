package core

import (
	"fmt"

	"cdf/internal/branch"
	"cdf/internal/emu"
	"cdf/internal/isa"
	"cdf/internal/prog"
)

// fetch runs both fetch engines for one cycle: the CDF critical fetcher
// (when in CDF mode) and the regular fetcher.
func (c *Core) fetch() {
	if c.fr != nil {
		c.frontCycle()
	}
	if c.cdfOn && !c.cdfExitPending {
		c.critFetch()
	}
	c.regFetch()
}

// actualTarget returns the resolved next PC of a taken branch.
func actualTarget(d *streamRec) uint64 { return d.dyn.NextPC }

// retContinuationPC returns the return continuation a call d pushes: the
// PC right after the call (its block's fallthrough start).
func retContinuationPC(p *prog.Program, d *emu.DynUop) uint64 {
	blk := p.Blocks[d.BlockID]
	if blk.Fallthrough >= 0 {
		return p.BlockPC(blk.Fallthrough)
	}
	return d.PC + 8
}

// wrongPrediction reports whether prediction pr of branch d is a
// mispredict: a wrong direction, or a wrong target from a BTB hit. A BTB
// miss with the right direction is a re-steer, not a mispredict.
func wrongPrediction(pr *branch.Prediction, d *emu.DynUop) bool {
	return pr.Taken != d.Taken || d.Taken && pr.TargetHit && pr.Target != d.NextPC
}

// --- regular fetch engine ---

func (c *Core) regFetch() {
	if c.now < c.fetchStallUntil {
		c.tickFetchStall()
		return
	}
	if c.regWPActive {
		c.emitWrongPath(false)
		return
	}

	budget := c.cfg.Width
	lineAccesses := 0
	for budget > 0 {
		// The decode/uop queue is finite: fetch throttles when rename backs
		// up (2 cycles of slack beyond the decode pipe contents).
		if c.fetchQ.len() >= (c.cfg.DecodeLat+2)*c.cfg.Width {
			break
		}
		// CDF gating: the regular stream may not pass positions the
		// critical fetcher has not examined yet (its branch predictions
		// come from the Delayed Branch Queue).
		if c.cdfOn && !c.cdfExitPending && c.regSeq >= c.critScanSeq {
			break
		}
		rec := c.strm.At(c.regSeq)
		if rec == nil {
			break // program fetched to completion; pipeline drains
		}
		dyn := &rec.dyn

		// I-cache: account one access per distinct line, at most two lines
		// per cycle.
		line := dyn.PC / c.cfg.Mem.LineBytes
		if !c.haveFetchLine || line != c.lastFetchLine {
			lineAccesses++
			if lineAccesses > 2 {
				break
			}
			if c.fetchLine(dyn.PC, line) {
				break
			}
		}

		// Observe-only criticality marking for Fig. 1 sampling.
		if c.cfg.TrainCriticality && !rec.markedCritical && dyn.Index < 64 {
			if tr, ok := c.crit.cuc.Probe(c.prg.BlockPC(dyn.BlockID)); ok && tr.Mask&(1<<uint(dyn.Index)) != 0 {
				rec.markedCritical = true
			}
		}

		// CDF mode entry: a Critical Uop Cache hit at a block boundary.
		if (c.cfg.Mode == ModeCDF || c.cfg.Mode == ModeHybrid) && !c.cdfOn && dyn.Index == 0 && c.now >= c.machBusy {
			if tr, ok := c.crit.cuc.Lookup(dyn.PC); ok && !tr.NoEnter {
				c.enterCDF(c.regSeq)
				break // critical fetch takes over from this position
			}
		}

		isCritPos := c.cdfOn && rec.fetchedCritical && rec.epoch == c.cdfEpoch

		e := c.pool.get()
		if isCritPos {
			// The regular stream refetches critical uops from the I-cache
			// and discards them at rename (replaying their mapping).
			e.seq, e.op = c.regSeq, dyn.U.Op
			e.isReplay, e.replayOf, e.fetchedInCDF = true, rec.critEntry, true
		} else {
			e.seq, e.dyn, e.op = c.regSeq, dyn, dyn.U.Op
			e.fetchedInCDF, e.obsCritical = c.cdfOn, rec.markedCritical
			e.dstPhys, e.prevCrit, e.prevReg, e.src1, e.src2 = -1, -1, -1, -1, -1
		}

		if dyn.U.Op.IsBranch() {
			if c.cdfOn && c.regSeq < c.critScanSeq {
				// Prediction comes from the Delayed Branch Queue.
				if c.dbq.empty() {
					c.pool.put(e)
					break // wait for the critical fetcher
				}
				de := c.dbq.items[0]
				if de.seq != c.regSeq {
					panic(errInternal("DBQ head seq %d != fetch seq %d", de.seq, c.regSeq))
				}
				c.dbq.popHead()
				if de.wrong {
					// Follow the wrong path until this branch resolves. For
					// a non-critical branch, the instance fetched here is
					// the one that resolves; mark it.
					if !isCritPos {
						e.mispredict = true
					}
					c.pushFetch(e)
					c.startRegWrongPath(c.regSeq)
					c.regSeq++
					return
				}
			} else {
				// Normal prediction (baseline, or CDF exit drain).
				if c.predictAndCheck(e, rec) {
					// Mispredicted: fetch the branch, then go wrong-path.
					c.pushFetch(e)
					c.startRegWrongPath(c.regSeq)
					c.regSeq++
					return
				}
				if c.now < c.fetchStallUntil {
					// BTB re-steer bubble: branch still fetched this cycle.
					c.pushFetch(e)
					c.regSeq++
					return
				}
			}
		}

		c.pushFetch(e)
		c.regSeq++
		budget--
		if dyn.Last {
			break
		}
	}
}

// predictAndCheck runs the branch predictor for e, trains it with the
// oracle outcome, and reports whether the prediction was wrong (direction or
// taken-target). BTB misses with a correct direction cost a re-steer bubble
// instead.
func (c *Core) predictAndCheck(e *entry, rec *streamRec) (mispredicted bool) {
	dyn := &rec.dyn
	op := dyn.U.Op
	pr := &c.pr
	c.pred.Predict(op, dyn.PC, retContinuationPC(c.prg, dyn), pr)
	if pr.Cond {
		c.st.CondBranches++
	}
	c.pred.Update(op, dyn.PC, dyn.Taken, actualTarget(rec), pr)

	if wrongPrediction(pr, dyn) {
		e.mispredict = true
		return true
	}
	if dyn.Taken && !pr.TargetHit {
		if c.fr != nil && c.fr.shadow != nil {
			if t, ok := c.fr.shadow.Probe(dyn.PC); ok && t == dyn.NextPC {
				// A shadow branch decoded from an already-fetched line
				// supplies the target: no re-steer bubble.
				c.st.ShadowBTBHits++
				return false
			}
		}
		// Target computed at decode: short re-steer.
		c.st.BTBMisses++
		c.fetchStallUntil = c.now + uint64(c.cfg.BTBMissPenalty)
		c.fetchStallReason = stallBTB
	}
	return false
}

// pushFetch enqueues a fetched uop into the decode pipe.
func (c *Core) pushFetch(e *entry) {
	c.work = true
	c.fetchQ.push(fqItem{e: e, at: c.now + uint64(c.cfg.DecodeLat)})
	c.st.FetchedUops++
	if c.tracer != nil {
		desc := e.op.String()
		if e.isReplay {
			desc += " (replay)"
		}
		if e.wrongPath {
			desc = "wrong-path " + desc
		}
		c.traceEvent("fetch", e, desc)
	}
}

// wpMissBudgetPerEpisode bounds how many wrong-path loads per misprediction
// episode get novel (certainly-missing) addresses; the rest re-touch
// recently used lines and mostly hit. Real wrong paths run nearby code over
// nearby data, so most of their accesses hit the caches — without this the
// modelled wrong path would flood DRAM far beyond what hardware shows.
const wpMissBudgetPerEpisode = 4

// startRegWrongPath puts the regular fetch engine on the modelled wrong
// path behind the mispredicted branch at brSeq.
func (c *Core) startRegWrongPath(brSeq uint64) {
	c.regWPActive = true
	c.regWPSeq = brSeq
	c.resetWPBudget(brSeq)
}

// startCritWrongPath does the same for the critical fetch engine.
// brCritical records whether the mispredicted branch is itself critical: a
// critical branch resolves early (its instance executes in the critical
// stream) and CDF mode survives the recovery (§3.6); a non-critical one
// resolves only when the in-order stream reaches it, and the wrong-path
// walk soon dies on a Critical Uop Cache miss, exiting CDF mode.
func (c *Core) startCritWrongPath(brSeq uint64, brCritical bool) {
	c.critWPActive = true
	c.critWPSeq = brSeq
	c.critWPCritBr = brCritical
	c.critWPEmitted = 0
	c.resetWPBudget(brSeq)
}

// resetWPBudget refreshes the per-episode novel-miss budget. Both fetch
// engines walking the wrong path behind the *same* branch share one budget:
// they model the same off-path code.
func (c *Core) resetWPBudget(brSeq uint64) {
	if c.wpBudgetSeq == brSeq {
		return
	}
	c.wpBudgetSeq = brSeq
	c.wpMissBudget = wpMissBudgetPerEpisode
}

// emitWrongPath delivers modelled wrong-path slots from one fetch engine.
// Slots consume frontend and window resources and (with probability
// WrongPathLoadFrac) issue loads at synthesized near-path addresses,
// generating the wrong-path memory traffic the paper's Fig. 15 measures.
func (c *Core) emitWrongPath(critical bool) {
	if c.cfg.WrongPathLoadFrac == 0 {
		return
	}
	brSeq := c.regWPSeq
	if critical {
		brSeq = c.critWPSeq
	}
	lat := uint64(c.cfg.DecodeLat)
	if critical {
		lat = uint64(c.cfg.CritDecodeLat)
	}
	if !critical && c.fetchQ.len() >= (c.cfg.DecodeLat+2)*c.cfg.Width {
		return
	}
	if critical && c.critQ.len() >= 4*c.cfg.Width {
		return
	}
	c.work = true
	for i := 0; i < c.cfg.Width; i++ {
		c.wpCounter++
		e := c.pool.get()
		e.seq, e.sub, e.wrongPath = brSeq, c.wpCounter, true
		e.critical, e.fetchedInCDF = critical, c.cdfOn
		e.dstPhys, e.prevCrit, e.prevReg, e.src1, e.src2 = -1, -1, -1, -1, -1
		// A uniform draw in [0,1) picks loads at WrongPathLoadFrac.
		if float64(c.wp.next()>>11)/(1<<53) < c.cfg.WrongPathLoadFrac {
			e.op = isa.OpLoad
			e.addr = c.synthWrongPathAddr()
		} else {
			e.op = isa.OpAdd
		}
		it := fqItem{e: e, at: c.now + lat}
		if critical {
			c.critQ.push(it)
		} else {
			c.fetchQ.push(it)
		}
		c.st.FetchedUops++
	}
}

// --- CDF critical fetch engine (§3.3) ---

// critFetch processes one basic block per cycle from the Critical Uop
// Cache: emit its critical uops, predict its terminating branch (recording
// the prediction in the Delayed Branch Queue), and advance to the next
// block.
func (c *Core) critFetch() {
	if c.now < c.critStallUntil {
		return
	}
	if c.critWPActive {
		// The critical fetcher on a wrong path emits a short burst of
		// off-path work, then either idles until the (critical) branch
		// resolves early, or — for a non-critical branch whose resolution
		// must wait for the in-order stream — dies on a Critical Uop Cache
		// miss and triggers the §3.6 mode exit.
		if c.critWPEmitted >= 2*c.cfg.Width {
			if !c.critWPCritBr {
				c.beginCDFExit()
			}
			return
		}
		c.emitWrongPath(true)
		c.critWPEmitted += c.cfg.Width
		return
	}
	// Structural limits: DBQ space for the block's branch, and room in the
	// critical instruction buffer.
	if c.dbq.len() >= c.cfg.CDF.DBQSize || c.critQ.len() >= 4*c.cfg.Width {
		return
	}

	rec := c.strm.At(c.critScanSeq)
	if rec == nil {
		c.beginCDFExit()
		return
	}
	dyn := &rec.dyn
	if dyn.Index != 0 {
		panic(errInternal("critical fetch not block-aligned at seq %d (B%d[%d])", c.critScanSeq, dyn.BlockID, dyn.Index))
	}
	blockPC := c.prg.BlockPC(dyn.BlockID)
	tr, ok := c.crit.cuc.Lookup(blockPC)
	if !ok {
		// §3.6 exit condition (a): Critical Uop Cache miss.
		c.beginCDFExit()
		return
	}

	blk := c.prg.Blocks[dyn.BlockID]
	blen := len(blk.Uops)

	// Emit the block's critical uops.
	for i := 0; i < blen; i++ {
		pos := c.critScanSeq + uint64(i)
		r := c.strm.At(pos)
		if r == nil {
			c.critScanSeq = pos
			c.beginCDFExit()
			return
		}
		if i < 64 && tr.Mask&(1<<uint(i)) != 0 {
			e := c.pool.get()
			e.seq, e.dyn, e.op = pos, &r.dyn, r.dyn.U.Op
			e.critical, e.fetchedInCDF = true, true
			e.dstPhys, e.prevCrit, e.prevReg, e.src1, e.src2 = -1, -1, -1, -1, -1
			r.fetchedCritical = true
			r.critEntry = e
			r.epoch = c.cdfEpoch
			r.markedCritical = true
			c.work = true
			c.critQ.push(fqItem{e: e, at: c.now + uint64(c.cfg.CritDecodeLat)})
			c.st.CriticalUopsFetched++
			if c.tracer != nil {
				c.traceEvent("fetch", e, "critical "+e.op.String())
			}
		}
	}

	// Multi-line traces take extra cycles to read out.
	if tr.Lines > 1 {
		c.critStallUntil = c.now + uint64(tr.Lines-1)
	}

	// Block-ending control flow.
	lastPos := c.critScanSeq + uint64(blen) - 1
	lastRec := c.strm.At(lastPos)
	if lastRec == nil {
		c.beginCDFExit()
		return
	}
	last := &lastRec.dyn
	if last.U.Op == isa.OpHalt {
		c.critScanSeq = lastPos + 1
		c.beginCDFExit()
		return
	}
	if last.U.Op.IsBranch() {
		pr := &c.pr
		c.pred.Predict(last.U.Op, last.PC, retContinuationPC(c.prg, last), pr)
		if pr.Cond {
			c.st.CondBranches++
		}
		c.pred.Update(last.U.Op, last.PC, last.Taken, last.NextPC, pr)

		wrong := pr.Taken != last.Taken ||
			(last.Taken && (!pr.TargetHit || pr.Target != last.NextPC))
		target := pr.Target
		if !pr.Taken {
			target = last.PC + 8
		}
		c.dbq.push(dbqEntry{seq: lastPos, taken: pr.Taken, target: target, wrong: wrong})

		if ce := lastRec.critEntry; wrong && lastRec.fetchedCritical && lastRec.epoch == c.cdfEpoch && ce != nil && ce.seq == lastPos {
			ce.mispredict = true
		}
		if wrong {
			// Critical fetch proceeds down the wrong path (modelled) until
			// the branch resolves — early if the branch itself is critical.
			brCritical := blen-1 < 64 && tr.Mask&(1<<uint(blen-1)) != 0
			c.critScanSeq = lastPos + 1
			c.startCritWrongPath(lastPos, brCritical)
			return
		}
	}
	c.critScanSeq = lastPos + 1
}

// enterCDF begins CDF mode with the critical stream starting at seq.
func (c *Core) enterCDF(seq uint64) {
	c.cdfOn = true
	c.cdfExitPending = false
	c.cdfEntrySeq = seq
	c.critScanSeq = seq
	c.cdfEpoch++
	c.rf.clearPoison()
	c.st.CDFEntries++
	c.work = true
	if c.tracer != nil {
		c.traceMode(fmt.Sprintf("enter CDF mode at seq %d", seq))
	}
	for _, p := range c.partitions() {
		if p != nil {
			p.SetDesired(p.Total * 3 / 4)
		}
	}
}

// beginCDFExit stops the critical fetcher; the mode drains and finalizes
// once the regular stream catches up (§3.6 "Exiting CDF mode").
func (c *Core) beginCDFExit() {
	if c.cdfExitPending {
		return
	}
	c.cdfExitPending = true
	for _, p := range c.partitions() {
		if p != nil {
			p.SetDesired(0)
		}
	}
}

// maybeFinalizeCDFExit completes a pending exit once the regular stream has
// consumed every critically-fetched position.
func (c *Core) maybeFinalizeCDFExit() {
	if !c.cdfOn || !c.cdfExitPending {
		return
	}
	if c.regNextSeq < c.critScanSeq {
		return
	}
	if c.cmq.len() != 0 || c.critQ.len() != 0 {
		return
	}
	c.exitCDFNow()
}

// exitCDFNow drops all CDF mode state immediately (violations, regular-mode
// branch recovery, or a completed drain).
func (c *Core) exitCDFNow() {
	c.work = true
	c.cdfOn = false
	c.cdfExitPending = false
	c.critWPActive = false
	c.rf.dropCritRAT()
	c.rf.clearPoison()
	c.dbq.clear()
	c.cmq.clear()
	// Critical-queue entries never reached rename; recycle them and clear
	// their stream records so a post-exit refetch starts clean.
	for c.critQ.len() > 0 {
		it := c.critQ.popHead()
		c.clearStreamCrit(it.e)
		c.pool.put(it.e)
	}
	c.cdfEpoch++
	c.st.CDFExits++
	c.traceMode("exit CDF mode")
}

// --- wrong-path address synthesis ---

// wpLines is the wrong-path address model: a ring of recent demand-load
// lines and a xorshift generator drawing from it. The core and the warmer
// each own one, with their own seeds.
type wpLines struct {
	rng   uint64
	lines [64]uint64
	n     int // lines noted so far
}

// next advances the generator and returns its new state.
func (w *wpLines) next() uint64 {
	w.rng ^= w.rng << 13
	w.rng ^= w.rng >> 7
	w.rng ^= w.rng << 17
	return w.rng
}

// note remembers a demand load's line.
func (w *wpLines) note(line uint64) {
	w.lines[w.n%len(w.lines)] = line
	w.n++
}

// pick returns a random recently noted line; before the first note it
// returns false without advancing the generator. The runahead engine bases
// its wrong chains' addresses on it.
func (w *wpLines) pick() (uint64, bool) {
	n := min(w.n, len(w.lines))
	if n == 0 {
		return 0, false
	}
	return w.lines[w.next()%uint64(n)], true
}

// draw picks a plausible wrong-path load line: usually a recent line
// (wrong-path code mostly re-reads warm data and hits the caches),
// occasionally — one draw in four while *budget lasts, each spending one
// unit — a novel line within 2048 lines of it, which misses and generates
// the wrong-path DRAM traffic Fig. 15 accounts for.
func (w *wpLines) draw(budget *int) (uint64, bool) {
	base, ok := w.pick()
	if !ok || *budget <= 0 || w.rng&3 != 0 {
		return base, ok
	}
	*budget--
	line := int64(base) + int64(w.rng>>32)%4097 - 2048
	if line < 0 {
		return base, true
	}
	return uint64(line), true
}

// synthWrongPathAddr produces the address of a modelled wrong-path load
// (see wpLines.draw), drawing on the current episode's miss budget.
func (c *Core) synthWrongPathAddr() uint64 {
	line, ok := c.wp.draw(&c.wpMissBudget)
	if !ok {
		return 0x100000
	}
	return line * c.cfg.Mem.LineBytes
}
