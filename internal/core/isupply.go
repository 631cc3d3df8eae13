package core

import (
	"cdf/internal/front"
	"cdf/internal/mem/prefetch"
)

// This file is the core side of the instruction-supply subsystem
// (internal/front; DESIGN.md §13): the per-core frontend engine that runs
// the FDIP walker and FTQ issue once per cycle and applies shadow-branch
// decodes with a one-cycle delay, plus the fetch stage's timed L1I access
// and the attribution of fetch stalls to their cause, which every machine
// uses. The engine is built only when cfg.Front.Enabled is set.

// Fetch-stall causes (Core.fetchStallReason). The split counters let
// reports separate frontend-bound cycles (I-miss, BTB) from the flush
// redirects every machine pays.
const (
	stallNone uint8 = iota
	stallIMiss
	stallBTB
	stallRedirect
)

// maxShadowPending bounds the per-cycle shadow-decode queue. Fetch touches
// at most two distinct lines per cycle, so two slots plus slack suffices.
const maxShadowPending = 4

// frontEng is the per-core instruction-supply engine. The throttle, shadow
// BTB, and decoder are owned by the Warmer and shared across sampled
// intervals (like the branch predictor); the walker and the shadow-decode
// queue are per-core and start empty.
type frontEng struct {
	fdip   *front.FDIP      // nil unless cfg.Front.FDIP
	thr    *prefetch.FDP    // nil unless cfg.Front.FDIP
	shadow *front.ShadowBTB // nil unless cfg.Front.ShadowBTB
	dec    *front.Decoder   // nil unless cfg.Front.ShadowBTB

	// Lines fetched this cycle, decoded into the shadow BTB at the start
	// of the next (the one-cycle decode delay: a prediction made in the
	// cycle a line first arrives cannot use that line's shadow branches).
	pendShadow  [maxShadowPending]uint64
	pendShadowN int
}

// newFrontEng wires the engine for a core, adopting the warmer's persistent
// structures.
func newFrontEng(cfg Config, w *Warmer, c *Core) *frontEng {
	fr := &frontEng{thr: w.frontThr, shadow: w.frontShadow, dec: w.frontDec}
	if cfg.Front.FDIP {
		fr.fdip = front.NewFDIP(cfg.Front, cfg.Mem.LineBytes, c, c.pred.BTB, fr.shadow)
	}
	return fr
}

// frontSig is the engine's contribution to the idle-skip signature.
type frontSig struct {
	fdip        front.State
	degree      int
	issued      uint64
	useful      uint64
	late        uint64
	pendShadow  [maxShadowPending]uint64
	pendShadowN int
}

func (c *Core) frontSigNow() frontSig {
	var s frontSig
	if c.fr == nil {
		return s
	}
	if c.fr.fdip != nil {
		s.fdip = c.fr.fdip.Sig()
		s.degree = c.fr.thr.Degree()
		s.issued = c.fr.thr.TotalIssued
		s.useful = c.fr.thr.TotalUseful
		s.late = c.fr.thr.TotalLate
	}
	s.pendShadow = c.fr.pendShadow
	s.pendShadowN = c.fr.pendShadowN
	return s
}

// frontCycle runs the decoupled frontend for one cycle: apply last cycle's
// shadow decodes, account FTQ occupancy, advance the walker, and drain the
// FTQ into L1I prefetches under the throttle's degree. Called at the start
// of fetch() when the subsystem is enabled.
func (c *Core) frontCycle() {
	fr := c.fr

	if fr.pendShadowN > 0 {
		for i := 0; i < fr.pendShadowN; i++ {
			for _, sb := range fr.dec.Line(fr.pendShadow[i]) {
				fr.shadow.Insert(sb)
				c.st.ShadowBTBInserts++
			}
		}
		fr.pendShadowN = 0
		c.work = true
	}

	if fr.fdip == nil {
		return
	}
	c.st.FTQOccupancySum += uint64(fr.fdip.Len())

	// The walker pauses while regular fetch is on a modelled wrong path:
	// a real FTQ would be chasing the mispredicted path, not prefetching
	// the correct one.
	if !c.regWPActive {
		if fr.fdip.Advance(c.regSeq) {
			c.work = true
		}
	}

	for n := 0; n < fr.thr.Degree(); {
		line, ok := fr.fdip.Peek()
		if !ok {
			break
		}
		issued, full := c.hier.PrefetchInst(line, c.now)
		if full {
			break // no L1I MSHR free; retry when a fill completes
		}
		fr.fdip.Pop()
		c.work = true
		if issued {
			fr.thr.OnIssued(1)
			n++
		}
	}
}

// fetchLine is regFetch's I-cache access for a newly touched line, on
// every machine. With the instruction-supply engine it also queues the
// line for shadow decoding, and PerfectL1I keeps the line-tracking
// structural accounting but never stalls or touches the hierarchy. It
// credits FDIP prefetches to the throttle and reports whether fetch must
// stall on an I-miss. Only FDIP's PrefetchInst marks L1I lines, so a
// credit implies the engine and its throttle exist.
func (c *Core) fetchLine(pc, line uint64) (stall bool) {
	c.lastFetchLine, c.haveFetchLine = line, true
	if c.fr != nil {
		c.frontNoteLine(line)
		if c.cfg.Front.PerfectL1I {
			return false
		}
	}
	done, useful, late := c.hier.FetchInst(pc, c.now)
	if useful {
		c.st.L1IPrefetchUseful++
		c.fr.thr.OnUseful()
	}
	if late {
		c.st.L1IPrefetchLate++
		c.fr.thr.OnLate()
	}
	if done > c.now+uint64(c.cfg.Mem.L1ILatency) {
		c.fetchStallUntil = done
		c.fetchStallReason = stallIMiss
		return true
	}
	return false
}

// frontNoteLine queues a newly fetched line for shadow decoding next cycle.
func (c *Core) frontNoteLine(line uint64) {
	fr := c.fr
	if fr.shadow == nil || fr.pendShadowN == maxShadowPending {
		return
	}
	fr.pendShadow[fr.pendShadowN] = line
	fr.pendShadowN++
	// No work flag here: the caller (regFetch) has already either pushed a
	// fetched uop or set a stall, both of which change the signature; the
	// queue itself is part of the signature too.
}

// tickFetchStall attributes one stalled fetch cycle to its cause.
func (c *Core) tickFetchStall() {
	c.st.FetchStallCycles++
	switch c.fetchStallReason {
	case stallIMiss:
		c.st.FetchStallIMissCycles++
	case stallBTB:
		c.st.FetchStallBTBCycles++
	case stallRedirect:
		c.st.FetchStallRedirectCycles++
	}
}
