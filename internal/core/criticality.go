package core

import (
	"cdf/internal/cdf"
	"cdf/internal/emu"
	"cdf/internal/prog"
)

// criticality is the retire-side CDF machinery (§3.2): the Critical Count
// Tables, the Mask Cache, the Critical Uop Cache, the Fill Buffer, and the
// epoch state that schedules walks and mask decay. One instance is built
// per Warmer and adopted by pointer by every core that takes the warmer's
// structures, so functional warming and cycle-accurate retirement train
// the same tables on the same clock.
type criticality struct {
	on        bool // machinery runs (every mode but plain baseline)
	mode      Mode
	cc        cdf.Config // cfg.effectiveCDF()
	lineBytes uint64
	prg       *prog.Program

	loadCCT   *cdf.CountTable
	branchCCT *cdf.CountTable
	maskc     *cdf.MaskCache
	cuc       *cdf.UopCache
	fb        *cdf.FillBuffer

	// collecting is set while the Fill Buffer gathers an epoch's uops.
	// lastEpochAt and lastMaskRst are absolute program positions (executed
	// uops from program entry): the last walk and the last mask decay fire
	// at the same positions in a sampled run as in a continuous one.
	collecting  bool
	lastEpochAt uint64
	lastMaskRst uint64

	walk cdf.WalkResult // the last walk's result (see train)
}

func newCriticality(cfg Config, p *prog.Program) *criticality {
	cc := cfg.effectiveCDF()
	k := &criticality{
		on:        cfg.Mode != ModeBaseline || cfg.TrainCriticality,
		mode:      cfg.Mode,
		cc:        cc,
		lineBytes: cfg.Mem.LineBytes,
		prg:       p,
	}
	k.loadCCT = cdf.NewCountTable(cc.CCTEntries, cc.CCTWays,
		cc.LoadStrictMax, cc.LoadStrictThresh, cc.LoadPermMax, cc.LoadPermThresh, 1)
	k.branchCCT = cdf.NewCountTable(cc.CCTEntries, cc.CCTWays,
		cc.BranchStrictMax, cc.BranchStrictThresh, cc.BranchPermMax, cc.BranchPermThresh,
		cc.BranchMispredictWeight)
	k.maskc = cdf.NewMaskCache(cc.MaskEntries, cc.MaskWays)
	k.cuc = cdf.NewUopCache(cc.CUCLines, cc.CUCWays, cc.CUCLineUops)
	k.fb = cdf.NewFillBuffer(cc, k.maskc, k.cuc)
	return k
}

// train feeds one retired (or, while warming, executed) uop at absolute
// program position pos to the machinery: Critical Count Table updates,
// Mask Cache decay every MaskResetInterval positions, and Fill Buffer
// collection epochs — every WalkInterval positions, collect FillBufferSize
// uops and walk them. busy suspends collection while the previous walk is
// still in progress. When this uop completed an epoch it returns the
// walk's result, for the caller to charge its latency and statistics;
// otherwise nil.
//
// PRE marks only loads that cause full-window stalls, at stall onset, so
// per-uop counter updates are for the other modes.
func (k *criticality) train(d *emu.DynUop, pos uint64, llcMiss, mispredict, busy bool) *cdf.WalkResult {
	if !k.on {
		return nil
	}
	op := d.U.Op
	markBranches := k.cc.MarkCriticalBranches && k.mode != ModePRE
	if k.mode != ModePRE {
		if op.IsLoad() {
			k.loadCCT.Update(d.PC, llcMiss)
		}
		if op.IsCondBranch() && markBranches {
			k.branchCCT.Update(d.PC, mispredict)
		}
	}

	if pos-k.lastMaskRst >= k.cc.MaskResetInterval {
		k.maskc.Reset()
		k.lastMaskRst = pos
	}

	if busy {
		return nil
	}
	if !k.collecting {
		if pos-k.lastEpochAt < k.cc.WalkInterval {
			return nil
		}
		k.collecting = true
	}

	blk := k.prg.Blocks[d.BlockID]
	rec := cdf.Record{
		PC:           d.PC,
		BlockPC:      k.prg.BlockPC(d.BlockID),
		Index:        d.Index,
		BlockLen:     len(blk.Uops),
		EndsInBranch: blk.EndsInBranch(),
		Op:           op,
		Dst:          d.U.Dst,
		Src1:         d.U.Src1,
		Src2:         d.U.Src2,
	}
	if op.IsMem() {
		rec.MemLine = d.Addr / k.lineBytes
	}
	switch {
	case op.IsLoad():
		rec.Seed = k.loadCCT.Predict(d.PC)
	case op.IsCondBranch() && markBranches:
		rec.Seed = k.branchCCT.Predict(d.PC)
	}
	k.fb.Insert(rec)

	if !k.fb.Full() {
		return nil
	}
	k.walk = k.fb.Walk()
	res := &k.walk
	k.collecting = false
	k.lastEpochAt = pos

	// Dynamic counter selection (§3.2): too few instructions marked
	// critical -> switch to the permissive counters; plenty -> strict.
	switch {
	case res.Density < k.cc.DensityLo:
		k.loadCCT.UsePermissive(true)
		k.branchCCT.UsePermissive(true)
	case res.Density > k.cc.DensityHi:
		k.loadCCT.UsePermissive(false)
		k.branchCCT.UsePermissive(false)
	}
	return res
}

// trainCriticality runs the criticality machinery on retiring entry e and
// charges a completed walk: the machinery stays busy for the walk's
// latency, which also gates CDF-mode entry.
func (c *Core) trainCriticality(e *entry) {
	res := c.crit.train(e.dyn, c.posBase+c.retired, e.llcMiss, e.mispredict, c.now < c.machBusy)
	if res == nil {
		return
	}
	c.machBusy = c.now + res.Latency
	c.st.FillBufferWalks++
	c.st.TracesInstalled += uint64(res.Installs)
	if res.TooSparse {
		c.st.WalksRejectedSparse++
	}
	if res.TooDense {
		c.st.WalksRejectedDense++
	}
}
