package cdf

import (
	"cdf/internal/isa"
)

// Record is one retired uop as stored in the Fill Buffer (§3.2, Fig. 6):
// the decoded uop's register read/write sets, a tag for the memory location
// it touched, and a criticality seed bit.
type Record struct {
	PC           uint64
	BlockPC      uint64 // start PC of the uop's basic block
	Index        int    // position within the block
	BlockLen     int
	EndsInBranch bool // the uop's block ends in a branch

	Op   isa.Op
	Dst  isa.Reg
	Src1 isa.Reg
	Src2 isa.Reg

	MemLine uint64 // cache-line tag for loads/stores

	// Seed is set at insert time when the Critical Count Tables predict the
	// uop critical, or the Mask Cache already marks this block position.
	Seed bool

	// Critical is the walk's output mark.
	Critical bool
}

// WalkResult summarizes one backwards dataflow walk.
type WalkResult struct {
	Total     int
	Marked    int
	Density   float64
	Rejected  bool // density gates rejected the walk
	TooSparse bool
	TooDense  bool
	Installs  int    // single-cycle trace install operations performed
	Latency   uint64 // cycles to charge for the walk + installs
}

// FillBuffer records the last N retired uops and, when full, performs the
// backwards dataflow walk that marks the dependence chains of critical
// loads and branches (Filtered-Runahead style, §3.2 and Fig. 5), then
// collects per-basic-block critical uop traces into the Critical Uop Cache
// and accumulates masks in the Mask Cache.
type FillBuffer struct {
	cfg   Config
	buf   []Record
	masks *MaskCache
	cuc   *UopCache

	Walks          uint64
	MarkedTotal    uint64
	SeenTotal      uint64
	RejectedSparse uint64
	RejectedDense  uint64
}

// NewFillBuffer builds a fill buffer writing into masks and cuc.
func NewFillBuffer(cfg Config, masks *MaskCache, cuc *UopCache) *FillBuffer {
	return &FillBuffer{cfg: cfg, buf: make([]Record, 0, cfg.FillBufferSize), masks: masks, cuc: cuc}
}

// Len returns the number of buffered records.
func (f *FillBuffer) Len() int { return len(f.buf) }

// Reset discards any buffered records without walking them. Sampled
// simulation drops a partial collection when structure ownership moves
// between an interval core and the functional warmer.
func (f *FillBuffer) Reset() { f.buf = f.buf[:0] }

// Full reports whether the buffer holds FillBufferSize records.
func (f *FillBuffer) Full() bool { return len(f.buf) >= f.cfg.FillBufferSize }

// Insert adds a retired uop record, ORing in the Mask Cache's existing seed
// for its block position (§3.2: the shift-register mask read-out). The
// caller must not Insert when Full.
func (f *FillBuffer) Insert(r Record) {
	if !f.cfg.DisableMaskCache && !r.Seed && r.Index < 64 {
		if mask, ok := f.masks.Get(r.BlockPC); ok && mask&(1<<uint(r.Index)) != 0 {
			r.Seed = true
		}
	}
	f.buf = append(f.buf, r)
}

// Walk performs the backwards dataflow walk over the full buffer, installs
// traces (unless the density gates reject), and empties the buffer.
func (f *FillBuffer) Walk() WalkResult {
	f.Walks++
	n := len(f.buf)
	res := WalkResult{Total: n}

	// Backwards walk: from youngest to oldest, propagating criticality to
	// producers through registers and through memory (store feeding a
	// critical load).
	var critRegs uint64 // bit per architectural register
	critMem := make(map[uint64]struct{})
	for i := n - 1; i >= 0; i-- {
		r := &f.buf[i]
		crit := r.Seed
		if r.Dst.Valid() && critRegs&(1<<uint(r.Dst)) != 0 {
			crit = true
		}
		if r.Op.IsStore() {
			if _, ok := critMem[r.MemLine]; ok {
				crit = true
			}
		}
		if !crit {
			continue
		}
		r.Critical = true
		res.Marked++
		if r.Dst.Valid() {
			critRegs &^= 1 << uint(r.Dst)
		}
		if r.Src1.Valid() {
			critRegs |= 1 << uint(r.Src1)
		}
		if r.Src2.Valid() {
			critRegs |= 1 << uint(r.Src2)
		}
		if r.Op.IsLoad() {
			critMem[r.MemLine] = struct{}{}
		}
		if r.Op.IsStore() {
			delete(critMem, r.MemLine)
		}
	}

	res.Density = float64(res.Marked) / float64(max(n, 1))
	f.SeenTotal += uint64(n)
	f.MarkedTotal += uint64(res.Marked)

	// Collect per-block masks (oldest to youngest) and note each block's
	// observed successor.
	type blockAgg struct {
		mask         uint64
		blockLen     int
		endsInBranch bool
		savedNext    uint64
	}
	aggs := make(map[uint64]*blockAgg)
	order := make([]uint64, 0, 32)
	var prevBlock uint64
	var havePrev bool
	for i := 0; i < n; i++ {
		r := &f.buf[i]
		a, ok := aggs[r.BlockPC]
		if !ok {
			a = &blockAgg{blockLen: r.BlockLen, endsInBranch: r.EndsInBranch}
			aggs[r.BlockPC] = a
			order = append(order, r.BlockPC)
		}
		if r.Critical && r.Index < 64 {
			a.mask |= 1 << uint(r.Index)
		}
		// Record block transitions to learn successors.
		if havePrev && prevBlock != r.BlockPC && r.Index == 0 {
			if pa, ok := aggs[prevBlock]; ok {
				pa.savedNext = r.BlockPC
			}
		}
		prevBlock, havePrev = r.BlockPC, true
	}

	// Density gates (§3.2): reject installs outside [MinDensity, MaxDensity]
	// and remove the walk's blocks so CDF mode is not entered on them. In
	// hybrid machines the traces are kept (flagged NoEnter) so runahead can
	// still read the chains.
	noEnter := false
	if !f.cfg.DisableDensityGates && (res.Density < f.cfg.MinDensity || res.Density > f.cfg.MaxDensity) {
		res.Rejected = true
		res.TooSparse = res.Density < f.cfg.MinDensity
		res.TooDense = !res.TooSparse
		if res.TooSparse {
			f.RejectedSparse++
		} else {
			f.RejectedDense++
		}
		if !f.cfg.RejectKeepsTraces {
			for _, pc := range order {
				f.masks.Remove(pc)
				f.cuc.Remove(pc)
			}
			res.Latency = f.cfg.WalkBaseLat
			f.buf = f.buf[:0]
			return res
		}
		noEnter = true
	}

	installs := 0
	for _, pc := range order {
		a := aggs[pc]
		merged := a.mask
		if !f.cfg.DisableMaskCache {
			f.masks.Merge(pc, a.mask)
			merged, _ = f.masks.Get(pc)
		}
		t := Trace{
			BlockPC:      pc,
			Mask:         merged,
			BlockLen:     a.blockLen,
			CritCount:    popcount(merged),
			EndsInBranch: a.endsInBranch,
			SavedNext:    a.savedNext,
			NoEnter:      noEnter,
		}
		installs += f.cuc.Install(t)
	}
	res.Installs = installs
	res.Latency = f.cfg.WalkBaseLat + uint64(installs)
	f.buf = f.buf[:0]
	return res
}

func popcount(x uint64) int {
	n := 0
	for x != 0 {
		x &= x - 1
		n++
	}
	return n
}
