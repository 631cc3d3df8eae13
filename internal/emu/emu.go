package emu

import (
	"fmt"
	"strings"

	"cdf/internal/isa"
	"cdf/internal/prog"
)

// DynUop is one dynamic (executed) uop on the correct path, with everything
// the timing model needs resolved: the effective address for memory ops, the
// branch outcome and successor, and the value loaded/stored (for debugging
// and trace dumps; the timing model itself only uses addresses).
type DynUop struct {
	Seq     uint64 // dynamic sequence number, starting at 0
	PC      uint64
	BlockID int // static basic block
	Index   int // index within the block
	U       isa.Uop

	Addr  uint64 // effective address (memory ops only)
	Value int64  // value loaded or stored (memory ops only)

	// DstValue is the value architecturally written to U.Dst (dest-writing
	// uops only; equals Value for loads). The differential oracle compares
	// it against an independently stepped emulator at retire.
	DstValue int64

	Taken     bool   // branch outcome (branches only)
	NextPC    uint64 // PC of the next correct-path uop (0 if program halted)
	NextBlock int    // block of the next correct-path uop (-1 if halted)
	Last      bool   // true for the final uop (halt)
}

// IsBranch reports whether the dynamic uop is a branch.
func (d *DynUop) IsBranch() bool { return d.U.Op.IsBranch() }

// Emulator executes a program architecturally, one uop per Step.
type Emulator struct {
	Prog *prog.Program
	Regs [isa.NumRegs]int64
	Mem  *Memory

	blockID  int
	uopIdx   int
	retStack []int
	halted   bool
	seq      uint64
}

// New returns an emulator positioned at p's entry block. mem may be nil, in
// which case a fresh empty memory is used.
func New(p *prog.Program, mem *Memory) *Emulator {
	if mem == nil {
		mem = NewMemory()
	}
	return &Emulator{Prog: p, Mem: mem, blockID: p.Entry}
}

// Halted reports whether the program has executed its halt uop.
func (e *Emulator) Halted() bool { return e.halted }

// Clone returns an independent deep copy of the emulator at its current
// architectural state and position. Sampled simulation clones the
// fast-forwarding master at each checkpoint; the clone seeds the interval
// core's oracle stream while the master keeps advancing.
func (e *Emulator) Clone() *Emulator {
	c := *e
	c.Mem = e.Mem.Clone()
	c.retStack = append([]int(nil), e.retStack...)
	return &c
}

// Executed returns the number of dynamic uops executed so far.
func (e *Emulator) Executed() uint64 { return e.seq }

// ResetSeq restarts dynamic sequence numbering at zero without moving the
// machine. A sampled interval renumbers its checkpoint clones so stream
// positions, commit effects and the differential oracle all agree that the
// interval's first uop is seq 0.
func (e *Emulator) ResetSeq() { e.seq = 0 }

// Step executes the next uop and fills *d with its dynamic record. It
// returns false if the program has already halted.
func (e *Emulator) Step(d *DynUop) bool {
	if e.halted {
		return false
	}
	blk := e.Prog.Blocks[e.blockID]
	u := blk.Uops[e.uopIdx]

	// Field writes rather than a composite literal: the literal builds a
	// ~100-byte temporary and duffcopies it into *d on every step, which
	// shows up in fast-forward profiles.
	d.Seq = e.seq
	d.PC = e.Prog.PC(e.blockID, e.uopIdx)
	d.BlockID = e.blockID
	d.Index = e.uopIdx
	d.U = u
	d.Addr = 0
	d.Value = 0
	d.DstValue = 0
	d.Taken = false
	d.NextPC = 0
	d.NextBlock = 0
	d.Last = false
	e.seq++

	src1, src2 := int64(0), int64(0)
	if u.Src1.Valid() {
		src1 = e.Regs[u.Src1]
	}
	if u.Src2.Valid() {
		src2 = e.Regs[u.Src2]
	}

	// Default successor: next uop in this block, else fallthrough block.
	nextBlock, nextIdx := e.blockID, e.uopIdx+1
	advanceSequential := func() {
		if nextIdx >= len(blk.Uops) {
			nextBlock = blk.Fallthrough
			nextIdx = 0
		}
	}

	switch {
	case u.Op == isa.OpHalt:
		e.halted = true
		d.Last = true
		d.NextBlock = -1
		return true

	case u.Op == isa.OpLoad:
		addr := uint64(src1 + u.Imm)
		d.Addr = addr
		d.Value = e.Mem.Read64(addr)
		d.DstValue = d.Value
		e.Regs[u.Dst] = d.Value
		advanceSequential()

	case u.Op == isa.OpStore:
		addr := uint64(src1 + u.Imm)
		d.Addr = addr
		d.Value = src2
		e.Mem.Write64(addr, src2)
		advanceSequential()

	case u.Op.IsCondBranch():
		d.Taken = isa.BranchTaken(u.Op, src1, src2)
		if d.Taken {
			nextBlock, nextIdx = u.Target, 0
		} else {
			advanceSequential()
		}

	case u.Op == isa.OpJmp:
		d.Taken = true
		nextBlock, nextIdx = u.Target, 0

	case u.Op == isa.OpCall:
		d.Taken = true
		e.retStack = append(e.retStack, blk.Fallthrough)
		nextBlock, nextIdx = u.Target, 0

	case u.Op == isa.OpRet:
		d.Taken = true
		if len(e.retStack) == 0 {
			// Ret with an empty stack halts; kernels never do this, but
			// keep the emulator total.
			e.halted = true
			d.Last = true
			d.NextBlock = -1
			return true
		}
		nextBlock = e.retStack[len(e.retStack)-1]
		e.retStack = e.retStack[:len(e.retStack)-1]
		nextIdx = 0

	default:
		// ALU class (OpNop has no destination).
		if u.Dst.Valid() {
			d.DstValue = isa.EvalALU(u.Op, src1, src2, u.Imm)
			e.Regs[u.Dst] = d.DstValue
		}
		advanceSequential()
	}

	if nextBlock < 0 {
		// Fell off the end of a block with no fallthrough: structurally
		// impossible for validated programs.
		panic(fmt.Sprintf("emu: fell off block B%d of %q", e.blockID, e.Prog.Name))
	}
	e.blockID, e.uopIdx = nextBlock, nextIdx
	d.NextBlock = nextBlock
	d.NextPC = e.Prog.PC(nextBlock, nextIdx)
	return true
}

// ArchState is a point-in-time copy of the emulator's architectural state:
// the register file plus the execution position. It is what divergence
// reports carry as the reference-machine side of the diff. Data memory is
// not captured (it is unbounded); store divergences are caught at the store
// itself via address/data comparison.
type ArchState struct {
	Seq     uint64 // dynamic uops executed
	BlockID int
	Index   int
	Halted  bool
	Regs    [isa.NumRegs]int64
}

// ArchState captures the emulator's current architectural state.
func (e *Emulator) ArchState() ArchState {
	return ArchState{
		Seq:     e.seq,
		BlockID: e.blockID,
		Index:   e.uopIdx,
		Halted:  e.halted,
		Regs:    e.Regs,
	}
}

// String renders the state compactly (registers holding zero are elided).
func (a ArchState) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "seq %d at B%d[%d] halted=%v", a.Seq, a.BlockID, a.Index, a.Halted)
	for r := 0; r < isa.NumRegs; r++ {
		if a.Regs[r] != 0 {
			fmt.Fprintf(&sb, " %s=%d", isa.Reg(r), a.Regs[r])
		}
	}
	return sb.String()
}

// Run executes up to max uops (all remaining if max <= 0) and returns the
// number executed. It is used by tests and workload self-checks.
func (e *Emulator) Run(max uint64) uint64 {
	var d DynUop
	n := uint64(0)
	for (max <= 0 || n < max) && e.Step(&d) {
		n++
	}
	return n
}
