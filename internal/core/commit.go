package core

import (
	"fmt"

	"cdf/internal/isa"
)

// CommitEffect is the architectural effect of one retiring uop: everything
// the program's semantics say the uop does, and nothing about how the
// pipeline got there. The differential oracle (internal/oracle) compares
// each effect against an independently stepped functional emulator.
//
// Only correct-path retirement produces effects: wrong-path entries never
// reach retireEntry (retire stalls on them until the mispredicted branch
// flushes them), and CDF mode retires through the same program-ordered
// oldestROBHead walk as baseline. The effect stream is therefore exactly
// the architectural instruction sequence regardless of mode — which is the
// property the oracle exists to enforce.
type CommitEffect struct {
	Seq      uint64 // dynamic sequence number
	PC       uint64
	Op       isa.Op
	Critical bool // retired from the critical section (diagnostic only)

	HasDst   bool
	Dst      isa.Reg
	DstValue int64 // value architecturally written to Dst

	Addr uint64 // effective address (memory ops)
	Data int64  // value stored (stores)

	Taken  bool   // branch direction (branches)
	NextPC uint64 // committed successor PC (branches)

	Halt bool // this uop ends the program
}

// String renders the effect compactly for divergence reports.
func (ce CommitEffect) String() string {
	s := fmt.Sprintf("seq %d pc %#x %s", ce.Seq, ce.PC, ce.Op)
	if ce.HasDst {
		s += fmt.Sprintf(" %s<-%d", ce.Dst, ce.DstValue)
	}
	if ce.Op.IsMem() {
		s += fmt.Sprintf(" addr %#x", ce.Addr)
	}
	if ce.Op.IsStore() {
		s += fmt.Sprintf(" data %d", ce.Data)
	}
	if ce.Op.IsBranch() {
		s += fmt.Sprintf(" taken=%v next %#x", ce.Taken, ce.NextPC)
	}
	if ce.Halt {
		s += " halt"
	}
	return s
}

// SetCommitCheck installs a retire-time hook: fn is called with each uop's
// architectural effect immediately before the uop retires. A non-nil error
// stops the machine with StopDivergence before any retire-side bookkeeping
// runs; Err returns the error afterwards.
func (c *Core) SetCommitCheck(fn func(CommitEffect) error) { c.commitCheck = fn }

// SetCommitFault installs a fault-injection hook that may mutate each
// effect before the commit check sees it. It exists so tests can plant a
// known-wrong commit and assert the oracle catches it; it has no effect on
// the simulation itself and must not be used outside tests.
func (c *Core) SetCommitFault(fn func(*CommitEffect)) { c.commitFault = fn }

// Err returns the commit-check error that stopped the run, if any.
func (c *Core) Err() error { return c.checkErr }

// checkCommit builds e's architectural effect and runs it through the
// fault and check hooks. It reports whether retirement may proceed.
func (c *Core) checkCommit(e *entry) bool {
	if c.commitCheck == nil {
		return true
	}
	d := e.dyn
	eff := CommitEffect{
		Seq:      e.seq,
		PC:       d.PC,
		Op:       d.U.Op,
		Critical: e.critical,
		Halt:     d.Last,
	}
	if d.U.Op.HasDst() {
		eff.HasDst = true
		eff.Dst = d.U.Dst
		eff.DstValue = d.DstValue
	}
	if d.U.Op.IsMem() {
		eff.Addr = d.Addr
	}
	if d.U.Op.IsStore() {
		eff.Data = d.Value
	}
	if d.U.Op.IsBranch() {
		eff.Taken = d.Taken
		eff.NextPC = d.NextPC
	}
	if c.commitFault != nil {
		c.commitFault(&eff)
	}
	if err := c.commitCheck(eff); err != nil {
		c.checkErr = err
		c.finish(StopDivergence)
		return false
	}
	return true
}
