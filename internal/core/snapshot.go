package core

import (
	"fmt"
	"strings"
)

// StopReason classifies how a run ended. The harness (internal/harness)
// and the cdf package thread it into results so sweep aggregation can
// refuse to fold truncated runs into geomeans.
type StopReason uint8

const (
	// StopNone: the run has not finished.
	StopNone StopReason = iota
	// StopCompleted: the program retired its final uop or the MaxRetired
	// budget was reached — the run's statistics cover the intended region.
	StopCompleted
	// StopCycleBudget: the MaxCycles backstop expired first. Statistics
	// are truncated and must not be aggregated as if complete.
	StopCycleBudget
	// StopWatchdog: the forward-progress watchdog detected a wedged
	// machine (no retirement for Config.WatchdogCycles cycles with no
	// outstanding memory operation at the ROB head).
	StopWatchdog
	// StopDivergence: the differential oracle's commit check rejected a
	// retiring uop's architectural effect; Core.Err carries the detail.
	StopDivergence
)

// String implements fmt.Stringer.
func (r StopReason) String() string {
	switch r {
	case StopNone:
		return "running"
	case StopCompleted:
		return "completed"
	case StopCycleBudget:
		return "cycle-budget"
	case StopWatchdog:
		return "watchdog"
	case StopDivergence:
		return "divergence"
	}
	return fmt.Sprintf("stop(%d)", uint8(r))
}

// Truncated reports whether the run ended before retiring its budget, so
// its statistics describe an incomplete region.
func (r StopReason) Truncated() bool {
	return r == StopCycleBudget || r == StopWatchdog || r == StopDivergence
}

// StopReason returns why the run finished (StopNone while running).
func (c *Core) StopReason() StopReason { return c.stopReason }

// HeadUop describes the program-order-oldest ROB entry in a Snapshot.
type HeadUop struct {
	Valid     bool
	Seq       uint64
	Sub       uint32
	PC        uint64
	Op        string
	State     string
	Critical  bool
	WrongPath bool
	LLCMiss   bool
	Addr      uint64
	DoneAt    uint64
}

// PartitionSnap is one dynamically partitioned window's state.
type PartitionSnap struct {
	Name    string
	CritCap int
	Total   int
}

// Snapshot is a point-in-time machine-state diagnostic: enough context to
// understand a wedged, truncated, or panicking run without re-simulating.
type Snapshot struct {
	Cycle      uint64
	Retired    uint64
	StopReason StopReason
	Mode       Mode

	// Window occupancies (entries in use).
	ROBCrit, ROBNon  int
	LQ, SQ, RS, Exec int
	ROBCap, LQCap    int
	SQCap, RSCap     int

	// Frontend state.
	FetchSeq    uint64 // next regular-fetch stream position
	FetchPC     uint64 // PC at FetchSeq (0 if not yet generated)
	CritScanSeq uint64 // next position the critical fetcher examines
	FetchQ      int
	CritQ       int
	DBQ, CMQ    int

	// CDF mechanism state.
	CDFMode        bool
	CDFExitPending bool
	CDFEpoch       uint32

	Head       HeadUop
	Partitions []PartitionSnap
}

// Snapshot captures the machine's diagnostic state. It is safe to call at
// any cycle boundary; it never advances the simulation.
func (c *Core) Snapshot() Snapshot {
	s := Snapshot{
		Cycle:      c.now,
		Retired:    c.retired,
		StopReason: c.stopReason,
		Mode:       c.cfg.Mode,

		ROBCrit: c.robCrit.len(),
		ROBNon:  c.robNon.len(),
		LQ:      c.lq.len(),
		SQ:      c.sq.len(),
		RS:      c.rsLen,
		Exec:    len(c.exec),
		ROBCap:  c.cfg.ROBSize,
		LQCap:   c.cfg.LQSize,
		SQCap:   c.cfg.SQSize,
		RSCap:   c.cfg.RSSize,

		FetchSeq:    c.regSeq,
		CritScanSeq: c.critScanSeq,
		FetchQ:      c.fetchQ.len(),
		CritQ:       c.critQ.len(),
		DBQ:         c.dbq.len(),
		CMQ:         c.cmq.len(),

		CDFMode:        c.cdfOn,
		CDFExitPending: c.cdfExitPending,
		CDFEpoch:       c.cdfEpoch,
	}
	// Peek at the next fetch PC without generating new stream positions
	// (generation runs the emulator, which a diagnostic must not do).
	if r := c.strm.peek(c.regSeq); r != nil {
		s.FetchPC = r.dyn.PC
	}
	if h := c.oldestROBHead(); h != nil {
		var pc uint64 // zero for a wrong-path slot, which has no record
		if h.dyn != nil {
			pc = h.dyn.PC
		}
		s.Head = HeadUop{
			Valid:     true,
			Seq:       h.seq,
			Sub:       h.sub,
			PC:        pc,
			Op:        h.op.String(),
			State:     h.state.String(),
			Critical:  h.critical,
			WrongPath: h.wrongPath,
			LLCMiss:   h.llcMiss,
			Addr:      h.addr,
			DoneAt:    h.doneAt,
		}
	}
	for i, p := range c.partitions() {
		if p != nil {
			s.Partitions = append(s.Partitions, PartitionSnap{partNames[i], p.CritCap, p.Total})
		}
	}
	return s
}

// String renders the snapshot as a multi-line diagnostic block.
func (s Snapshot) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "cycle %d  retired %d  mode %s  stop %s\n",
		s.Cycle, s.Retired, s.Mode, s.StopReason)
	fmt.Fprintf(&sb, "ROB %d+%d/%d  LQ %d/%d  SQ %d/%d  RS %d/%d  exec %d\n",
		s.ROBCrit, s.ROBNon, s.ROBCap, s.LQ, s.LQCap, s.SQ, s.SQCap, s.RS, s.RSCap, s.Exec)
	fmt.Fprintf(&sb, "fetch seq %d pc %#x  critScan %d  fetchQ %d critQ %d dbq %d cmq %d\n",
		s.FetchSeq, s.FetchPC, s.CritScanSeq, s.FetchQ, s.CritQ, s.DBQ, s.CMQ)
	fmt.Fprintf(&sb, "cdfMode %v exitPending %v epoch %d\n",
		s.CDFMode, s.CDFExitPending, s.CDFEpoch)
	if s.Head.Valid {
		fmt.Fprintf(&sb, "head %d.%d pc %#x %s state=%s crit=%v wp=%v llcMiss=%v addr=%#x doneAt=%d\n",
			s.Head.Seq, s.Head.Sub, s.Head.PC, s.Head.Op, s.Head.State,
			s.Head.Critical, s.Head.WrongPath, s.Head.LLCMiss, s.Head.Addr, s.Head.DoneAt)
	} else {
		sb.WriteString("head <empty ROB>\n")
	}
	for _, p := range s.Partitions {
		fmt.Fprintf(&sb, "partition %-3s crit %d / %d\n", p.Name, p.CritCap, p.Total)
	}
	return sb.String()
}

// String names the backend pipeline state of a uop.
func (u uopState) String() string {
	switch u {
	case stateWaiting:
		return "waiting"
	case stateReady:
		return "ready"
	case stateExecuting:
		return "executing"
	case stateDone:
		return "done"
	}
	return fmt.Sprintf("state(%d)", uint8(u))
}
