// Package stats collects simulation counters: pipeline activity, memory
// hierarchy traffic, branch behaviour, MLP, ROB-occupancy samples (Fig. 1),
// and CDF/PRE mechanism activity. Every figure in the evaluation is computed
// from these counters.
package stats

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"unsafe"
)

// Stats holds all counters for one simulation run. Each field is the single
// declaration of its counter: the stat tag gives its report name, and
// ",idle" marks a counter that a provably idle cycle may move (the idle-skip
// whitelist, DESIGN.md §9). Merge, DeltaSince, AddDelta and Table loop over
// the fields, so a new counter needs only its field; init panics unless
// every field is a tagged uint64.
type Stats struct {
	// Pipeline.
	Cycles          uint64 `stat:"cycles,idle"`
	RetiredUops     uint64 `stat:"retired_uops"`
	RetiredLoads    uint64 `stat:"retired_loads"`
	RetiredStores   uint64 `stat:"retired_stores"`
	RetiredBranches uint64 `stat:"retired_branches"`
	FetchedUops     uint64 `stat:"fetched_uops"`
	FlushedUops     uint64 `stat:"flushed_uops"`

	// Branches.
	CondBranches      uint64 `stat:"cond_branches"`
	BranchMispredicts uint64 `stat:"branch_mispredicts"`
	BTBMisses         uint64 `stat:"btb_misses"`

	FetchStallCycles uint64 `stat:"fetch_stall_cycles,idle"`

	// Frontend instruction supply (DESIGN.md §13). The three stall-split
	// counters attribute each FetchStallCycles tick to its cause; the rest
	// track the FDIP prefetcher and shadow-branch decoding.
	FetchStallIMissCycles    uint64 `stat:"fetch_stall_imiss,idle"`
	FetchStallBTBCycles      uint64 `stat:"fetch_stall_btb,idle"`
	FetchStallRedirectCycles uint64 `stat:"fetch_stall_redirect,idle"`
	FTQOccupancySum          uint64 `stat:"ftq_occupancy_sum,idle"` // FTQ entries summed over cycles with FDIP on
	L1IPrefetches            uint64 `stat:"l1i_prefetches"`
	L1IPrefetchUseful        uint64 `stat:"l1i_prefetch_useful"`
	L1IPrefetchLate          uint64 `stat:"l1i_prefetch_late"`
	ShadowBTBInserts         uint64 `stat:"shadow_btb_inserts"`
	ShadowBTBHits            uint64 `stat:"shadow_btb_hits"`

	// Stalls (cycles during which rename could not allocate).
	ROBFullCycles uint64 `stat:"rob_full_cycles,idle"`
	RSFullCycles  uint64 `stat:"rs_full_cycles,idle"`
	LQFullCycles  uint64 `stat:"lq_full_cycles,idle"`
	SQFullCycles  uint64 `stat:"sq_full_cycles,idle"`
	// FullWindowStallCycles counts cycles with the ROB full and the head
	// uop waiting on memory — the paper's "full window stall".
	FullWindowStallCycles uint64 `stat:"full_window_stall_cycles,idle"`

	// Memory hierarchy.
	L1IHits          uint64 `stat:"l1i_hits"`
	L1IMisses        uint64 `stat:"l1i_misses"`
	L1DHits          uint64 `stat:"l1d_hits"`
	L1DMisses        uint64 `stat:"l1d_misses"`
	LLCHits          uint64 `stat:"llc_hits"`
	LLCMisses        uint64 `stat:"llc_misses"`
	DRAMReads        uint64 `stat:"dram_reads"`
	DRAMWrites       uint64 `stat:"dram_writes"`
	WritebacksL1     uint64 `stat:"writebacks_l1"`
	WritebacksLLC    uint64 `stat:"writebacks_llc"`
	PrefetchesIssued uint64 `stat:"prefetches_issued"`
	PrefetchesUseful uint64 `stat:"prefetches_useful"`
	WrongPathLoads   uint64 `stat:"wrong_path_loads"`

	// MLP: sum of outstanding LLC-missing demand loads over cycles where at
	// least one is outstanding.
	mlpSum    uint64 `stat:"mlp_sum,idle"`
	mlpCycles uint64 `stat:"mlp_cycles,idle"`

	// Fig. 1: ROB occupancy sampled during full-window stalls.
	StallROBCritical    uint64 `stat:"stall_rob_critical,idle"`
	StallROBNonCritical uint64 `stat:"stall_rob_noncritical,idle"`
	StallROBSamples     uint64 `stat:"stall_rob_samples,idle"`

	// CDF mechanism.
	CDFModeCycles        uint64 `stat:"cdf_mode_cycles,idle"`
	CDFEntries           uint64 `stat:"cdf_entries"`
	CDFExits             uint64 `stat:"cdf_exits"`
	CriticalUopsFetched  uint64 `stat:"critical_uops_fetched"`
	CriticalUopsRetired  uint64 `stat:"critical_uops_retired"`
	TracesInstalled      uint64 `stat:"traces_installed"`
	FillBufferWalks      uint64 `stat:"fill_buffer_walks"`
	WalksRejectedSparse  uint64 `stat:"walks_rejected_sparse"`
	WalksRejectedDense   uint64 `stat:"walks_rejected_dense"`
	DependenceViolations uint64 `stat:"dependence_violations"`
	MemOrderViolations   uint64 `stat:"mem_order_violations"`
	CUCHits              uint64 `stat:"cuc_hits"`
	CUCMisses            uint64 `stat:"cuc_misses"`
	PartitionGrows       uint64 `stat:"partition_grows"`
	PartitionShrinks     uint64 `stat:"partition_shrinks"`

	// PRE mechanism.
	RunaheadIntervals  uint64 `stat:"runahead_intervals"`
	RunaheadCycles     uint64 `stat:"runahead_cycles"`
	RunaheadUops       uint64 `stat:"runahead_uops"`
	RunaheadPrefetches uint64 `stat:"runahead_prefetches"`
}

// numCounters is the number of counters in Stats (all fields are uint64).
const numCounters = int(unsafe.Sizeof(Stats{}) / 8)

// counter is one Stats field's metadata, parsed from its stat tag.
type counter struct {
	name string
	idle bool // an idle cycle may move it (DeltaSince's whitelist)
}

var (
	counterTab [numCounters]counter // by field index
	idleIdx    []int                // indices of the idle counters
)

func init() {
	typ := reflect.TypeOf(Stats{})
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		name, opt, _ := strings.Cut(f.Tag.Get("stat"), ",")
		if f.Type.Kind() != reflect.Uint64 || name == "" || (opt != "" && opt != "idle") {
			panic(fmt.Sprintf("stats: field %s must be a uint64 tagged `stat:\"name\"` or `stat:\"name,idle\"`", f.Name))
		}
		counterTab[i] = counter{name: name, idle: opt == "idle"}
		if opt == "idle" {
			idleIdx = append(idleIdx, i)
		}
	}
}

// counters views s as its array of counters, in field order.
func (s *Stats) counters() *[numCounters]uint64 {
	return (*[numCounters]uint64)(unsafe.Pointer(s))
}

// Merge adds every counter of o into s. Sampled simulation merges each
// measured interval's Stats into the run total.
func (s *Stats) Merge(o *Stats) {
	a, b := s.counters(), o.counters()
	for i := range a {
		a[i] += b[i]
	}
}

// DeltaSince reports whether the change from prev to s is confined to the
// idle counters, and writes that change into d's idle counters (d's other
// counters are not touched). The event-driven idle skip (DESIGN.md §9)
// observes one quiet cycle this way and replays its delta with AddDelta
// instead of simulating the following idle cycles; any movement in another
// counter means the cycle did work.
func (s *Stats) DeltaSince(prev, d *Stats) bool {
	// Masked equality: overwrite the idle counters of a copy of prev with
	// s's values; every other counter must already match (Stats is all
	// uint64, so struct equality is exact).
	masked := *prev
	m, cur, old, dc := masked.counters(), s.counters(), prev.counters(), d.counters()
	for _, i := range idleIdx {
		m[i] = cur[i]
		dc[i] = cur[i] - old[i]
	}
	return masked == *s
}

// AddDelta adds d's idle counters, scaled by k cycles, to s.
func (s *Stats) AddDelta(d *Stats, k uint64) {
	a, dc := s.counters(), d.counters()
	for _, i := range idleIdx {
		a[i] += dc[i] * k
	}
}

// TickMLP records one cycle with n outstanding LLC-missing demand loads.
func (s *Stats) TickMLP(n int) {
	if n > 0 {
		s.mlpSum += uint64(n)
		s.mlpCycles++
	}
}

// MLP returns the average number of outstanding LLC misses over cycles with
// at least one outstanding (the paper's MLP metric).
func (s *Stats) MLP() float64 {
	if s.mlpCycles == 0 {
		return 0
	}
	return float64(s.mlpSum) / float64(s.mlpCycles)
}

// SampleStallROB records a Fig.-1 style sample: how many ROB entries hold
// critical vs non-critical uops during a full-window stall cycle.
func (s *Stats) SampleStallROB(critical, nonCritical int) {
	s.StallROBCritical += uint64(critical)
	s.StallROBNonCritical += uint64(nonCritical)
	s.StallROBSamples++
}

// StallROBCriticalFrac returns the average fraction of ROB entries holding
// critical-path uops during full-window stalls.
func (s *Stats) StallROBCriticalFrac() float64 {
	tot := s.StallROBCritical + s.StallROBNonCritical
	if tot == 0 {
		return 0
	}
	return float64(s.StallROBCritical) / float64(tot)
}

// IPC returns retired uops per cycle.
func (s *Stats) IPC() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.RetiredUops) / float64(s.Cycles)
}

// BranchMPKI returns branch mispredictions per kilo-instruction.
func (s *Stats) BranchMPKI() float64 {
	if s.RetiredUops == 0 {
		return 0
	}
	return 1000 * float64(s.BranchMispredicts) / float64(s.RetiredUops)
}

// LLCMPKI returns LLC misses per kilo-instruction.
func (s *Stats) LLCMPKI() float64 {
	if s.RetiredUops == 0 {
		return 0
	}
	return 1000 * float64(s.LLCMisses) / float64(s.RetiredUops)
}

// L1IMPKI returns L1I misses per kilo-instruction (the frontend-boundness
// metric the instruction-supply experiments report).
func (s *Stats) L1IMPKI() float64 {
	if s.RetiredUops == 0 {
		return 0
	}
	return 1000 * float64(s.L1IMisses) / float64(s.RetiredUops)
}

// FTQOccupancy returns the average fetch-target-queue occupancy over the
// run (zero without FDIP).
func (s *Stats) FTQOccupancy() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.FTQOccupancySum) / float64(s.Cycles)
}

// MemTraffic returns total DRAM transfers (reads + writes), the paper's
// memory traffic metric (Fig. 15).
func (s *Stats) MemTraffic() uint64 { return s.DRAMReads + s.DRAMWrites }

// Table returns every counter plus the derived metrics as name-sorted
// name/value rows for reports.
func (s *Stats) Table() []Row {
	c := s.counters()
	rows := make([]Row, 0, numCounters+8) // counters + the derived rows below
	for i, m := range counterTab {
		rows = append(rows, Row{m.name, float64(c[i])})
	}
	rows = append(rows,
		Row{"ipc", s.IPC()},
		Row{"branch_mpki", s.BranchMPKI()},
		Row{"l1i_mpki", s.L1IMPKI()},
		Row{"llc_mpki", s.LLCMPKI()},
		Row{"ftq_avg_occupancy", s.FTQOccupancy()},
		Row{"mem_traffic", float64(s.MemTraffic())},
		Row{"mlp", s.MLP()},
		Row{"stall_rob_crit_frac", s.StallROBCriticalFrac()},
	)
	sort.Slice(rows, func(i, j int) bool { return rows[i].Name < rows[j].Name })
	return rows
}

// Row is one name/value pair in a stats report.
type Row struct {
	Name  string
	Value float64
}

// String renders the full counter table.
func (s *Stats) String() string {
	var sb strings.Builder
	for _, r := range s.Table() {
		fmt.Fprintf(&sb, "%-28s %14.3f\n", r.Name, r.Value)
	}
	return sb.String()
}
