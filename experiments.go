package cdf

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"sort"
	"strings"

	"cdf/internal/core"
	"cdf/internal/harness"
	"cdf/internal/stats"
	"cdf/internal/sweepstore"
)

// SuiteOptions configures a whole-suite experiment.
//
// Suite experiments are failure-isolated: a benchmark whose run fails
// (panic, watchdog abort, timeout) is dropped from the returned rows and
// geomeans, and the failure is reported through the returned error (a
// *SweepError aggregating every failed run). Rows are therefore usable
// even when err != nil — callers that want all-or-nothing semantics
// should treat a non-nil error as fatal.
type SuiteOptions struct {
	// Benchmarks restricts the suite (nil = all kernels).
	Benchmarks []string

	// Base is the run-control template every case starts from: MaxUops,
	// WarmupUops, Seed, Sampling, Timeout, Paranoid, Oracle, SlowPath.
	// The experiments choose the machines, so a Base that sets a machine
	// knob (Mode, ROBSize, the frontend switches, ...) fails every case
	// with ErrMachineKnob.
	Base Options

	// Jobs bounds the worker pool running suite benchmarks in parallel
	// (0 = GOMAXPROCS). Results are deterministic regardless of Jobs:
	// each run is independently deterministic and rows keep suite order.
	Jobs int
	// Context cancels the sweep (nil = context.Background). Runs already
	// finished when the context fires are kept, so partial tables can
	// still be rendered after e.g. a SIGINT.
	Context context.Context

	// Store makes the sweep crash-safe (nil = no durability): every
	// completed case is written to the content-addressed result cache and
	// journaled — fsync'd — before the sweep moves on, and cases whose
	// verified results are already cached are served without simulating.
	// A corrupt, truncated, or code-version-stale cache entry is treated
	// as a miss and re-simulated, never trusted.
	Store *sweepstore.Store

	// Retries is the per-case retry budget for transient failures
	// (timeouts, watchdog trips, worker panics), consumed attempt by
	// attempt with capped exponential backoff. Deterministic failures —
	// an oracle divergence above all — fail fast and never consume it.
	Retries int

	// RetryBackoff overrides the backoff policy between retries (nil =
	// sweepstore defaults: 100ms base, doubling, 5s cap, half-width
	// deterministic jitter).
	RetryBackoff *sweepstore.Backoff

	// Chaos injects seeded, deterministic faults — pre-dispatch panics
	// and delays, cache-write corruption, a mid-sweep process kill — into
	// the sweep (nil = none). It exists for the -chaos smoke mode and the
	// resume-equivalence tests; injected faults may cost retries and
	// resumes but never change a row.
	Chaos *harness.Chaos
}

func (o SuiteOptions) benches() []string {
	if len(o.Benchmarks) > 0 {
		return o.Benchmarks
	}
	// The default suite is the paper's: the frontend-bound family measures
	// a bottleneck the Fig. 13–17 machines don't touch, so it would only
	// dilute their geomeans. FrontSupply selects it explicitly.
	var names []string
	for _, b := range Benchmarks() {
		if !b.Frontend {
			names = append(names, b.Name)
		}
	}
	return names
}

func (o SuiteOptions) ctx() context.Context {
	if o.Context != nil {
		return o.Context
	}
	return context.Background()
}

// ErrMachineKnob is the error every case of a suite fails with when its
// SuiteOptions.Base sets a machine knob rather than only run control.
var ErrMachineKnob = errors.New("cdf: SuiteOptions.Base sets a machine knob")

// checkBase rejects a Base that sets anything but run control: the one
// place the run-control fields are listed.
func (o SuiteOptions) checkBase() error {
	m := o.Base
	m.MaxUops, m.WarmupUops, m.Seed, m.Sampling = 0, 0, 0, Sampling{}
	m.Timeout, m.Paranoid, m.Oracle, m.SlowPath = 0, false, false, false
	v := reflect.ValueOf(m)
	for i := range v.NumField() {
		if !v.Field(i).IsZero() {
			return fmt.Errorf("%w: %s", ErrMachineKnob, v.Type().Field(i).Name)
		}
	}
	return nil
}

// Geomean returns the geometric mean of vs. Empty input or a non-positive
// or non-finite sample — the signature of a zero-IPC row from a partial
// sweep — is an explicit error, never a NaN that would flow into a table.
func Geomean(vs []float64) (float64, error) {
	return stats.Geomean(vs)
}

// paperMachines are the three machines of Figs. 13–16, in that order.
var paperMachines = []variant{{mode: ModeBaseline}, {mode: ModeCDF}, {mode: ModePRE}}

// ablation is the variant list of a CDF ablation: the baseline, full CDF,
// and CDF with knob applied.
func ablation(knob func(*Options)) []variant {
	return []variant{{mode: ModeBaseline}, {mode: ModeCDF}, {ModeCDF, knob}}
}

// perKernel runs every kernel under the variants and derives one row per
// kernel from its results (in variant order). A kernel with a failed run
// gets no row; its failures are in the error.
func perKernel[R any](o SuiteOptions, benches []string, variants []variant, row func(bench string, r []*Result) R) ([]R, error) {
	res, err := o.grid(benches, variants)
	rows := make([]R, 0, len(benches))
	for i, r := range res {
		if !slices.Contains(r, nil) {
			rows = append(rows, row(benches[i], r))
		}
	}
	return rows, err
}

// --- Table 1 ---

// Table1Config renders the simulated machine configuration (the paper's
// Table 1).
func Table1Config() string {
	cfg := core.Default()
	var sb strings.Builder
	fmt.Fprintf(&sb, "Core      3.2 GHz, %d-wide issue, TAGE predictor\n", cfg.Width)
	fmt.Fprintf(&sb, "          %d Entry ROB, %d Entry Reservation Station\n", cfg.ROBSize, cfg.RSSize)
	fmt.Fprintf(&sb, "          %d Entry Load & %d Entry Store Queues, %d PRF\n", cfg.LQSize, cfg.SQSize, cfg.PRFSize)
	fmt.Fprintf(&sb, "Caches    %dKB %d-way L1 I-cache & D-cache, %d-cycle access\n",
		cfg.Mem.L1DSizeBytes/1024, cfg.Mem.L1DWays, cfg.Mem.L1DLatency)
	fmt.Fprintf(&sb, "          %dMB %d-way LLC cache, %d-cycle access, %dB lines\n",
		cfg.Mem.LLCSizeBytes/1024/1024, cfg.Mem.LLCWays, cfg.Mem.LLCLatency, cfg.Mem.LineBytes)
	fmt.Fprintf(&sb, "Prefetch  Stream Prefetcher, %d Streams (always on), FDP throttling\n",
		cfg.Mem.Prefetch.Streams)
	fmt.Fprintf(&sb, "Memory    DDR4_2400R-class: %d channels, %d bank groups x %d banks\n",
		cfg.Mem.DRAM.Channels, cfg.Mem.DRAM.BankGroups, cfg.Mem.DRAM.BanksPerGroup)
	fmt.Fprintf(&sb, "          tRP-tCL-tRCD: %d-%d-%d CPU cycles\n",
		cfg.Mem.DRAM.TRP, cfg.Mem.DRAM.TCL, cfg.Mem.DRAM.TRCD)
	fmt.Fprintf(&sb, "CDF       %d-entry %d-way Critical Count Tables\n", cfg.CDF.CCTEntries, cfg.CDF.CCTWays)
	fmt.Fprintf(&sb, "          %dKB %d-way Mask Cache\n", cfg.CDF.MaskEntries*8/1024, cfg.CDF.MaskWays)
	fmt.Fprintf(&sb, "          %dKB %d-way Critical Uop Cache, %d uops per entry\n",
		cfg.CDF.CUCLines*64/1024, cfg.CDF.CUCWays, cfg.CDF.CUCLineUops)
	fmt.Fprintf(&sb, "          %d-entry Fill Buffer, %d-entry Delayed Branch Queue, %d-entry Critical Map Queue\n",
		cfg.CDF.FillBufferSize, cfg.CDF.DBQSize, cfg.CDF.CMQSize)
	return sb.String()
}

// --- Fig. 1 ---

// Fig1Row is one bar of Fig. 1: the split of ROB entries between critical
// and non-critical uops during full-window stalls on the baseline core.
type Fig1Row struct {
	Benchmark       string
	CriticalFrac    float64
	NonCriticalFrac float64
	StallCycles     uint64
}

// Fig1ROBOccupancy reproduces Fig. 1 on the baseline core with observe-only
// criticality marking.
func Fig1ROBOccupancy(o SuiteOptions) ([]Fig1Row, error) {
	observe := variant{ModeBaseline, func(o *Options) { o.TrainCriticality = true }}
	return perKernel(o, o.benches(), []variant{observe}, func(b string, r []*Result) Fig1Row {
		frac := r[0].Metric("stall_rob_crit_frac")
		return Fig1Row{
			Benchmark:       b,
			CriticalFrac:    frac,
			NonCriticalFrac: 1 - frac,
			StallCycles:     uint64(r[0].Metric("full_window_stall_cycles")),
		}
	})
}

// --- Fig. 13 ---

// Fig13Row is one benchmark's bars in Fig. 13: percentage IPC improvement
// of CDF and PRE over the baseline.
type Fig13Row struct {
	Benchmark  string
	CDFSpeedup float64 // e.g. 1.061 = +6.1%
	PRESpeedup float64
}

// Fig13Speedup reproduces Fig. 13: per-benchmark CDF and PRE speedups over
// the baseline-with-prefetching core. Fig13Geomean gives the summary
// bars.
func Fig13Speedup(o SuiteOptions) ([]Fig13Row, error) {
	return perKernel(o, o.benches(), paperMachines, func(b string, r []*Result) Fig13Row {
		base, cdf, pre := r[0], r[1], r[2]
		return Fig13Row{Benchmark: b, CDFSpeedup: cdf.IPC / base.IPC, PRESpeedup: pre.IPC / base.IPC}
	})
}

// Fig13Geomean returns the suite geomean speedups (the paper's headline:
// CDF 6.1%, PRE 2.6%). With no rows, or a degenerate speedup in one, the
// error says so instead of reporting a bogus summary bar.
func Fig13Geomean(rows []Fig13Row) (cdfGeo, preGeo float64, err error) {
	var cs, ps []float64
	for _, r := range rows {
		cs = append(cs, r.CDFSpeedup)
		ps = append(ps, r.PRESpeedup)
	}
	if cdfGeo, err = Geomean(cs); err != nil {
		return 0, 0, err
	}
	if preGeo, err = Geomean(ps); err != nil {
		return 0, 0, err
	}
	return cdfGeo, preGeo, nil
}

// --- Fig. 14 ---

// Fig14Row is one benchmark's bars in Fig. 14: MLP relative to baseline.
type Fig14Row struct {
	Benchmark string
	CDFMLPRel float64
	PREMLPRel float64
}

// Fig14MLP reproduces Fig. 14: memory-level parallelism of CDF and PRE
// relative to the baseline. The paper's point: PRE's MLP gains include
// wrong-path loads that do not convert to speedup, while CDF's convert.
func Fig14MLP(o SuiteOptions) ([]Fig14Row, error) {
	return perKernel(o, o.benches(), paperMachines, func(b string, r []*Result) Fig14Row {
		base, cdf, pre := r[0].Metric("mlp"), r[1].Metric("mlp"), r[2].Metric("mlp")
		if base == 0 {
			return Fig14Row{Benchmark: b, CDFMLPRel: 1, PREMLPRel: 1}
		}
		return Fig14Row{Benchmark: b, CDFMLPRel: cdf / base, PREMLPRel: pre / base}
	})
}

// --- Fig. 15 ---

// Fig15Row is one benchmark's bars in Fig. 15: DRAM traffic relative to
// baseline.
type Fig15Row struct {
	Benchmark     string
	CDFTrafficRel float64
	PRETrafficRel float64
}

// Fig15Traffic reproduces Fig. 15: memory traffic relative to the baseline
// (the paper reports CDF generating 4% less extra traffic than PRE).
func Fig15Traffic(o SuiteOptions) ([]Fig15Row, error) {
	return perKernel(o, o.benches(), paperMachines, func(b string, r []*Result) Fig15Row {
		base := r[0].Metric("mem_traffic")
		if base == 0 {
			base = 1
		}
		return Fig15Row{
			Benchmark:     b,
			CDFTrafficRel: r[1].Metric("mem_traffic") / base,
			PRETrafficRel: r[2].Metric("mem_traffic") / base,
		}
	})
}

// --- Fig. 16 ---

// Fig16Row is one benchmark's bars in Fig. 16: energy relative to baseline.
type Fig16Row struct {
	Benchmark    string
	CDFEnergyRel float64
	PREEnergyRel float64
}

// Fig16Energy reproduces Fig. 16: energy consumption relative to the
// baseline (the paper: CDF −3.5%, PRE +3.7%).
func Fig16Energy(o SuiteOptions) ([]Fig16Row, error) {
	return perKernel(o, o.benches(), paperMachines, func(b string, r []*Result) Fig16Row {
		base, cdf, pre := r[0], r[1], r[2]
		return Fig16Row{Benchmark: b, CDFEnergyRel: cdf.EnergyPJ / base.EnergyPJ, PREEnergyRel: pre.EnergyPJ / base.EnergyPJ}
	})
}

// --- Fig. 17 ---

// Fig17Row is one ROB configuration's points in Fig. 17: IPC and energy of
// the baseline and CDF cores, relative to the 352-entry baseline, with the
// other window structures scaled proportionally.
type Fig17Row struct {
	ROBSize           int
	BaselineIPCRel    float64
	CDFIPCRel         float64
	BaselineEnergyRel float64
	CDFEnergyRel      float64
}

// DefaultFig17Sizes are the window scaling points.
var DefaultFig17Sizes = []int{192, 256, 352, 512, 768}

// Fig17Scaling reproduces Fig. 17: CDF and baseline cores at different ROB
// sizes. All values are geomeans over the suite, relative to the 352-entry
// baseline. A kernel counts at every size where its reference and that
// size's runs completed.
func Fig17Scaling(o SuiteOptions, robSizes []int) ([]Fig17Row, error) {
	if len(robSizes) == 0 {
		robSizes = DefaultFig17Sizes
	}
	benches := o.benches()

	// Variant 0 is the reference, the Table 1 baseline; size k then runs
	// the baseline and CDF at 1+2k and 2+2k.
	variants := []variant{{mode: ModeBaseline}}
	for _, rob := range robSizes {
		scale := func(o *Options) { o.ROBSize = rob }
		variants = append(variants, variant{ModeBaseline, scale}, variant{ModeCDF, scale})
	}
	res, sweep := o.grid(benches, variants)

	var rows []Fig17Row
	for k, rob := range robSizes {
		var bIPC, cIPC, bEn, cEn []float64
		for _, r := range res {
			r0, rb, rc := r[0], r[1+2*k], r[2+2*k]
			if r0 == nil || rb == nil || rc == nil {
				continue
			}
			bIPC = append(bIPC, rb.IPC/r0.IPC)
			cIPC = append(cIPC, rc.IPC/r0.IPC)
			bEn = append(bEn, rb.EnergyPJ/r0.EnergyPJ)
			cEn = append(cEn, rc.EnergyPJ/r0.EnergyPJ)
		}
		if len(bIPC) == 0 {
			continue
		}
		row := Fig17Row{ROBSize: rob}
		var err error
		if row.BaselineIPCRel, err = Geomean(bIPC); err != nil {
			return rows, fmt.Errorf("fig17 rob=%d baseline ipc: %w", rob, err)
		}
		if row.CDFIPCRel, err = Geomean(cIPC); err != nil {
			return rows, fmt.Errorf("fig17 rob=%d cdf ipc: %w", rob, err)
		}
		if row.BaselineEnergyRel, err = Geomean(bEn); err != nil {
			return rows, fmt.Errorf("fig17 rob=%d baseline energy: %w", rob, err)
		}
		if row.CDFEnergyRel, err = Geomean(cEn); err != nil {
			return rows, fmt.Errorf("fig17 rob=%d cdf energy: %w", rob, err)
		}
		rows = append(rows, row)
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].ROBSize < rows[j].ROBSize })
	return rows, sweep
}

// --- §4.2 ablation ---

// AblationRow compares full CDF against CDF without critical-branch marking
// for one benchmark.
type AblationRow struct {
	Benchmark           string
	CDFSpeedup          float64
	NoCritBranchSpeedup float64
}

// AblationNoCriticalBranches reproduces the §4.2 ablation: disabling
// hard-to-predict-branch marking drops the geomean speedup (6.1% → 3.8% in
// the paper), with astar/bzip/mcf/soplex affected most.
func AblationNoCriticalBranches(o SuiteOptions) ([]AblationRow, error) {
	noBr := ablation(func(o *Options) { o.MarkCriticalBranches = new(bool) }) // false
	return perKernel(o, o.benches(), noBr, func(b string, r []*Result) AblationRow {
		base := r[0].IPC
		return AblationRow{Benchmark: b, CDFSpeedup: r[1].IPC / base, NoCritBranchSpeedup: r[2].IPC / base}
	})
}

// --- Instruction supply (DESIGN.md §13) ---

// FrontRow is one frontend-bound kernel's instruction-supply results: IPC
// under the four frontend variants (the timing variant is the plain timed
// L1I every machine has), the timing variant's L1I pressure, how
// much of the perfect-L1I gap FDIP recovers, and how much of the
// BTB-miss-driven fetch-stall time shadow-branch decoding removes.
type FrontRow struct {
	Benchmark string

	// IPC per variant: the plain timed L1I; + FDIP; + FDIP and
	// shadow-branch decoding; and the perfect-L1I upper bound.
	TimingIPC  float64
	FDIPIPC    float64
	ShadowIPC  float64
	PerfectIPC float64

	// L1IMPKI is the timing variant's demand L1I miss rate — the size of
	// the problem FDIP is asked to hide.
	L1IMPKI float64

	// Recovery is (FDIP − timing) / (perfect − timing): the fraction of
	// the instruction-supply IPC gap the prefetcher closes. The PR's
	// acceptance floor is 0.5 on the frontend suite. RecoveryShadow is the
	// same fraction with shadow-branch decoding extending the walker's
	// reach — the number that matters on BTB-capacity-bound code, where
	// plain FDIP cannot see past taken branches the BTB has evicted.
	Recovery       float64
	RecoveryShadow float64

	// BTBStallFDIP/BTBStallShadow are fetch_stall_btb cycles (per kilo-uop)
	// without and with shadow-branch decoding, both on top of FDIP.
	BTBStallFDIP   float64
	BTBStallShadow float64
}

// frontVariants are the four machines FrontSupply compares, all on the
// baseline core: the engine with every feature off (the same timing as no
// engine); + FDIP; + FDIP and shadow-branch decoding; and the perfect-L1I
// upper bound. Order matters: it is the column order of the report table.
var frontVariants = []variant{
	{ModeBaseline, func(o *Options) { o.Frontend = true }},
	{ModeBaseline, func(o *Options) { o.Frontend, o.FDIP = true, true }},
	{ModeBaseline, func(o *Options) { o.Frontend, o.FDIP, o.ShadowBTB = true, true, true }},
	{ModeBaseline, func(o *Options) { o.Frontend, o.PerfectL1I = true, true }},
}

// FrontSupply runs the frontend-bound kernels (workload/front.go) under the
// four instruction-supply variants on the baseline machine. Empty
// o.Benchmarks selects exactly the frontend suite; an explicit list runs
// those kernels instead (they need not be frontend-marked).
func FrontSupply(o SuiteOptions) ([]FrontRow, error) {
	benches := o.Benchmarks
	if len(benches) == 0 {
		for _, b := range Benchmarks() {
			if b.Frontend {
				benches = append(benches, b.Name)
			}
		}
	}
	return perKernel(o, benches, frontVariants, func(b string, r []*Result) FrontRow {
		timing, fdip, shadow, perfect := r[0], r[1], r[2], r[3]
		row := FrontRow{
			Benchmark:  b,
			TimingIPC:  timing.IPC,
			FDIPIPC:    fdip.IPC,
			ShadowIPC:  shadow.IPC,
			PerfectIPC: perfect.IPC,
			L1IMPKI:    timing.Metric("l1i_mpki"),
		}
		if gap := perfect.IPC - timing.IPC; gap > 0 {
			row.Recovery = (fdip.IPC - timing.IPC) / gap
			row.RecoveryShadow = (shadow.IPC - timing.IPC) / gap
		}
		row.BTBStallFDIP = 1000 * fdip.Metric("fetch_stall_btb") / float64(fdip.Uops)
		row.BTBStallShadow = 1000 * shadow.Metric("fetch_stall_btb") / float64(shadow.Uops)
		return row
	})
}
