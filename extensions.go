package cdf

// Extension and ablation experiments beyond the paper's figures:
//
//   - HybridComparison: the §6 future-work combination of CDF and Runahead.
//   - AblationStaticPartition: §3.5's claim that dynamic partitioning
//     "significantly improves the performance of CDF".
//   - AblationNoMaskCache: §3.6's claim that the Mask Cache keeps register
//     dependence violations rare.
//   - SweepCUCSize: capacity sensitivity of the Critical Uop Cache (the
//     paper fixes it at 18KB; §4.1 notes its capacity advantage over PRE's
//     SST, so capacity should matter).

import "fmt"

// HybridRow compares CDF, PRE and the hybrid machine on one benchmark.
type HybridRow struct {
	Benchmark     string
	CDFSpeedup    float64
	PRESpeedup    float64
	HybridSpeedup float64
}

// HybridComparison runs the §6 extension: CDF plus runahead on non-CDF
// full-window stalls. The interesting outcome is whether the hybrid
// captures both mechanisms' wins (CDF's sparse-criticality benchmarks AND
// PRE's dense stencils).
func HybridComparison(o SuiteOptions) ([]HybridRow, error) {
	benches := o.benches()
	results, sweep := runSet(o.ctx(), benches, []Mode{ModeBaseline, ModeCDF, ModePRE, ModeHybrid}, o.Base, o)
	rows := make([]HybridRow, 0, len(benches))
	for _, b := range benches {
		if !haveAll(results, b, ModeBaseline, ModeCDF, ModePRE, ModeHybrid) {
			continue
		}
		base := results[runKey{b, ModeBaseline}].IPC
		rows = append(rows, HybridRow{
			Benchmark:     b,
			CDFSpeedup:    results[runKey{b, ModeCDF}].IPC / base,
			PRESpeedup:    results[runKey{b, ModePRE}].IPC / base,
			HybridSpeedup: results[runKey{b, ModeHybrid}].IPC / base,
		})
	}
	return rows, sweep.orNil()
}

// PartitionAblationRow compares dynamic against frozen partitions.
type PartitionAblationRow struct {
	Benchmark      string
	DynamicSpeedup float64
	StaticSpeedup  float64
}

// AblationStaticPartition freezes the ROB/LQ/SQ partitions at their initial
// 3/4 skew and compares against the adaptive controller (§3.5).
func AblationStaticPartition(o SuiteOptions) ([]PartitionAblationRow, error) {
	benches := o.benches()
	dyn, sweep := runSet(o.ctx(), benches, []Mode{ModeBaseline, ModeCDF}, o.Base, o)
	opt := o.Base
	opt.StaticPartition = true
	static, s := runSet(o.ctx(), benches, []Mode{ModeCDF}, opt, o)
	sweep = sweep.merge(s)
	rows := make([]PartitionAblationRow, 0, len(benches))
	for _, b := range benches {
		if !haveAll(dyn, b, ModeBaseline, ModeCDF) || !haveAll(static, b, ModeCDF) {
			continue
		}
		base := dyn[runKey{b, ModeBaseline}].IPC
		rows = append(rows, PartitionAblationRow{
			Benchmark:      b,
			DynamicSpeedup: dyn[runKey{b, ModeCDF}].IPC / base,
			StaticSpeedup:  static[runKey{b, ModeCDF}].IPC / base,
		})
	}
	return rows, sweep.orNil()
}

// MaskAblationRow compares CDF with and without the Mask Cache.
type MaskAblationRow struct {
	Benchmark        string
	Speedup          float64
	NoMaskSpeedup    float64
	Violations       uint64
	NoMaskViolations uint64
}

// AblationNoMaskCache disables cross-path mask accumulation; §3.6 predicts
// more register dependence violations (and the flushes they cost).
func AblationNoMaskCache(o SuiteOptions) ([]MaskAblationRow, error) {
	benches := o.benches()
	with, sweep := runSet(o.ctx(), benches, []Mode{ModeBaseline, ModeCDF}, o.Base, o)
	opt := o.Base
	opt.NoMaskCache = true
	without, s := runSet(o.ctx(), benches, []Mode{ModeCDF}, opt, o)
	sweep = sweep.merge(s)
	rows := make([]MaskAblationRow, 0, len(benches))
	for _, b := range benches {
		if !haveAll(with, b, ModeBaseline, ModeCDF) || !haveAll(without, b, ModeCDF) {
			continue
		}
		base := with[runKey{b, ModeBaseline}].IPC
		rows = append(rows, MaskAblationRow{
			Benchmark:        b,
			Speedup:          with[runKey{b, ModeCDF}].IPC / base,
			NoMaskSpeedup:    without[runKey{b, ModeCDF}].IPC / base,
			Violations:       with[runKey{b, ModeCDF}].DependenceViolations,
			NoMaskViolations: without[runKey{b, ModeCDF}].DependenceViolations,
		})
	}
	return rows, sweep.orNil()
}

// CUCSweepRow is one Critical Uop Cache capacity point.
type CUCSweepRow struct {
	CUCKB      int
	CDFSpeedup float64 // suite geomean over baseline
}

// DefaultCUCSweepKB are the capacity points for SweepCUCSize.
var DefaultCUCSweepKB = []int{4, 9, 18, 36}

// SweepCUCSize sweeps the Critical Uop Cache capacity and reports the suite
// geomean CDF speedup at each point.
func SweepCUCSize(o SuiteOptions, sizesKB []int) ([]CUCSweepRow, error) {
	if len(sizesKB) == 0 {
		sizesKB = DefaultCUCSweepKB
	}
	benches := o.benches()
	base, sweep := runSet(o.ctx(), benches, []Mode{ModeBaseline}, o.Base, o)
	var rows []CUCSweepRow
	for _, kb := range sizesKB {
		opt := o.Base
		opt.CUCKB = kb
		res, s := runSet(o.ctx(), benches, []Mode{ModeCDF}, opt, o)
		sweep = sweep.merge(s)
		var sp []float64
		for _, b := range benches {
			if !haveAll(base, b, ModeBaseline) || !haveAll(res, b, ModeCDF) {
				continue
			}
			sp = append(sp, res[runKey{b, ModeCDF}].IPC/base[runKey{b, ModeBaseline}].IPC)
		}
		if len(sp) == 0 {
			continue
		}
		g, err := Geomean(sp)
		if err != nil {
			return rows, fmt.Errorf("cuc sweep %dKB: %w", kb, err)
		}
		rows = append(rows, CUCSweepRow{CUCKB: kb, CDFSpeedup: g})
	}
	return rows, sweep.orNil()
}
