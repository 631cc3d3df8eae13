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
	Benchmark     string  `col:"benchmark"`
	CDFSpeedup    float64 `col:"CDF,pct"`
	PRESpeedup    float64 `col:"PRE,pct"`
	HybridSpeedup float64 `col:"hybrid,pct"`
}

// HybridComparison runs the §6 extension: CDF plus runahead on non-CDF
// full-window stalls. The interesting outcome is whether the hybrid
// captures both mechanisms' wins (CDF's sparse-criticality benchmarks AND
// PRE's dense stencils).
func HybridComparison(o SuiteOptions) ([]HybridRow, error) {
	machines := []variant{{mode: ModeBaseline}, {mode: ModeCDF}, {mode: ModePRE}, {mode: ModeHybrid}}
	return perKernel(o, o.benches(), machines, func(b string, r []*Result) HybridRow {
		base := r[0].IPC
		return HybridRow{
			Benchmark:     b,
			CDFSpeedup:    r[1].IPC / base,
			PRESpeedup:    r[2].IPC / base,
			HybridSpeedup: r[3].IPC / base,
		}
	})
}

// PartitionAblationRow compares dynamic against frozen partitions.
type PartitionAblationRow struct {
	Benchmark      string  `col:"benchmark"`
	DynamicSpeedup float64 `col:"dynamic,pct"`
	StaticSpeedup  float64 `col:"static,pct"`
}

// AblationStaticPartition freezes the ROB/LQ/SQ partitions at their initial
// 3/4 skew and compares against the adaptive controller (§3.5).
func AblationStaticPartition(o SuiteOptions) ([]PartitionAblationRow, error) {
	static := ablation(func(o *Options) { o.StaticPartition = true })
	return perKernel(o, o.benches(), static, func(b string, r []*Result) PartitionAblationRow {
		base := r[0].IPC
		return PartitionAblationRow{Benchmark: b, DynamicSpeedup: r[1].IPC / base, StaticSpeedup: r[2].IPC / base}
	})
}

// MaskAblationRow compares CDF with and without the Mask Cache.
type MaskAblationRow struct {
	Benchmark        string  `col:"benchmark"`
	Speedup          float64 `col:"with,pct"`
	NoMaskSpeedup    float64 `col:"without,pct"`
	Violations       uint64  `col:"violations"`
	NoMaskViolations uint64  `col:"violations (no MC)"`
}

// AblationNoMaskCache disables cross-path mask accumulation; §3.6 predicts
// more register dependence violations (and the flushes they cost).
func AblationNoMaskCache(o SuiteOptions) ([]MaskAblationRow, error) {
	noMask := ablation(func(o *Options) { o.NoMaskCache = true })
	return perKernel(o, o.benches(), noMask, func(b string, r []*Result) MaskAblationRow {
		base, with, without := r[0].IPC, r[1], r[2]
		return MaskAblationRow{
			Benchmark:        b,
			Speedup:          with.IPC / base,
			NoMaskSpeedup:    without.IPC / base,
			Violations:       uint64(with.Metric("dependence_violations")),
			NoMaskViolations: uint64(without.Metric("dependence_violations")),
		}
	})
}

// CUCSweepRow is one Critical Uop Cache capacity point.
type CUCSweepRow struct {
	CUCKB      int     `col:"CUC KB"`
	CDFSpeedup float64 `col:"CDF geomean,pct"` // suite geomean over baseline
}

// DefaultCUCSweepKB are the capacity points for SweepCUCSize.
var DefaultCUCSweepKB = []int{4, 9, 18, 36}

// SweepCUCSize sweeps the Critical Uop Cache capacity and reports the suite
// geomean CDF speedup at each point. A kernel counts at every capacity
// where its baseline and that capacity's run completed.
func SweepCUCSize(o SuiteOptions, sizesKB []int) ([]CUCSweepRow, error) {
	if len(sizesKB) == 0 {
		sizesKB = DefaultCUCSweepKB
	}
	// Variant 0 is the baseline; capacity k runs CDF at 1+k.
	variants := []variant{{mode: ModeBaseline}}
	for _, kb := range sizesKB {
		variants = append(variants, variant{ModeCDF, func(o *Options) { o.CUCKB = kb }})
	}
	res, sweep := o.grid(o.benches(), variants)
	var rows []CUCSweepRow
	for k, kb := range sizesKB {
		var sp []float64
		for _, r := range res {
			if base, cdf := r[0], r[1+k]; base != nil && cdf != nil {
				sp = append(sp, cdf.IPC/base.IPC)
			}
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
	return rows, sweep
}
