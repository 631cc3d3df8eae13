package cdf

// The benchmark harness: one testing.B benchmark per table and figure of
// the paper's evaluation (§4). Each regenerates its table/figure's data and
// reports the headline numbers as custom metrics, so
//
//	go test -bench=. -benchmem
//
// reproduces the whole evaluation. Figure benches do a full suite pass per
// iteration; expect seconds per iteration (b.N is typically 1).
// Microbenchmarks for the substrates (simulator speed, predictor, caches,
// DRAM) follow at the bottom.

import (
	"fmt"
	"testing"

	"cdf/internal/branch"
	"cdf/internal/core"
	"cdf/internal/emu"
	"cdf/internal/mem"
	"cdf/internal/mem/dram"
	"cdf/internal/stats"
	"cdf/internal/workload"
)

// benchUops keeps figure benches affordable while covering several
// fill-buffer walk epochs per run.
const benchUops = 60_000

func benchSuite() SuiteOptions { return SuiteOptions{Base: Options{MaxUops: benchUops}} }

// BenchmarkTable1Config regenerates Table 1 (the machine configuration).
func BenchmarkTable1Config(b *testing.B) {
	n := 0
	for i := 0; i < b.N; i++ {
		n += len(Table1Config())
	}
	if n == 0 {
		b.Fatal("empty config")
	}
}

// BenchmarkFig1ROBOccupancy regenerates Fig. 1: the critical /
// non-critical split of ROB entries during full-window stalls on the
// baseline. Reported metric: the suite-average critical fraction.
func BenchmarkFig1ROBOccupancy(b *testing.B) {
	var frac float64
	for i := 0; i < b.N; i++ {
		rows, err := Fig1ROBOccupancy(benchSuite())
		if err != nil {
			b.Fatal(err)
		}
		var s float64
		n := 0
		for _, r := range rows {
			if r.StallCycles >= 1000 {
				s += r.CriticalFrac
				n++
			}
		}
		frac = s / float64(n)
	}
	b.ReportMetric(100*frac, "%critical-in-ROB")
}

// BenchmarkFig3WindowFill regenerates the Fig. 2/3 walk-through: astar's
// window filling measured as MLP, baseline vs CDF.
func BenchmarkFig3WindowFill(b *testing.B) {
	var baseMLP, cdfMLP float64
	for i := 0; i < b.N; i++ {
		rb, err := Run("astar", Options{Mode: ModeBaseline, MaxUops: benchUops})
		if err != nil {
			b.Fatal(err)
		}
		rc, err := Run("astar", Options{Mode: ModeCDF, MaxUops: benchUops})
		if err != nil {
			b.Fatal(err)
		}
		baseMLP, cdfMLP = rb.MLP, rc.MLP
	}
	b.ReportMetric(baseMLP, "baseline-MLP")
	b.ReportMetric(cdfMLP, "cdf-MLP")
}

// BenchmarkFig13Speedup regenerates Fig. 13 (the headline result).
// Reported metrics: geomean IPC improvement of CDF and PRE over the
// baseline, in percent (paper: +6.1% / +2.6%).
func BenchmarkFig13Speedup(b *testing.B) {
	var cg, pg float64
	for i := 0; i < b.N; i++ {
		rows, err := Fig13Speedup(benchSuite())
		if err != nil {
			b.Fatal(err)
		}
		var gerr error
		cg, pg, gerr = Fig13Geomean(rows)
		if gerr != nil {
			b.Fatal(gerr)
		}
	}
	b.ReportMetric(100*(cg-1), "%cdf-speedup")
	b.ReportMetric(100*(pg-1), "%pre-speedup")
}

// BenchmarkFig14MLP regenerates Fig. 14: MLP relative to baseline.
func BenchmarkFig14MLP(b *testing.B) {
	var cg, pg float64
	for i := 0; i < b.N; i++ {
		rows, err := Fig14MLP(benchSuite())
		if err != nil {
			b.Fatal(err)
		}
		var cs, ps []float64
		for _, r := range rows {
			cs = append(cs, r.CDFMLPRel)
			ps = append(ps, r.PREMLPRel)
		}
		cg, pg = geo(b, cs), geo(b, ps)
	}
	b.ReportMetric(cg, "cdf-MLP-rel")
	b.ReportMetric(pg, "pre-MLP-rel")
}

// BenchmarkFig15Traffic regenerates Fig. 15: DRAM traffic relative to
// baseline (paper: CDF ~4% less extra traffic than PRE).
func BenchmarkFig15Traffic(b *testing.B) {
	var cg, pg float64
	for i := 0; i < b.N; i++ {
		rows, err := Fig15Traffic(benchSuite())
		if err != nil {
			b.Fatal(err)
		}
		var cs, ps []float64
		for _, r := range rows {
			cs = append(cs, r.CDFTrafficRel)
			ps = append(ps, r.PRETrafficRel)
		}
		cg, pg = geo(b, cs), geo(b, ps)
	}
	b.ReportMetric(cg, "cdf-traffic-rel")
	b.ReportMetric(pg, "pre-traffic-rel")
}

// BenchmarkFig16Energy regenerates Fig. 16: energy relative to baseline
// (paper: CDF 0.965x, PRE 1.037x).
func BenchmarkFig16Energy(b *testing.B) {
	var cg, pg float64
	for i := 0; i < b.N; i++ {
		rows, err := Fig16Energy(benchSuite())
		if err != nil {
			b.Fatal(err)
		}
		var cs, ps []float64
		for _, r := range rows {
			cs = append(cs, r.CDFEnergyRel)
			ps = append(ps, r.PREEnergyRel)
		}
		cg, pg = geo(b, cs), geo(b, ps)
	}
	b.ReportMetric(cg, "cdf-energy-rel")
	b.ReportMetric(pg, "pre-energy-rel")
}

// BenchmarkFig17Scaling regenerates Fig. 17: IPC of CDF vs baseline across
// window sizes. Reported metrics: IPC of each core at the largest window,
// relative to the Table 1 baseline.
func BenchmarkFig17Scaling(b *testing.B) {
	o := SuiteOptions{
		Benchmarks: []string{"astar", "bzip", "lbm", "roms", "soplex", "mcf"},
		Base:       Options{MaxUops: 40_000},
	}
	var rows []Fig17Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = Fig17Scaling(o, []int{192, 352, 704})
		if err != nil {
			b.Fatal(err)
		}
	}
	last := rows[len(rows)-1]
	mid := rows[1]
	b.ReportMetric(mid.CDFIPCRel, "cdf-ipc@352")
	b.ReportMetric(last.BaselineIPCRel, "baseline-ipc@704")
	b.ReportMetric(last.CDFIPCRel, "cdf-ipc@704")
}

// BenchmarkAblationNoCriticalBranches regenerates the §4.2 ablation
// (paper: geomean falls from +6.1% to +3.8% without critical branches).
func BenchmarkAblationNoCriticalBranches(b *testing.B) {
	var fg, ng float64
	for i := 0; i < b.N; i++ {
		rows, err := AblationNoCriticalBranches(benchSuite())
		if err != nil {
			b.Fatal(err)
		}
		var fs, ns []float64
		for _, r := range rows {
			fs = append(fs, r.CDFSpeedup)
			ns = append(ns, r.NoCritBranchSpeedup)
		}
		fg, ng = geo(b, fs), geo(b, ns)
	}
	b.ReportMetric(100*(fg-1), "%cdf-speedup")
	b.ReportMetric(100*(ng-1), "%no-branch-speedup")
}

// --- substrate microbenchmarks ---

// BenchmarkSimulator measures raw simulation speed (cycles simulated per
// second) for each machine on astar.
func BenchmarkSimulator(b *testing.B) {
	for _, mode := range []Mode{ModeBaseline, ModeCDF, ModePRE} {
		mode := mode
		b.Run(mode.String(), func(b *testing.B) {
			w, _ := workload.ByName("astar")
			var cycles uint64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p, m := w.Build()
				cfg := core.Default()
				cfg.Mode = core.Mode(mode)
				cfg.MaxRetired = 20_000
				cfg.MaxCycles = 4_000_000
				c, err := core.New(cfg, p, m)
				if err != nil {
					b.Fatal(err)
				}
				c.Run()
				cycles += c.Cycles()
			}
			b.ReportMetric(float64(cycles)/b.Elapsed().Seconds(), "cycles/s")
		})
	}
}

// BenchmarkEmulator measures functional emulation speed (uops/second).
func BenchmarkEmulator(b *testing.B) {
	w, _ := workload.ByName("astar")
	var n uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, m := w.Build()
		e := emu.New(p, m)
		n += e.Run(100_000)
	}
	b.ReportMetric(float64(n)/b.Elapsed().Seconds(), "uops/s")
}

// BenchmarkTAGE measures the branch predictor's predict+update throughput.
func BenchmarkTAGE(b *testing.B) {
	tg := branch.NewTage(branch.DefaultTage())
	rng := uint64(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		pc := 0x400000 + (rng%64)*8
		info := tg.Predict(pc)
		tg.Update(pc, rng&3 != 0, info)
	}
}

// BenchmarkCache measures the L1-class cache's lookup/insert throughput.
func BenchmarkCache(b *testing.B) {
	c := mem.NewCache("bench", 32*1024, 8, 64, 2, 32)
	rng := uint64(7)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		line := rng % (1 << 12)
		if hit, _ := c.Lookup(line); !hit {
			c.Insert(line, false, false)
		}
	}
}

// BenchmarkDRAM measures the memory model's per-access cost.
func BenchmarkDRAM(b *testing.B) {
	d := dram.New(dram.Default())
	rng := uint64(3)
	now := uint64(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		d.Access((rng%(1<<20))*64, now, false)
		now += 3
	}
}

// BenchmarkHierarchy measures a full memory-system access.
func BenchmarkHierarchy(b *testing.B) {
	h := mem.NewHierarchy(mem.Default(), &stats.Stats{})
	rng := uint64(9)
	now := uint64(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		h.Load((rng%(1<<18))*64, now, false)
		now += 5
	}
}

// --- extension benches ---

// BenchmarkExtensionHybrid regenerates the §6 hybrid comparison.
func BenchmarkExtensionHybrid(b *testing.B) {
	var hg float64
	for i := 0; i < b.N; i++ {
		rows, err := HybridComparison(benchSuite())
		if err != nil {
			b.Fatal(err)
		}
		var hs []float64
		for _, r := range rows {
			hs = append(hs, r.HybridSpeedup)
		}
		hg = geo(b, hs)
	}
	b.ReportMetric(100*(hg-1), "%hybrid-speedup")
}

// BenchmarkAblationStaticPartition regenerates the §3.5 partition ablation.
func BenchmarkAblationStaticPartition(b *testing.B) {
	var dg, sg float64
	for i := 0; i < b.N; i++ {
		rows, err := AblationStaticPartition(benchSuite())
		if err != nil {
			b.Fatal(err)
		}
		var ds, ss []float64
		for _, r := range rows {
			ds = append(ds, r.DynamicSpeedup)
			ss = append(ss, r.StaticSpeedup)
		}
		dg, sg = geo(b, ds), geo(b, ss)
	}
	b.ReportMetric(100*(dg-1), "%dynamic")
	b.ReportMetric(100*(sg-1), "%static")
}

// BenchmarkAblationMaskCache regenerates the §3.6 Mask Cache ablation.
func BenchmarkAblationMaskCache(b *testing.B) {
	var viol, noMaskViol float64
	for i := 0; i < b.N; i++ {
		rows, err := AblationNoMaskCache(benchSuite())
		if err != nil {
			b.Fatal(err)
		}
		var v, nv uint64
		for _, r := range rows {
			v += r.Violations
			nv += r.NoMaskViolations
		}
		viol, noMaskViol = float64(v), float64(nv)
	}
	b.ReportMetric(viol, "violations")
	b.ReportMetric(noMaskViol, "violations-no-maskcache")
}

// BenchmarkSweepCUCSize regenerates the Critical Uop Cache capacity sweep.
func BenchmarkSweepCUCSize(b *testing.B) {
	o := SuiteOptions{
		Benchmarks: []string{"astar", "bzip", "soplex", "libquantum", "lbm"},
		Base:       Options{MaxUops: benchUops},
	}
	var rows []CUCSweepRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = SweepCUCSize(o, nil)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		b.ReportMetric(100*(r.CDFSpeedup-1), fmt.Sprintf("%%speedup@%dKB", r.CUCKB))
	}
}
