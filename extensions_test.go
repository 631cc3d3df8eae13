package cdf

import "testing"

func TestHybridComparisonRuns(t *testing.T) {
	rows, err := HybridComparison(SuiteOptions{Benchmarks: []string{"lbm"}, Base: Options{MaxUops: 10_000}})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("rows = %d", len(rows))
	}
	r := rows[0]
	if r.CDFSpeedup <= 0 || r.PRESpeedup <= 0 || r.HybridSpeedup <= 0 {
		t.Fatalf("non-positive speedups: %+v", r)
	}
}

func TestStaticPartitionAblationRuns(t *testing.T) {
	rows, err := AblationStaticPartition(SuiteOptions{Benchmarks: []string{"astar"}, Base: Options{MaxUops: 20_000}})
	if err != nil {
		t.Fatal(err)
	}
	if rows[0].DynamicSpeedup <= 0 || rows[0].StaticSpeedup <= 0 {
		t.Fatalf("bad row: %+v", rows[0])
	}
}

func TestMaskCacheAblationRuns(t *testing.T) {
	rows, err := AblationNoMaskCache(SuiteOptions{Benchmarks: []string{"bzip"}, Base: Options{MaxUops: 30_000}})
	if err != nil {
		t.Fatal(err)
	}
	r := rows[0]
	if r.Speedup <= 0 || r.NoMaskSpeedup <= 0 {
		t.Fatalf("bad row: %+v", r)
	}
}

func TestSweepCUCSizeMonotoneEnough(t *testing.T) {
	rows, err := SweepCUCSize(SuiteOptions{Benchmarks: []string{"astar", "bzip"}, Base: Options{MaxUops: 40_000}}, []int{2, 18})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	// A 2KB CUC cannot hold the kernels' traces as well as 18KB: the
	// Table 1 size must not lose to the starved one by any real margin.
	if rows[1].CDFSpeedup < rows[0].CDFSpeedup-0.01 {
		t.Fatalf("18KB CUC (%.3f) lost to 2KB (%.3f)", rows[1].CDFSpeedup, rows[0].CDFSpeedup)
	}
}

// TestShapeHybridCapturesBoth: the §6 extension must capture CDF's win on a
// sparse kernel AND PRE's win on a dense one.
func TestShapeHybridCapturesBoth(t *testing.T) {
	if testing.Short() {
		t.Skip("shape tests are slow")
	}
	rows, err := HybridComparison(SuiteOptions{
		Benchmarks: []string{"bzip", "zeusmp"},
		Base:       Options{MaxUops: 60_000},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		best := r.CDFSpeedup
		if r.PRESpeedup > best {
			best = r.PRESpeedup
		}
		if r.HybridSpeedup < best-0.03 {
			t.Errorf("%s: hybrid %.3f falls short of max(cdf %.3f, pre %.3f)",
				r.Benchmark, r.HybridSpeedup, r.CDFSpeedup, r.PRESpeedup)
		}
	}
}

// TestShapeDynamicPartitionHelps: §3.5's claim, suite-level.
func TestShapeDynamicPartitionHelps(t *testing.T) {
	if testing.Short() {
		t.Skip("shape tests are slow")
	}
	rows, err := AblationStaticPartition(SuiteOptions{
		Benchmarks: []string{"astar", "bzip", "lbm", "soplex", "libquantum", "roms"},
		Base:       Options{MaxUops: 60_000},
	})
	if err != nil {
		t.Fatal(err)
	}
	var dyn, static []float64
	for _, r := range rows {
		dyn = append(dyn, r.DynamicSpeedup)
		static = append(static, r.StaticSpeedup)
	}
	dg, sg := geo(t, dyn), geo(t, static)
	if dg < sg-0.005 {
		t.Fatalf("dynamic partitioning (%.3f) should not lose to static (%.3f)", dg, sg)
	}
}
