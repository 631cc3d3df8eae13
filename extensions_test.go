package cdf

import (
	"errors"
	"slices"
	"strings"
	"testing"
)

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

// TestSweepPointFailureIsolated: in the size sweeps a kernel whose runs
// fail at one point still counts at the others. Each point depends only
// on the reference runs and its own, so an invalid size costs that point
// and reports its failures, nothing more.
func TestSweepPointFailureIsolated(t *testing.T) {
	o := SuiteOptions{Benchmarks: []string{"astar"}, Base: Options{MaxUops: 5_000}}
	cases := []struct {
		name   string
		run    func(t *testing.T) ([]int, error) // the points that got a row
		points []int
		failed []Mode // astar's failed runs, in report order
		cause  string
	}{
		{"fig17", func(t *testing.T) ([]int, error) {
			rows, err := Fig17Scaling(o, []int{8, 352})
			var points []int
			for _, r := range rows {
				points = append(points, r.ROBSize)
				// The 352-entry point re-runs the reference machine.
				if r.ROBSize == 352 && r.BaselineIPCRel != 1 {
					t.Errorf("ROB 352 baseline relative to itself = %v, want 1", r.BaselineIPCRel)
				}
			}
			return points, err
		}, []int{352}, []Mode{ModeBaseline, ModeCDF}, "PRF too small"},
		{"cucsweep", func(t *testing.T) ([]int, error) {
			rows, err := SweepCUCSize(o, []int{-1, 18})
			var points []int
			for _, r := range rows {
				points = append(points, r.CUCKB)
			}
			return points, err
		}, []int{18}, []Mode{ModeCDF}, "CUCKB"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			points, err := c.run(t)
			if !slices.Equal(points, c.points) {
				t.Errorf("rows at %v, want %v", points, c.points)
			}
			var sweep *SweepError
			if !errors.As(err, &sweep) {
				t.Fatalf("err = %v, want *SweepError", err)
			}
			var failed []Mode
			for _, f := range sweep.Failures {
				if f.Benchmark != "astar" || !strings.Contains(f.Err.Error(), c.cause) {
					t.Errorf("unexpected failure %v, want astar failing with %q", f, c.cause)
				}
				failed = append(failed, f.Mode)
			}
			if !slices.Equal(failed, c.failed) {
				t.Errorf("failed runs %v, want %v", failed, c.failed)
			}
		})
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
