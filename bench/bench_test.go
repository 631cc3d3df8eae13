package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"slices"
	"strings"
	"testing"
	"time"

	"cdf"
)

func TestTailPercentile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {10, 0}, {19, 0}, {20, 50}, {39, 50}, {40, 75},
		{99, 75}, {100, 90}, {199, 90}, {200, 95}, {999, 95}, {1000, 99},
		{1999, 99}, {2000, 99.5}, {10000, 99.9},
	} {
		if got := tailPercentile(tc.n); got != tc.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", tc.n, got, tc.want)
		}
	}
}

func TestPercentileAndQuartiles(t *testing.T) {
	if got := percentile([]float64{5, 1, 4, 2, 3}, 50); got != 3 {
		t.Errorf("median = %g, want 3", got)
	}
	if got := percentile([]float64{1, 2, 3, 4, 5}, 90); math.Abs(got-4.6) > 1e-12 {
		t.Errorf("p90 = %g, want 4.6", got)
	}
	// Reference values from Python's statistics.quantiles(xs, n=4).
	for _, tc := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{1, 2, 3, 4}, 1.25, 3.75},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 4.5},
		{[]float64{1, 2}, 0.75, 2.25},
	} {
		q1, q3 := quartiles(tc.xs)
		if math.Abs(q1-tc.q1) > 1e-12 || math.Abs(q3-tc.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %g, %g, want %g, %g", tc.xs, q1, q3, tc.q1, tc.q3)
		}
	}
}

// testdata/pprof_traces.txt is the head of a real `go tool pprof -traces`
// listing of a cdfsim CPU profile: ten stacks totalling 150ms.
func TestParseTracesSample(t *testing.T) {
	f, err := os.Open("testdata/pprof_traces.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	samples, err := parseTraces(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 10 {
		t.Fatalf("parsed %d stacks, want 10", len(samples))
	}
	var total time.Duration
	for _, s := range samples {
		total += s.value
	}
	if total != 150*time.Millisecond {
		t.Errorf("total %v, want 150ms", total)
	}
	if got := samples[5].frames[0]; got != "cdf/internal/core.(*Core).sampleStallROB" {
		t.Errorf("inline frame parsed as %q", got)
	}
	if got := samples[3].frames; len(got) != 7 || got[4] != "cdf/internal/core.(*Core).fetch" {
		t.Errorf("stack 4 frames = %q", got)
	}

	shares := layerShares(samples)
	for metric, want := range map[string]float64{
		"core.cycle.incl_share":        1,
		"core.issue.incl_share":        40.0 / 150,
		"core.fetch.incl_share":        10.0 / 150,
		"core.complete.incl_share":     10.0 / 150,
		"core.end_of_cycle.incl_share": 10.0 / 150,
		// sig is counted once per stack, not once per frame.
		"core.skip.incl_share": 70.0 / 150,
		"branch.self_share":    10.0 / 150,
		"runtime.copy_share":   100.0 / 150,
		"mem.self_share":       0,
		"core.warm.incl_share": 0,
	} {
		if got := shares[metric]; math.Abs(got-want) > 1e-12 {
			t.Errorf("%s = %g, want %g", metric, got, want)
		}
	}
}

func TestParseTracesRejectsGarbage(t *testing.T) {
	in := "Type: cpu\n-----------+----\n   tenms   main.f\n"
	if _, err := parseTraces(strings.NewReader(in)); err == nil {
		t.Fatal("want an error for an unparsable sample value")
	}
}

func TestPackageOf(t *testing.T) {
	for fn, want := range map[string]string{
		"cdf/internal/core.(*Core).fetch":       "cdf/internal/core",
		"cdf/internal/mem/dram.(*DRAM).Access":  "cdf/internal/mem/dram",
		"runtime.memmove":                       "runtime",
		"cdf.Run":                               "cdf",
		"main.runLoop.func1":                    "main",
		"cdf/internal/sweepd.(*Service).runJob": "cdf/internal/sweepd",
	} {
		if got := packageOf(fn); got != want {
			t.Errorf("packageOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestJudge(t *testing.T) {
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scale := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	for _, tc := range []struct {
		name   string
		a, b   []float64
		better string
		bound  float64
		want   string
	}{
		{"same runs", base, base, "lower", 0.05, "no worse"},
		{"small worsening inside bound", base, scale(base, 1.02), "lower", 0.05, "no worse"},
		{"lower is better, b slower", base, scale(base, 1.10), "lower", 0.05, "regressed"},
		{"lower is better, b faster", base, scale(base, 0.80), "lower", 0.05, "improved"},
		{"higher is better, b lower", base, scale(base, 0.90), "higher", 0.05, "regressed"},
		{"higher is better, b higher", base, scale(base, 1.20), "higher", 0.05, "improved"},
		{"spread wider than bound", base, []float64{80, 120, 100, 90, 110, 130, 70, 100, 105, 95}, "lower", 0.05, "unresolved"},
		{"clear gain despite wide spread", []float64{100, 140, 120}, []float64{60, 70, 90}, "lower", 0.05, "improved"},
		{"every b run better, gain inside a's spread", []float64{100, 180, 140}, []float64{90, 95, 99}, "lower", 0.05, "no worse"},
		{"spread wide, b not always better", []float64{100, 180, 140}, []float64{90, 95, 150}, "lower", 0.05, "unresolved"},
	} {
		if got := judge(tc.a, tc.b, tc.better, tc.bound).verdict; got != tc.want {
			t.Errorf("%s: verdict %q, want %q", tc.name, got, tc.want)
		}
	}
}

func TestAdjustedScalesEachOpByNearbyCalibration(t *testing.T) {
	ops := make([]opSample, 8)
	for i := range ops {
		ops[i] = opSample{lat: 10 * time.Millisecond}
	}
	// The host halves its speed after the fourth operation.
	calib := make([]float64, len(ops)+1)
	for k := range calib {
		calib[k] = refMillis
		if k > 4 {
			calib[k] = 2 * refMillis
		}
	}
	calib[1] = 10 * refMillis // one disturbed reading
	r := loopResult{ops: ops, passes: 1, calib: calib}
	got := r.adjusted()
	if got[0] != 10 {
		t.Errorf("first op = %g, want 10: one disturbed reading must not move it", got[0])
	}
	if want := 10 * math.Pow(0.5, hostSlope); math.Abs(got[7]-want) > 1e-12 {
		t.Errorf("last op = %g, want %g: it ran at half speed", got[7], want)
	}
	for i := 1; i < len(got); i++ {
		if got[i] > got[i-1] {
			t.Errorf("adjusted = %v: grows after the host slowed down", got)
			break
		}
	}

	// Without calibration, latencies stay as measured.
	r.calib = nil
	if got := r.adjusted(); got[0] != 10 || got[7] != 10 {
		t.Errorf("adjusted without calibration = %v, want all 10", got)
	}
}

func TestLoopInterleavesSetups(t *testing.T) {
	var order []string
	ops := func(_, i int) error {
		order = append(order, fmt.Sprint("o", i))
		return nil
	}
	tl := &tally{}
	// With no budget every set-up is due at once: one runs before each
	// operation, the rest after the last.
	r := runLoop(loopSpec{items: 4, maxPasses: 1, setup: func(k int) (time.Duration, error) {
		order = append(order, fmt.Sprint("s", k))
		return time.Duration(k+1) * time.Millisecond, nil
	}}, tl, ops)
	if got, want := strings.Join(order, " "), "s0 o0 s1 o1 s2 o2 s3 o3 s4 s5 s6 s7 s8"; got != want {
		t.Errorf("order %q, want %q", got, want)
	}
	if got := r.millis(true, nil); len(got) != setupRepeats || got[0] != 1 || got[8] != 9 {
		t.Errorf("set-up times %v, want 1..9 ms", got)
	}
	if got := r.latencies(); len(got) != 4 || tl.attempted != 4 || r.err != nil {
		t.Errorf("%d operations, %d attempted, err %v; want 4, 4, nil", len(got), tl.attempted, r.err)
	}

	// A failed set-up stops the loop.
	order = nil
	r = runLoop(loopSpec{items: 4, maxPasses: 1, setup: func(k int) (time.Duration, error) {
		if k == 2 {
			return 0, errors.New("set-up failed")
		}
		return time.Millisecond, nil
	}}, tl, ops)
	if got := strings.Join(order, " "); r.err == nil || got != "o0 o1" {
		t.Errorf("after a failed set-up: operations %q, err %v; want \"o0 o1\" and the error", got, r.err)
	}
}

func TestGoldenCheckCountsPerturbedResult(t *testing.T) {
	c := simCase{Name: "mcf/cdf", Bench: "mcf", Opt: cdf.Options{Mode: cdf.ModeCDF, MaxUops: 100_000, WarmupUops: 25_000}}
	good := outcome{Cycles: 750_000, Uops: 75_003, IPC: 75_003.0 / 750_000}
	chk := &checker{workload: "sweep", seed: 1, first: map[string]outcome{},
		golden: map[string]outcome{goldenKey("sweep", 1, c.Name): good}}

	ulp := good
	ulp.IPC = math.Nextafter(good.IPC, 1)
	cycles := good
	cycles.Cycles++

	results := []outcome{good, ulp, cycles, good}
	tl := &tally{}
	runLoop(loopSpec{items: len(results), maxPasses: 1}, tl, func(_, i int) error { return chk.check(c, results[i]) })
	if tl.attempted != 4 || tl.failed != 2 {
		t.Fatalf("attempted %d failed %d, want 4 and 2 (errors %q)", tl.attempted, tl.failed, tl.errs)
	}

	// Without a golden entry, the first result becomes the reference.
	chk.seed = 11
	if err := chk.check(c, cycles); err != nil {
		t.Fatalf("first result rejected: %v", err)
	}
	if err := chk.check(c, good); err == nil {
		t.Fatal("a result differing from the same case's earlier one passed")
	}
	// Whatever the reference, a result that did not measure the run fails.
	short := good
	short.Uops = 1000
	if err := chk.check(c, short); err == nil {
		t.Fatal("a result covering too few uops passed")
	}
}

func TestGoldenCoversEverySimCase(t *testing.T) {
	g, err := loadGolden()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range sortedKeys(simWorkloads) {
		for seed := uint64(1); seed <= goldenSeeds; seed++ {
			for _, c := range simWorkloads[name].cases(seed) {
				want, ok := g[goldenKey(name, seed, c.Name)]
				if !ok {
					t.Errorf("golden.json lacks %s; run bench/run.sh -regen", goldenKey(name, seed, c.Name))
					continue
				}
				if err := plausible(c, want); err != nil {
					t.Errorf("golden %s: %v", goldenKey(name, seed, c.Name), err)
				}
			}
		}
	}
}

// The metric lists in main.go and BENCHMARK.json must agree: the program
// reports exactly what the spec declares, in the declared units.
func TestBenchmarkSpecMatchesMetrics(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type def struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var spec struct {
		Command   []string `json:"command"`
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []def `json:"end_to_end"`
		PerLayer []def `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []def, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Errorf("%s: spec has %d metrics, program %d", kind, len(got), len(want))
			return
		}
		for i, w := range want {
			g := got[i]
			if g.Name != w.name || g.Unit != w.unit || g.Better != w.better || (g.Bound != nil) != bounded {
				t.Errorf("%s[%d]: spec %+v, program %+v", kind, i, g, w)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd, true)
	check("per_layer", spec.PerLayer, perLayer, false)

	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	want := append(sortedKeys(simWorkloads), "service")
	slices.Sort(names)
	slices.Sort(want)
	if !slices.Equal(names, want) {
		t.Errorf("spec workloads %v, program %v", names, want)
	}
}
