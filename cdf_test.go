package cdf

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"cdf/internal/report"
	"cdf/internal/stats"
)

func TestBenchmarksRegistry(t *testing.T) {
	bs := Benchmarks()
	if len(bs) != 20 {
		t.Fatalf("suite has %d benchmarks, want 20 (17 paper + 3 frontend)", len(bs))
	}
	frontend := 0
	for _, b := range bs {
		if b.Frontend {
			frontend++
		}
	}
	if frontend != 3 {
		t.Fatalf("suite has %d frontend kernels, want 3", frontend)
	}
	for _, b := range bs {
		if b.Name == "" || b.SPEC == "" || b.Phenotype == "" {
			t.Fatalf("incomplete metadata: %+v", b)
		}
		switch b.Expect {
		case "cdf", "pre", "both", "neither":
		default:
			t.Fatalf("%s: unknown Expect %q", b.Name, b.Expect)
		}
	}
}

// TestMetricNamesAreTableRows: Result.Metric reads 0 for an unknown name,
// so a misspelt name would put a silent zero into a figure or report. Every
// string literal passed to a .Metric( call in the non-test sources of the
// root package, cmd/, examples/ and internal/ must be a row of the
// statistics table.
func TestMetricNamesAreTableRows(t *testing.T) {
	rows := map[string]bool{}
	for _, r := range (&stats.Stats{}).Table() {
		rows[r.Name] = true
	}
	fset := token.NewFileSet()
	calls := 0
	check := func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) != 1 {
			return true
		}
		if sel, ok := call.Fun.(*ast.SelectorExpr); !ok || sel.Sel.Name != "Metric" {
			return true
		}
		lit, ok := call.Args[0].(*ast.BasicLit)
		if !ok || lit.Kind != token.STRING {
			return true
		}
		calls++
		if name, err := strconv.Unquote(lit.Value); err != nil || !rows[name] {
			t.Errorf("%s: Metric(%s) is not a statistics table row", fset.Position(lit.Pos()), lit.Value)
		}
		return true
	}
	for _, root := range []string{".", "cmd", "examples", "internal"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() {
				if root == "." && path != "." {
					return fs.SkipDir // the root package only; bench/ is its own module
				}
				return nil
			}
			if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return nil
			}
			f, err := parser.ParseFile(fset, path, nil, 0)
			if err != nil {
				return err
			}
			ast.Inspect(f, check)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if calls == 0 {
		t.Fatal("found no Metric calls with a literal name; the source walk is broken")
	}
}

func TestRunBasic(t *testing.T) {
	res, err := Run("astar", Options{Mode: ModeBaseline, MaxUops: 10_000})
	if err != nil {
		t.Fatal(err)
	}
	if res.Uops < 10_000 || res.Cycles == 0 || res.IPC <= 0 {
		t.Fatalf("implausible result: %+v", res)
	}
	if res.EnergyPJ <= 0 || res.AreaRel <= 0 {
		t.Fatal("energy/area missing")
	}
	if len(res.Metrics) < 20 {
		t.Fatal("metrics table too small")
	}
}

func TestRunUnknownBenchmark(t *testing.T) {
	if _, err := Run("nope", Options{}); err == nil {
		t.Fatal("unknown benchmark should error")
	}
}

func TestRunCDFCarriesAreaOverhead(t *testing.T) {
	base, err := Run("lbm", Options{Mode: ModeBaseline, MaxUops: 10_000})
	if err != nil {
		t.Fatal(err)
	}
	cdf, err := Run("lbm", Options{Mode: ModeCDF, MaxUops: 10_000})
	if err != nil {
		t.Fatal(err)
	}
	if cdf.AreaRel <= base.AreaRel {
		t.Fatal("CDF core must be larger than the baseline")
	}
	if cdf.CDFAreaFrac < 0.02 || cdf.CDFAreaFrac > 0.05 {
		t.Fatalf("CDF area fraction %.3f outside the paper's ~3.2%%", cdf.CDFAreaFrac)
	}
	if base.CDFAreaFrac != 0 {
		t.Fatal("baseline must carry no CDF area")
	}
}

func TestROBSizeOption(t *testing.T) {
	small, err := Run("roms", Options{Mode: ModeBaseline, MaxUops: 20_000, ROBSize: 192})
	if err != nil {
		t.Fatal(err)
	}
	big, err := Run("roms", Options{Mode: ModeBaseline, MaxUops: 20_000, ROBSize: 704})
	if err != nil {
		t.Fatal(err)
	}
	if big.IPC <= small.IPC {
		t.Fatalf("window scaling has no effect: %.3f vs %.3f", small.IPC, big.IPC)
	}
}

func TestTable1ConfigRendersParameters(t *testing.T) {
	s := Table1Config()
	for _, want := range []string{
		"352 Entry ROB", "160 Entry Reservation Station",
		"128 Entry Load & 72 Entry Store Queues",
		"1MB 16-way LLC", "Stream Prefetcher, 64 Streams",
		"Critical Count Tables", "Mask Cache", "Critical Uop Cache",
		"1024-entry Fill Buffer", "256-entry Delayed Branch Queue",
	} {
		if !strings.Contains(s, want) {
			t.Fatalf("Table 1 rendering missing %q:\n%s", want, s)
		}
	}
}

// TestExperimentRowsRender renders a zero row of every experiment row
// type, so a field added without a col tag fails here, not in the
// cdfexperiments command.
func TestExperimentRowsRender(t *testing.T) {
	check := func(tb *report.Table) {
		if len(tb.Columns) < 2 || len(tb.Rows) != 2 {
			t.Errorf("%s: %d columns, %d rows; want at least 2 columns and a row plus the geomean",
				tb.Title, len(tb.Columns), len(tb.Rows))
		}
	}
	check(report.FromRows("Table1Row", "", []Table1Row{{}}, true))
	check(report.FromRows("Fig1Row", "", []Fig1Row{{}}, true))
	check(report.FromRows("Fig13Row", "", []Fig13Row{{}}, true))
	check(report.FromRows("Fig14Row", "", []Fig14Row{{}}, true))
	check(report.FromRows("Fig15Row", "", []Fig15Row{{}}, true))
	check(report.FromRows("Fig16Row", "", []Fig16Row{{}}, true))
	check(report.FromRows("Fig17Row", "", []Fig17Row{{}}, true))
	check(report.FromRows("AblationRow", "", []AblationRow{{}}, true))
	check(report.FromRows("FrontRow", "", []FrontRow{{}}, true))
	check(report.FromRows("HybridRow", "", []HybridRow{{}}, true))
	check(report.FromRows("PartitionAblationRow", "", []PartitionAblationRow{{}}, true))
	check(report.FromRows("MaskAblationRow", "", []MaskAblationRow{{}}, true))
	check(report.FromRows("CUCSweepRow", "", []CUCSweepRow{{}}, true))
}

// geo computes a geomean whose inputs the test has already validated, so
// an error is a test bug.
func geo(tb testing.TB, vs []float64) float64 {
	tb.Helper()
	g, err := Geomean(vs)
	if err != nil {
		tb.Fatal(err)
	}
	return g
}

func TestGeomean(t *testing.T) {
	if _, err := Geomean(nil); err == nil {
		t.Fatal("empty geomean should error")
	}
	if _, err := Geomean([]float64{1.2, 0}); err == nil {
		t.Fatal("zero sample should error")
	}
	if g := geo(t, []float64{2, 8}); g != 4 {
		t.Fatalf("geomean(2,8) = %v", g)
	}
	if g := geo(t, []float64{1, 1, 1}); g != 1 {
		t.Fatalf("geomean(1,1,1) = %v", g)
	}
}

func TestSuiteOptionsSubset(t *testing.T) {
	o := SuiteOptions{Benchmarks: []string{"lbm"}, Base: Options{MaxUops: 8_000}}
	rows, err := Fig13Speedup(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0].Benchmark != "lbm" {
		t.Fatalf("subset run wrong: %+v", rows)
	}
	if rows[0].CDFSpeedup <= 0 || rows[0].PRESpeedup <= 0 {
		t.Fatal("speedups must be positive ratios")
	}
}

func TestFig1RowsSane(t *testing.T) {
	rows, err := Fig1ROBOccupancy(SuiteOptions{Benchmarks: []string{"astar", "mcf"}, Base: Options{MaxUops: 30_000}})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.CriticalFrac < 0 || r.CriticalFrac > 1 {
			t.Fatalf("%s: critical frac %v out of range", r.Benchmark, r.CriticalFrac)
		}
		if diff := r.CriticalFrac + r.NonCriticalFrac - 1; diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("%s: fractions don't sum to 1", r.Benchmark)
		}
	}
}

func TestAblationOptionPlumbing(t *testing.T) {
	off := false
	res, err := Run("astar", Options{Mode: ModeCDF, MaxUops: 30_000, MarkCriticalBranches: &off})
	if err != nil {
		t.Fatal(err)
	}
	on, err := Run("astar", Options{Mode: ModeCDF, MaxUops: 30_000})
	if err != nil {
		t.Fatal(err)
	}
	// With branch marking off, fewer uops should be critical-fetched.
	var offCrit, onCrit float64
	for _, m := range res.Metrics {
		if m.Name == "critical_uops_fetched" {
			offCrit = m.Value
		}
	}
	for _, m := range on.Metrics {
		if m.Name == "critical_uops_fetched" {
			onCrit = m.Value
		}
	}
	if offCrit >= onCrit {
		t.Fatalf("disabling branch marking should reduce critical fetches: off=%v on=%v", offCrit, onCrit)
	}
}

func TestWarmupOption(t *testing.T) {
	// A warmed run measures only the post-warmup region: fewer counted
	// uops, and a better IPC than a cold run of the same region length
	// (caches and the CDF machinery are already trained).
	cold, err := Run("astar", Options{Mode: ModeCDF, MaxUops: 30_000})
	if err != nil {
		t.Fatal(err)
	}
	warm, err := Run("astar", Options{Mode: ModeCDF, MaxUops: 60_000, WarmupUops: 30_000})
	if err != nil {
		t.Fatal(err)
	}
	if warm.Uops >= 31_000 {
		t.Fatalf("warm run counted %d uops; warmup not excluded", warm.Uops)
	}
	if warm.IPC <= cold.IPC {
		t.Fatalf("warmed IPC %.3f should beat cold-start IPC %.3f", warm.IPC, cold.IPC)
	}
	// Degenerate warmup >= max is rejected up front — silently clamping
	// it would measure an empty region and report garbage statistics.
	if _, err := Run("lbm", Options{Mode: ModeBaseline, MaxUops: 5_000, WarmupUops: 9_000}); err == nil {
		t.Fatal("warmup >= max should fail validation")
	}
}
