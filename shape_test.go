package cdf

// Shape tests: the paper's qualitative claims, checked end-to-end on the
// full suite. These are the reproduction's acceptance tests — not absolute
// numbers (our substrate is a from-scratch simulator over synthetic
// kernels) but the *shape* of §4's results: who wins, in which direction,
// on which benchmark families.
//
// They run the whole suite several times and take a couple of minutes;
// `go test -short` skips them.

import (
	"sync"
	"testing"
)

func suiteOpt() SuiteOptions { return SuiteOptions{Base: Options{MaxUops: 60_000}} }

// fig13Suite simulates the Fig. 13 suite once per test binary; the Fig. 13
// shape tests all read its rows.
var fig13Suite = sync.OnceValues(func() ([]Fig13Row, error) { return Fig13Speedup(suiteOpt()) })

func fig13(t *testing.T) []Fig13Row {
	t.Helper()
	rows, err := fig13Suite()
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

func rowFor(t *testing.T, rows []Fig13Row, name string) Fig13Row {
	t.Helper()
	for _, r := range rows {
		if r.Benchmark == name {
			return r
		}
	}
	t.Fatalf("no row for %s", name)
	return Fig13Row{}
}

func TestShapeFig13HeadlineOrdering(t *testing.T) {
	if testing.Short() {
		t.Skip("shape tests are slow")
	}
	rows := fig13(t)
	cdfGeo, preGeo, err := Fig13Geomean(rows)
	if err != nil {
		t.Fatal(err)
	}

	// The paper's headline: CDF improves the geomean (6.1%) and beats PRE
	// (2.6%). We require: both machines positive overall, CDF ahead, and
	// CDF's gain within a factor-of-two band of the paper's.
	if cdfGeo <= 1.0 {
		t.Fatalf("CDF geomean %.3f not positive", cdfGeo)
	}
	if preGeo <= 0.98 {
		t.Fatalf("PRE geomean %.3f collapsed", preGeo)
	}
	if cdfGeo <= preGeo {
		t.Fatalf("CDF geomean (%.3f) must beat PRE (%.3f)", cdfGeo, preGeo)
	}
	if cdfGeo < 1.03 || cdfGeo > 1.12 {
		t.Fatalf("CDF geomean %+.1f%% outside the paper's 6.1%% band", 100*(cdfGeo-1))
	}
}

func TestShapeFig13Families(t *testing.T) {
	if testing.Short() {
		t.Skip("shape tests are slow")
	}
	rows := fig13(t)

	// Sparse-criticality family: CDF wins clearly and beats PRE.
	for _, name := range []string{"astar", "bzip", "soplex", "libquantum"} {
		r := rowFor(t, rows, name)
		if r.CDFSpeedup < 1.02 {
			t.Errorf("%s: CDF %+.1f%% should be clearly positive", name, 100*(r.CDFSpeedup-1))
		}
		if r.CDFSpeedup <= r.PRESpeedup {
			t.Errorf("%s: CDF (%.3f) should beat PRE (%.3f)", name, r.CDFSpeedup, r.PRESpeedup)
		}
	}

	// Dense-criticality family (§4.2: zeusmp, GemsFDTD, fotonik3d, roms):
	// PRE performs well; CDF cannot skip enough and must not crater.
	for _, name := range []string{"zeusmp", "gems", "fotonik", "roms"} {
		r := rowFor(t, rows, name)
		if r.PRESpeedup < 1.05 {
			t.Errorf("%s: PRE %+.1f%% should be clearly positive", name, 100*(r.PRESpeedup-1))
		}
		if r.PRESpeedup <= r.CDFSpeedup-0.02 {
			t.Errorf("%s: PRE (%.3f) should be at least competitive with CDF (%.3f)", name, r.PRESpeedup, r.CDFSpeedup)
		}
		if r.CDFSpeedup < 0.97 {
			t.Errorf("%s: CDF %+.1f%% regresses too much", name, 100*(r.CDFSpeedup-1))
		}
	}

	// Neither-helps family (§4.2: leslie3d, sphinx, wrf, parest, omnetpp):
	// both within a few percent of baseline.
	for _, name := range []string{"leslie3d", "sphinx", "wrf", "parest", "omnetpp"} {
		r := rowFor(t, rows, name)
		if r.CDFSpeedup < 0.93 || r.CDFSpeedup > 1.06 {
			t.Errorf("%s: CDF %+.1f%% should be near zero", name, 100*(r.CDFSpeedup-1))
		}
	}

	// mcf: CDF > PRE (the chase + hard branches are CDF's case).
	if r := rowFor(t, rows, "mcf"); r.CDFSpeedup <= r.PRESpeedup-0.01 {
		t.Errorf("mcf: CDF (%.3f) should not lose to PRE (%.3f)", r.CDFSpeedup, r.PRESpeedup)
	}
}

func TestShapeFig15TrafficOrdering(t *testing.T) {
	if testing.Short() {
		t.Skip("shape tests are slow")
	}
	rows, err := Fig15Traffic(suiteOpt())
	if err != nil {
		t.Fatal(err)
	}
	var cs, ps []float64
	for _, r := range rows {
		cs = append(cs, r.CDFTrafficRel)
		ps = append(ps, r.PRETrafficRel)
	}
	cg, pg := geo(t, cs), geo(t, ps)
	// Fig. 15: CDF's traffic stays near the baseline; PRE adds traffic.
	if cg > 1.05 {
		t.Fatalf("CDF traffic %.3fx should stay near baseline", cg)
	}
	if pg <= cg {
		t.Fatalf("PRE traffic (%.3fx) must exceed CDF's (%.3fx)", pg, cg)
	}
	if pg < 1.02 {
		t.Fatalf("PRE traffic %.3fx should be visibly above baseline", pg)
	}
}

func TestShapeFig16EnergyOrdering(t *testing.T) {
	if testing.Short() {
		t.Skip("shape tests are slow")
	}
	rows, err := Fig16Energy(suiteOpt())
	if err != nil {
		t.Fatal(err)
	}
	var cs, ps []float64
	for _, r := range rows {
		cs = append(cs, r.CDFEnergyRel)
		ps = append(ps, r.PREEnergyRel)
	}
	cg, pg := geo(t, cs), geo(t, ps)
	// Fig. 16: CDF saves energy (paper: 0.965x); PRE spends more (1.037x).
	if cg >= 1.0 {
		t.Fatalf("CDF energy %.3fx should be below baseline", cg)
	}
	if cg < 0.90 {
		t.Fatalf("CDF energy %.3fx implausibly low", cg)
	}
	if pg <= 1.0 {
		t.Fatalf("PRE energy %.3fx should be above baseline", pg)
	}
	if pg <= cg {
		t.Fatal("PRE must spend more energy than CDF")
	}
}

func TestShapeFig17WindowScaling(t *testing.T) {
	if testing.Short() {
		t.Skip("shape tests are slow")
	}
	rows, err := Fig17Scaling(SuiteOptions{
		Benchmarks: []string{"astar", "bzip", "lbm", "roms", "soplex", "mcf"},
		Base:       Options{MaxUops: 40_000},
	}, []int{192, 352, 704})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("got %d rows", len(rows))
	}
	// Baseline IPC must grow with the window.
	if !(rows[0].BaselineIPCRel < rows[1].BaselineIPCRel && rows[1].BaselineIPCRel < rows[2].BaselineIPCRel) {
		t.Fatalf("baseline IPC not monotone in window: %+v", rows)
	}
	// CDF sits above the baseline at every size (the paper's Fig. 17).
	for _, r := range rows {
		if r.CDFIPCRel <= r.BaselineIPCRel {
			t.Errorf("ROB %d: CDF (%.3f) should beat baseline (%.3f)", r.ROBSize, r.CDFIPCRel, r.BaselineIPCRel)
		}
	}
	// The paper's punchline: CDF at 352 beats the baseline scaled to
	// comparable area (which gains only ~3.7%).
	if rows[1].CDFIPCRel < rows[1].BaselineIPCRel+0.02 {
		t.Errorf("CDF at the Table 1 window (%.3f) should clearly beat it (%.3f)", rows[1].CDFIPCRel, rows[1].BaselineIPCRel)
	}
}

func TestShapeAblationCriticalBranches(t *testing.T) {
	if testing.Short() {
		t.Skip("shape tests are slow")
	}
	rows, err := AblationNoCriticalBranches(SuiteOptions{
		Benchmarks: []string{"astar", "bzip", "mcf", "soplex", "lbm", "roms"},
		Base:       Options{MaxUops: 60_000},
	})
	if err != nil {
		t.Fatal(err)
	}
	var full, nobr []float64
	for _, r := range rows {
		full = append(full, r.CDFSpeedup)
		nobr = append(nobr, r.NoCritBranchSpeedup)
	}
	fg, ng := geo(t, full), geo(t, nobr)
	// §4.2: disabling critical-branch marking costs real speedup
	// (6.1% -> 3.8% in the paper).
	if ng >= fg {
		t.Fatalf("ablation should hurt: full %.3f, no-branches %.3f", fg, ng)
	}
	// bzip (distant loads behind hard branches) must be among the most
	// affected, as the paper reports for the bzip/astar/mcf/soplex group.
	bz := rowFor17(t, rows, "bzip")
	if bz.NoCritBranchSpeedup >= bz.CDFSpeedup-0.05 {
		t.Errorf("bzip ablation too mild: %.3f -> %.3f", bz.CDFSpeedup, bz.NoCritBranchSpeedup)
	}
}

func rowFor17(t *testing.T, rows []AblationRow, name string) AblationRow {
	t.Helper()
	for _, r := range rows {
		if r.Benchmark == name {
			return r
		}
	}
	t.Fatalf("no ablation row for %s", name)
	return AblationRow{}
}

func TestShapeFig1CriticalFraction(t *testing.T) {
	if testing.Short() {
		t.Skip("shape tests are slow")
	}
	rows, err := Fig1ROBOccupancy(suiteOpt())
	if err != nil {
		t.Fatal(err)
	}
	// Fig. 1 / §1: critical instructions are a minority of the footprint
	// (10–40% in typical programs), so during full-window stalls the ROB
	// holds more non-critical than critical uops — on most benchmarks. Our
	// dense-criticality kernels intentionally invert this (their chain
	// density is what trips the §3.2 gate), so the requirement is: minority
	// on more than half the sampled suite, and on every sparse-family
	// kernel.
	minority := 0
	sampled := 0
	byName := map[string]Fig1Row{}
	for _, r := range rows {
		byName[r.Benchmark] = r
		if r.StallCycles < 1000 {
			continue // too few stalls to sample (e.g. nab)
		}
		sampled++
		if r.CriticalFrac < 0.5 {
			minority++
		}
	}
	if sampled < 8 {
		t.Fatalf("only %d benchmarks produced stall samples", sampled)
	}
	if minority*2 <= sampled {
		t.Fatalf("critical uops are a minority on only %d/%d benchmarks", minority, sampled)
	}
	for _, name := range []string{"astar", "mcf", "bzip", "soplex", "libquantum"} {
		if r := byName[name]; r.StallCycles >= 1000 && r.CriticalFrac >= 0.5 {
			t.Errorf("%s: critical fraction %.2f should be a minority", name, r.CriticalFrac)
		}
	}
}

func TestShapeFig14MLPDirection(t *testing.T) {
	if testing.Short() {
		t.Skip("shape tests are slow")
	}
	rows, err := Fig14MLP(SuiteOptions{
		Benchmarks: []string{"astar", "soplex", "roms", "zeusmp", "gems"},
		Base:       Options{MaxUops: 60_000},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		// Fig. 14: both techniques raise (or at least hold) MLP where they
		// act; neither should crater it.
		if r.CDFMLPRel < 0.85 || r.PREMLPRel < 0.85 {
			t.Errorf("%s: MLP collapsed (cdf %.2f, pre %.2f)", r.Benchmark, r.CDFMLPRel, r.PREMLPRel)
		}
	}
	// On the dense family PRE's MLP gain is the larger one (its prefetches
	// inflate outstanding misses — the paper's point about Fig. 14).
	for _, name := range []string{"zeusmp", "gems", "roms"} {
		for _, r := range rows {
			if r.Benchmark == name && r.PREMLPRel <= r.CDFMLPRel {
				t.Errorf("%s: PRE MLP (%.2f) should exceed CDF's (%.2f)", name, r.PREMLPRel, r.CDFMLPRel)
			}
		}
	}
}
