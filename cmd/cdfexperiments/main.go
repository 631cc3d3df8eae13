// Command cdfexperiments regenerates the paper's evaluation — every figure
// and table of §4, the §4.2/§3.5/§3.6 ablations, the §6 hybrid extension,
// and the CUC capacity sweep (see DESIGN.md's experiment index).
//
// Usage:
//
//	cdfexperiments                            # run everything
//	cdfexperiments -exp fig13                 # one experiment
//	cdfexperiments -uops 200000 -format md    # longer runs, Markdown output
//	cdfexperiments -jobs 4                    # bound the worker pool
//	cdfexperiments -timeout 2m -paranoid      # per-run wall-clock limit +
//	                                          # periodic invariant checks
//	cdfexperiments -cache-dir .sweep          # durable: journal + result cache
//	cdfexperiments -cache-dir .sweep -resume  # continue an interrupted sweep
//	cdfexperiments -retries 3                 # retry transient failures
//	cdfexperiments -chaos seed=1,panic=0.1,killafter=4   # fault injection
//
// Runs execute on a bounded worker pool (-jobs, default GOMAXPROCS) with
// failure isolation: a benchmark that panics, deadlocks (watchdog), or
// exceeds -timeout is dropped from its table and geomean, reported with a
// machine-state snapshot at the end, and the process exits non-zero.
// SIGINT cancels outstanding runs but still flushes the partial tables —
// and, with -cache-dir, fsyncs the journal on the way out, so an
// interrupted sweep is always resumable.
//
// With -cache-dir the sweep is crash-safe: every completed case is
// written to a content-addressed result cache and an fsync'd journal
// before the sweep moves on. Restarting with -resume serves completed
// cases from the cache (after integrity verification; corrupt or
// code-version-stale entries are re-simulated) and only dispatches the
// remainder, producing a table bit-identical to an uninterrupted run.
// -resume also adopts the interrupted sweep's seed from the journal, so
// a bare `-cache-dir D -resume` continues exactly the sweep it finds.
// Transient failures (timeout, watchdog, worker panic) are retried up to
// -retries times with capped exponential backoff; oracle divergences
// fail fast. -chaos injects seeded, deterministic faults (see
// harness.ParseChaos) to prove all of the above; an injected kill exits
// with status 3.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"strings"
	"time"

	"cdf"
	"cdf/internal/harness"
	"cdf/internal/profiling"
	"cdf/internal/report"
	"cdf/internal/runflags"
	"cdf/internal/sweepstore"
)

// geomean adapts cdf.Geomean for table cells: a degenerate aggregate
// (empty after failures, or a zero-IPC row) becomes NaN, which the report
// formatters render as "n/a"; the run's sweep error reports why.
func geomean(vs []float64) float64 {
	g, err := cdf.Geomean(vs)
	if err != nil {
		return math.NaN()
	}
	return g
}

var experiments = []struct {
	name string
	desc string
	run  func(o cdf.SuiteOptions) ([]*report.Table, error)
}{
	{"table1", "Table 1: simulation parameters", runTable1},
	{"fig1", "Fig. 1: ROB occupancy during full-window stalls", runFig1},
	{"fig13", "Fig. 13: IPC improvement over baseline", runFig13},
	{"fig14", "Fig. 14: MLP relative to baseline", runFig14},
	{"fig15", "Fig. 15: memory traffic relative to baseline", runFig15},
	{"fig16", "Fig. 16: energy relative to baseline", runFig16},
	{"fig17", "Fig. 17: window scaling", runFig17},
	{"ablation", "§4.2 ablation: no critical-branch marking", runAblation},
	{"hybrid", "§6 extension: CDF + Runahead hybrid", runHybrid},
	{"partition", "§3.5 ablation: dynamic vs static partitioning", runPartition},
	{"maskcache", "§3.6 ablation: Mask Cache", runMaskCache},
	{"cucsweep", "Critical Uop Cache capacity sensitivity", runCUCSweep},
	{"front", "DESIGN.md §13: instruction supply (FDIP recovery, shadow-BTB reach)", runFront},
}

// main delegates to run so that deferred cleanup — profile flush and,
// above all, the journal fsync+close — executes on *every* exit path,
// including failures and SIGINT. os.Exit anywhere inside run would skip
// exactly the flush that makes an interrupted sweep resumable.
func main() {
	os.Exit(run())
}

func run() int {
	var o cdf.SuiteOptions
	runflags.Run(flag.CommandLine, &o.Base)
	startProfiling := profiling.Flags(flag.CommandLine)
	flag.IntVar(&o.Jobs, "jobs", 0, "parallel simulation workers (0 = GOMAXPROCS)")
	flag.IntVar(&o.Retries, "retries", 0, "per-case retry budget for transient failures (timeout, watchdog, panic)")
	var (
		exp    = flag.String("exp", "all", "experiment name or 'all' (see -list)")
		format = flag.String("format", "text", "output format: text | markdown | csv")
		list   = flag.Bool("list", false, "list experiments and exit")

		cacheDir  = flag.String("cache-dir", "", "durable sweep state: fsync'd journal + content-addressed result cache")
		resume    = flag.Bool("resume", false, "resume the sweep in -cache-dir: adopt its seed, serve completed cases from cache")
		chaosSpec = flag.String("chaos", "", "deterministic fault injection, e.g. seed=1,panic=0.1,delay=2ms,corrupt=0.05,killafter=4")
	)
	flag.Parse()

	profStop, err := startProfiling()
	if err != nil {
		fmt.Fprintln(os.Stderr, "cdfexperiments:", err)
		return 1
	}
	defer profStop()

	if *list {
		for _, e := range experiments {
			fmt.Printf("%-10s %s\n", e.name, e.desc)
		}
		return 0
	}

	if *chaosSpec != "" {
		o.Chaos, err = harness.ParseChaos(*chaosSpec)
		if err != nil {
			fmt.Fprintln(os.Stderr, "cdfexperiments:", err)
			return 2
		}
	}

	// Durable sweep state. Opened before the seed is fixed: on -resume the
	// journal's recorded seed wins, so the continued sweep addresses the
	// same cache entries as the interrupted one.
	b := &o.Base
	var store *sweepstore.Store
	if *resume && *cacheDir == "" {
		fmt.Fprintln(os.Stderr, "cdfexperiments: -resume requires -cache-dir")
		return 2
	}
	if *cacheDir != "" {
		store, err = sweepstore.Open(*cacheDir, *resume)
		if err != nil {
			fmt.Fprintln(os.Stderr, "cdfexperiments:", err)
			return 1
		}
		// The deferred Close fsyncs the journal on every exit path —
		// success, failure, or SIGINT — so the sweep is always resumable.
		defer func() {
			if cerr := store.Close(); cerr != nil {
				fmt.Fprintln(os.Stderr, "cdfexperiments:", cerr)
			}
		}()
		if meta, ok := store.Meta(); ok {
			done, failedCases := 0, 0
			for _, r := range store.Cases() {
				if r.Status == sweepstore.StatusDone {
					done++
				} else {
					failedCases++
				}
			}
			fmt.Fprintf(os.Stderr, "cdfexperiments: resuming %s: seed %d, %d case(s) journaled done, %d failed\n",
				*cacheDir, meta.Seed, done, failedCases)
			switch {
			case b.Seed == 0:
				b.Seed = meta.Seed
			case b.Seed != meta.Seed:
				fmt.Fprintf(os.Stderr, "cdfexperiments: -seed %d conflicts with the journal's seed %d; drop -seed or start fresh without -resume\n",
					b.Seed, meta.Seed)
				return 2
			}
			if b.MaxUops != meta.MaxUops || b.WarmupUops != meta.WarmupUops {
				fmt.Fprintf(os.Stderr, "cdfexperiments: -uops/-warmup (%d/%d) conflict with the journal's (%d/%d); match them or start fresh without -resume\n",
					b.MaxUops, b.WarmupUops, meta.MaxUops, meta.WarmupUops)
				return 2
			}
			if sp := b.Sampling; sp.Interval != meta.SampleInterval || sp.Measure != meta.SampleMeasure || sp.Warmup != meta.SampleWarmup {
				fmt.Fprintf(os.Stderr, "cdfexperiments: -sample-interval/-sample-measure/-sample-warmup (%d/%d/%d) conflict with the journal's (%d/%d/%d); match them or start fresh without -resume\n",
					sp.Interval, sp.Measure, sp.Warmup, meta.SampleInterval, meta.SampleMeasure, meta.SampleWarmup)
				return 2
			}
		}
	}

	// The seed is always printed so any failed run can be replayed exactly;
	// 0 asks for a fresh one.
	if b.Seed == 0 {
		b.Seed = uint64(time.Now().UnixNano())
	}
	fmt.Fprintf(os.Stderr, "cdfexperiments: seed %d\n", b.Seed)
	if store != nil {
		if err := store.SetMeta(sweepstore.Record{Seed: b.Seed, MaxUops: b.MaxUops, WarmupUops: b.WarmupUops,
			SampleInterval: b.Sampling.Interval, SampleMeasure: b.Sampling.Measure, SampleWarmup: b.Sampling.Warmup,
			Version: sweepstore.CodeVersion()}); err != nil {
			fmt.Fprintln(os.Stderr, "cdfexperiments:", err)
			return 1
		}
	}

	// SIGINT cancels the runs still outstanding; finished results are
	// still rendered below, so a long sweep can be cut short usefully.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	o.Context = ctx
	o.Store = store
	if store != nil && o.Chaos != nil {
		store.CorruptPut = o.Chaos.CorruptPut
	}
	ran, failed := false, false
	for _, e := range experiments {
		if *exp != "all" && *exp != e.name {
			continue
		}
		ran = true
		tables, err := e.run(o)
		// Partial tables are still worth printing: failed benchmarks are
		// simply absent from them.
		for _, t := range tables {
			out, rerr := t.Render(*format)
			if rerr != nil {
				fmt.Fprintln(os.Stderr, "cdfexperiments:", rerr)
				return 2
			}
			fmt.Println(out)
		}
		if err != nil {
			failed = true
			reportFailure(e.name, err)
		}
	}
	if !ran {
		var names []string
		for _, e := range experiments {
			names = append(names, e.name)
		}
		fmt.Fprintf(os.Stderr, "cdfexperiments: unknown experiment %q (want %s|all)\n",
			*exp, strings.Join(names, "|"))
		return 2
	}
	if store != nil {
		st := store.Stats()
		fmt.Fprintf(os.Stderr, "cdfexperiments: cache: %d served, %d simulated, %d written, %d retried\n",
			st.Hits, st.Misses, st.Puts, st.Retries)
	}
	if failed {
		return 1
	}
	return 0
}

// reportFailure prints an experiment's failed runs to stderr, including
// the machine-state snapshot when the failure carries one.
func reportFailure(exp string, err error) {
	var sweep *cdf.SweepError
	if !errors.As(err, &sweep) {
		fmt.Fprintf(os.Stderr, "cdfexperiments: %s: %v\n", exp, err)
		return
	}
	fmt.Fprintf(os.Stderr, "cdfexperiments: %s: %d run(s) failed (excluded from the tables above)\n",
		exp, len(sweep.Failures))
	for _, f := range sweep.Failures {
		fmt.Fprintf(os.Stderr, "  %s/%s: %v\n", f.Benchmark, f.Mode, f.Err)
		var sim *harness.SimError
		if errors.As(f.Err, &sim) && sim.HasSnap {
			fmt.Fprintln(os.Stderr, indent(sim.Snap.String(), "    "))
		}
	}
}

func indent(s, prefix string) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	for i, l := range lines {
		lines[i] = prefix + l
	}
	return strings.Join(lines, "\n")
}

func runTable1(cdf.SuiteOptions) ([]*report.Table, error) {
	t := &report.Table{
		Title:   "Table 1: simulation parameters",
		Columns: []string{"component", "configuration"},
	}
	for _, line := range strings.Split(strings.TrimRight(cdf.Table1Config(), "\n"), "\n") {
		key := strings.TrimSpace(line[:10])
		t.AddRow(key, strings.TrimSpace(line[10:]))
	}
	return []*report.Table{t}, nil
}

func runFig1(o cdf.SuiteOptions) ([]*report.Table, error) {
	rows, err := cdf.Fig1ROBOccupancy(o)
	t := &report.Table{
		Title:   "Fig. 1: ROB occupancy during full-window stalls (baseline)",
		Note:    "paper: critical instructions are 10-40% of the dynamic footprint",
		Columns: []string{"benchmark", "critical", "non-critical", "stall-cycles"},
	}
	for _, r := range rows {
		t.AddRow(r.Benchmark, report.Frac(r.CriticalFrac), report.Frac(r.NonCriticalFrac),
			fmt.Sprintf("%d", r.StallCycles))
	}
	return []*report.Table{t}, err
}

// ratioTable fills t with one row per benchmark — the ratios cells picks
// out of a result row, rendered with format — and, when geo is set, a
// geomean row per column.
func ratioTable[R any](t *report.Table, format func(float64) string, geo bool, rows []R, cells func(R) (string, []float64)) []*report.Table {
	cols := make([][]float64, len(t.Columns)-1)
	for _, r := range rows {
		name, vs := cells(r)
		line := []string{name}
		for i, v := range vs {
			line = append(line, format(v))
			cols[i] = append(cols[i], v)
		}
		t.AddRow(line...)
	}
	if geo {
		line := []string{"geomean"}
		for _, c := range cols {
			line = append(line, format(geomean(c)))
		}
		t.AddRow(line...)
	}
	return []*report.Table{t}
}

func runFig13(o cdf.SuiteOptions) ([]*report.Table, error) {
	rows, err := cdf.Fig13Speedup(o)
	return ratioTable(&report.Table{
		Title:   "Fig. 13: IPC improvement over baseline",
		Note:    "paper geomeans: CDF +6.1%, PRE +2.6%",
		Columns: []string{"benchmark", "CDF", "PRE"},
	}, report.Pct, true, rows, func(r cdf.Fig13Row) (string, []float64) {
		return r.Benchmark, []float64{r.CDFSpeedup, r.PRESpeedup}
	}), err
}

func runFig14(o cdf.SuiteOptions) ([]*report.Table, error) {
	rows, err := cdf.Fig14MLP(o)
	return ratioTable(&report.Table{
		Title:   "Fig. 14: MLP relative to baseline",
		Note:    "paper: PRE's MLP gains include wrong-path loads that do not convert to speedup",
		Columns: []string{"benchmark", "CDF", "PRE"},
	}, report.Rel, false, rows, func(r cdf.Fig14Row) (string, []float64) {
		return r.Benchmark, []float64{r.CDFMLPRel, r.PREMLPRel}
	}), err
}

func runFig15(o cdf.SuiteOptions) ([]*report.Table, error) {
	rows, err := cdf.Fig15Traffic(o)
	return ratioTable(&report.Table{
		Title:   "Fig. 15: memory traffic relative to baseline",
		Note:    "paper: CDF generates ~4% less extra traffic than PRE",
		Columns: []string{"benchmark", "CDF", "PRE"},
	}, report.Rel, true, rows, func(r cdf.Fig15Row) (string, []float64) {
		return r.Benchmark, []float64{r.CDFTrafficRel, r.PRETrafficRel}
	}), err
}

func runFig16(o cdf.SuiteOptions) ([]*report.Table, error) {
	rows, err := cdf.Fig16Energy(o)
	return ratioTable(&report.Table{
		Title:   "Fig. 16: energy relative to baseline",
		Note:    "paper geomeans: CDF 0.965x, PRE 1.037x",
		Columns: []string{"benchmark", "CDF", "PRE"},
	}, report.Rel, true, rows, func(r cdf.Fig16Row) (string, []float64) {
		return r.Benchmark, []float64{r.CDFEnergyRel, r.PREEnergyRel}
	}), err
}

func runFig17(o cdf.SuiteOptions) ([]*report.Table, error) {
	rows, err := cdf.Fig17Scaling(o, nil)
	t := &report.Table{
		Title:   "Fig. 17: window scaling (relative to the 352-entry baseline)",
		Note:    "paper: an area-matched scaled baseline gains only 3.7% IPC and 2.5% energy",
		Columns: []string{"ROB", "baseline IPC", "CDF IPC", "baseline energy", "CDF energy"},
	}
	for _, r := range rows {
		t.AddRow(fmt.Sprintf("%d", r.ROBSize),
			report.Rel(r.BaselineIPCRel), report.Rel(r.CDFIPCRel),
			report.Rel(r.BaselineEnergyRel), report.Rel(r.CDFEnergyRel))
	}
	return []*report.Table{t}, err
}

func runAblation(o cdf.SuiteOptions) ([]*report.Table, error) {
	rows, err := cdf.AblationNoCriticalBranches(o)
	return ratioTable(&report.Table{
		Title:   "§4.2 ablation: no critical-branch marking",
		Note:    "paper: geomean falls from +6.1% to +3.8%",
		Columns: []string{"benchmark", "CDF", "CDF (no critical branches)"},
	}, report.Pct, true, rows, func(r cdf.AblationRow) (string, []float64) {
		return r.Benchmark, []float64{r.CDFSpeedup, r.NoCritBranchSpeedup}
	}), err
}

func runHybrid(o cdf.SuiteOptions) ([]*report.Table, error) {
	rows, err := cdf.HybridComparison(o)
	return ratioTable(&report.Table{
		Title:   "§6 extension: CDF + Runahead hybrid",
		Note:    "the hybrid should capture the better of CDF/PRE per benchmark",
		Columns: []string{"benchmark", "CDF", "PRE", "hybrid"},
	}, report.Pct, true, rows, func(r cdf.HybridRow) (string, []float64) {
		return r.Benchmark, []float64{r.CDFSpeedup, r.PRESpeedup, r.HybridSpeedup}
	}), err
}

func runPartition(o cdf.SuiteOptions) ([]*report.Table, error) {
	rows, err := cdf.AblationStaticPartition(o)
	return ratioTable(&report.Table{
		Title:   "§3.5 ablation: dynamic vs static partitioning",
		Note:    "paper: dynamic partitioning significantly improves CDF",
		Columns: []string{"benchmark", "dynamic", "static"},
	}, report.Pct, true, rows, func(r cdf.PartitionAblationRow) (string, []float64) {
		return r.Benchmark, []float64{r.DynamicSpeedup, r.StaticSpeedup}
	}), err
}

func runMaskCache(o cdf.SuiteOptions) ([]*report.Table, error) {
	rows, err := cdf.AblationNoMaskCache(o)
	t := &report.Table{
		Title:   "§3.6 ablation: Mask Cache vs per-walk masks",
		Note:    "paper: the Mask Cache keeps register dependence violations rare",
		Columns: []string{"benchmark", "with", "without", "violations", "violations (no MC)"},
	}
	for _, r := range rows {
		t.AddRow(r.Benchmark, report.Pct(r.Speedup), report.Pct(r.NoMaskSpeedup),
			fmt.Sprintf("%d", r.Violations), fmt.Sprintf("%d", r.NoMaskViolations))
	}
	return []*report.Table{t}, err
}

func runCUCSweep(o cdf.SuiteOptions) ([]*report.Table, error) {
	rows, err := cdf.SweepCUCSize(o, nil)
	t := &report.Table{
		Title:   "Critical Uop Cache capacity sensitivity",
		Note:    "Table 1 sizes the CUC at 18KB",
		Columns: []string{"CUC KB", "CDF geomean"},
	}
	for _, r := range rows {
		t.AddRow(fmt.Sprintf("%d", r.CUCKB), report.Pct(r.CDFSpeedup))
	}
	return []*report.Table{t}, err
}

func runFront(o cdf.SuiteOptions) ([]*report.Table, error) {
	rows, err := cdf.FrontSupply(o)
	t := &report.Table{
		Title: "Instruction supply (DESIGN.md §13): FDIP recovery and shadow-BTB reach",
		Note: "recovery = share of the perfect-L1I IPC gap closed (acceptance floor 0.5); " +
			"btb-stall columns are fetch_stall_btb cycles per kuop with FDIP, without vs with shadow decoding",
		Columns: []string{"benchmark", "timing", "+fdip", "+fdip+shadow", "perfect-l1i",
			"l1i-mpki", "recovery", "recovery+shadow", "btb-stall", "btb-stall+shadow"},
	}
	for _, r := range rows {
		t.AddRow(r.Benchmark,
			fmt.Sprintf("%.3f", r.TimingIPC), fmt.Sprintf("%.3f", r.FDIPIPC),
			fmt.Sprintf("%.3f", r.ShadowIPC), fmt.Sprintf("%.3f", r.PerfectIPC),
			fmt.Sprintf("%.1f", r.L1IMPKI),
			report.Frac(r.Recovery), report.Frac(r.RecoveryShadow),
			fmt.Sprintf("%.1f", r.BTBStallFDIP), fmt.Sprintf("%.1f", r.BTBStallShadow))
	}
	return []*report.Table{t}, err
}
