// Command bench is the repository's benchmark. It drives the simulator from
// outside, through its public entry points — cdf.Run, the cdfsweepd HTTP
// API, and the layer packages' exported functions — on four closed-loop
// workloads, checks every simulated result, and prints metrics by name with
// unit and sample count. The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
//
// Usage (from the repository root; bench/run.sh builds everything first):
//
//	bash bench/run.sh --workload sweep --seed 1 --seconds 20 --trace 0
//	bash bench/run.sh --workload service --seed 2 --seconds 20 --trace 1
//	bash bench/run.sh -compare old.jsonl new.jsonl
//	bash bench/run.sh -regen
//
// Untraced runs (-trace 0) report the end-to-end metrics; traced runs
// (-trace 1) report the per-layer metrics. See README.md for what each
// workload and metric is for.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// cpus is the GOMAXPROCS of every process the benchmark runs, and the
// service's worker count: the reference machine has two cores. The load
// itself comes from one caller (see runLoop), so the collector and the
// service's second worker have a core to run on.
const cpus = 2

// metricDef names one reported metric. Bounds live in BENCHMARK.json; a
// test keeps the two lists in step.
type metricDef struct {
	name, unit, better string
}

// endToEnd are the metrics an untraced run reports, for every workload.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"op_ms_p50", "ms", "lower"},
	{"op_ms_p90", "ms", "lower"},
	{"kuops_per_s", "kuops/s", "higher"},
	{"rss_mb_p50", "MB", "lower"},
}

// perLayer are the metrics a traced run reports, for every workload. A
// layer a workload does not exercise reads 0.
var perLayer = []metricDef{
	// Host-time shares from the CPU profile of the traced passes.
	{"core.cycle.incl_share", "share", "lower"},
	{"core.fetch.incl_share", "share", "lower"},
	{"core.allocate.incl_share", "share", "lower"},
	{"core.issue.incl_share", "share", "lower"},
	{"core.complete.incl_share", "share", "lower"},
	{"core.retire.incl_share", "share", "lower"},
	{"core.end_of_cycle.incl_share", "share", "lower"},
	{"core.skip.incl_share", "share", "lower"},
	{"core.warm.incl_share", "share", "lower"},
	{"emu.self_share", "share", "lower"},
	{"mem.self_share", "share", "lower"},
	{"branch.self_share", "share", "lower"},
	{"internal-cdf.self_share", "share", "lower"},
	{"pre.self_share", "share", "lower"},
	{"front.self_share", "share", "lower"},
	{"stats.self_share", "share", "lower"},
	{"sweepd.incl_share", "share", "lower"},
	{"sweepstore.incl_share", "share", "lower"},
	{"runtime.gc_share", "share", "lower"},
	{"runtime.copy_share", "share", "lower"},

	// Timed calls into single layers (probes.go), the same in every run.
	{"workload.build_us", "us", "lower"},
	{"core.new_us", "us", "lower"},
	{"core.ns_per_cycle_call", "ns", "lower"},
	{"emu.step_ns", "ns", "lower"},
	{"core.warm_observe_ns", "ns", "lower"},
	{"cdf.case_key_us", "us", "lower"},
	{"sweepstore.get_us_p50", "us", "lower"},
	{"sweepstore.get_us_p90", "us", "lower"},
	{"sweepstore.put_us_p50", "us", "lower"},
	{"sweepstore.put_us_p90", "us", "lower"},
	{"sweepd.worker_rtt_ms_p50", "ms", "lower"},
	{"sweepd.worker_rtt_ms_p90", "ms", "lower"},
	{"sweepd.admit_ms_p50", "ms", "lower"},
	{"sweepd.first_row_ms_p50", "ms", "lower"},
	{"sweepd.cold_job_ms_p50", "ms", "lower"},
	{"sweepd.hit_job_ms_p50", "ms", "lower"},
	{"host.calib_ms", "ms", "lower"},
	{"trace.overhead_pct", "%", "lower"},

	// Exact counts at layer boundaries: a change that only speeds the
	// simulator up must leave every one of these unchanged.
	{"core.cycle_calls_per_cycle", "ratio", "lower"},
	{"sweepstore.hits", "count", "higher"},
	{"sweepstore.misses", "count", "lower"},
	{"sweepstore.puts", "count", "lower"},
	{"sweepstore.retries", "count", "lower"},
	{"sweepstore.hit_ratio", "ratio", "higher"},
	{"sweepd.dispatches", "count", "lower"},
	{"sweepd.spawns", "count", "lower"},
	{"sweepd.deaths", "count", "lower"},
	{"sim.cycles_per_kuop", "cycles/kuop", "lower"},
	{"mem.llc_mpki", "mpki", "lower"},
	{"mem.prefetch_useful_ratio", "ratio", "higher"},
	{"branch.mpki", "mpki", "lower"},
	{"front.l1i_mpki", "mpki", "lower"},
	{"front.l1i_prefetch_useful_ratio", "ratio", "higher"},
	{"internal-cdf.cdf_mode_frac", "ratio", "higher"},
	{"pre.runahead_per_kuop", "1/kuop", "higher"},
	{"core.full_window_stall_frac", "ratio", "lower"},
	{"cdf.sampled_skipped_frac", "ratio", "higher"},
	{"cdf.sampled_ci_halfwidth_pct", "%", "lower"},
}

// measured is one metric's value as reported.
type measured struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"` // samples behind the value
}

// report is one run's full record, as appended to the -out file.
type report struct {
	Workload  string              `json:"workload"`
	Seed      uint64              `json:"seed"`
	Trace     bool                `json:"trace"`
	Correct   bool                `json:"correct"`
	Attempted int                 `json:"attempted"`
	Failed    int                 `json:"failed"`
	Metrics   map[string]measured `json:"metrics"`
	// Raw holds the timings before host-speed adjustment and the
	// calibration loop's median, for the record.
	Raw    map[string]float64 `json:"raw,omitempty"`
	Errors []string           `json:"errors,omitempty"`
}

// tally counts attempted and failed operations. Anything that is not an
// operation but still proves a result wrong (a counter mismatch, a failed
// cross-check) marks the run incorrect through bad.
type tally struct {
	attempted int
	failed    int
	bad       bool
	errs      []string
}

// maxErrs bounds the error messages kept for the report.
const maxErrs = 20

func (t *tally) op(err error) {
	t.attempted++
	if err != nil {
		t.failed++
		t.note(err)
	}
}

func (t *tally) check(err error) {
	if err == nil {
		return
	}
	t.bad = true
	t.note(err)
}

func (t *tally) note(err error) {
	if len(t.errs) < maxErrs {
		t.errs = append(t.errs, err.Error())
	}
}

// env is what every workload run needs from the command line.
type env struct {
	seed    uint64
	budget  time.Duration // measured duration
	binDir  string        // cdfsim and cdfsweepd binaries
	workDir string        // per-run scratch directory, removed at exit
	t       *tally
	cal     *calibrator
	raw     map[string]float64
}

// metricSet collects a run's metrics by name.
type metricSet map[string]measured

func (m metricSet) set(name string, value float64, n int) {
	m[name] = measured{Value: value, Unit: unitOf(name), N: n}
}

// setTimings sets an untraced run's timing and memory metrics from its loop
// and the resident-set readings taken during it (see sampleRSS). Timings
// are scaled towards the reference host's speed, each operation and set-up
// by the calibration readings taken around it. coveredPerPass is the uops a
// pass covers; kuops_per_s divides the uops of all passes by the summed
// operation times, so neither calibration nor set-up time counts.
func setTimings(e *env, ms metricSet, loop loopResult, rss []float64, coveredPerPass float64) {
	covered := coveredPerPass * float64(loop.passes)
	setups := loop.setupsAdjusted()
	ms.set("setup_s", median(setups)/1000, len(setups))
	adj := loop.adjusted()
	ms.set("op_ms_p50", median(adj), len(adj))
	ms.set("op_ms_p90", percentile(adj, 90), len(adj))
	ms.set("kuops_per_s", covered/sum(adj), loop.passes)
	ms.set("rss_mb_p50", median(rss), len(rss))

	lat := loop.latencies()
	e.raw["calib_ms"] = median(loop.calib)
	e.raw["setup_s"] = median(loop.millis(true, nil)) / 1000
	e.raw["op_ms_p50"] = median(lat)
	e.raw["op_ms_p90"] = percentile(lat, 90)
	e.raw["kuops_per_s"] = covered / sum(lat)
	noteTail(len(adj))
}

func unitOf(name string) string {
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if d.name == name {
				return d.unit
			}
		}
	}
	panic("bench: metric " + name + " is not declared")
}

func main() {
	var (
		workloadName = flag.String("workload", "", "workload: sweep | sampled | frontend | service")
		seed         = flag.Uint64("seed", 1, "workload seed: sets Options.Seed (service: job seeds 1000*seed+i)")
		seconds      = flag.Int("seconds", 20, "measured duration of the run in seconds")
		traceFlag    = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics; 0 = end-to-end metrics")
		outPath      = flag.String("out", "", "append the run's full record (with sample counts) to this JSON-lines file")
		binDir       = flag.String("bin", ".bench_build/bin", "directory holding the cdfsim and cdfsweepd binaries")
		workRoot     = flag.String("work", ".bench_build", "directory for scratch stores, profiles and trace output")
		regenFlag    = flag.Bool("regen", false, "recompute the golden results into bench/golden.json")
		compareFlag  = flag.Bool("compare", false, "compare two -out files against BENCHMARK.json's bounds: -compare a.jsonl b.jsonl")
	)
	flag.Parse()

	runtime.GOMAXPROCS(cpus)
	os.Setenv("GOMAXPROCS", fmt.Sprint(cpus)) // inherited by cdfsweepd and its workers

	switch {
	case *compareFlag:
		if flag.NArg() != 2 {
			fatalf("-compare needs two result files")
		}
		if err := compare(os.Stdout, "BENCHMARK.json", flag.Arg(0), flag.Arg(1)); err != nil {
			fatalf("%v", err)
		}
		return
	case *regenFlag:
		if err := regenGolden("bench/golden.json"); err != nil {
			fatalf("%v", err)
		}
		return
	}
	if *seconds < 1 {
		fatalf("-seconds must be at least 1")
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		fatalf("-trace must be 0 or 1")
	}
	if err := setSubreaper(); err != nil {
		fatalf("%v", err)
	}
	workDir, err := os.MkdirTemp(mustMkdir(*workRoot), "run-")
	if err != nil {
		fatalf("%v", err)
	}
	e := &env{
		seed:    *seed,
		budget:  time.Duration(*seconds) * time.Second,
		binDir:  *binDir,
		workDir: workDir,
		t:       &tally{},
		cal:     newCalibrator(),
		raw:     map[string]float64{},
	}
	traced := *traceFlag == 1
	var ms metricSet
	switch {
	case *workloadName == "service" && traced:
		ms, err = traceService(e, spansFile(*workRoot, *workloadName, *seed))
	case *workloadName == "service":
		ms, err = runService(e)
	case simWorkloads[*workloadName] != nil && traced:
		ms, err = traceSim(e, simWorkloads[*workloadName], spansFile(*workRoot, *workloadName, *seed))
	case simWorkloads[*workloadName] != nil:
		ms, err = runSim(e, simWorkloads[*workloadName])
	default:
		err = fmt.Errorf("unknown -workload %q (want sweep, sampled, frontend or service)", *workloadName)
	}
	if rerr := os.RemoveAll(workDir); rerr != nil && err == nil {
		err = rerr
	}
	if err != nil {
		// The run could not be carried out at all: no result line.
		fatalf("%v", err)
	}

	defs := endToEnd
	if traced {
		defs = perLayer
	}
	rep := report{Workload: *workloadName, Seed: *seed, Trace: traced, Metrics: map[string]measured{},
		Attempted: e.t.attempted, Failed: e.t.failed, Raw: e.raw}
	for _, d := range defs {
		m, ok := ms[d.name]
		if !ok {
			e.t.check(fmt.Errorf("metric %s was not measured", d.name))
			m = measured{Unit: d.unit}
		}
		rep.Metrics[d.name] = m
	}
	rep.Correct = e.t.failed == 0 && !e.t.bad && e.t.attempted > 0
	rep.Errors = e.t.errs
	if *outPath != "" {
		if err := appendJSONLine(*outPath, rep); err != nil {
			fatalf("%v", err)
		}
	}
	printReport(defs, rep)
	if !rep.Correct {
		os.Exit(1)
	}
}

// printReport writes every metric with its unit and sample count, then the
// result line.
func printReport(defs []metricDef, rep report) {
	for _, msg := range rep.Errors {
		fmt.Fprintln(os.Stderr, "bench: FAIL:", msg)
	}
	fmt.Printf("workload %s seed %d trace %v: attempted %d failed %d correct %v\n",
		rep.Workload, rep.Seed, rep.Trace, rep.Attempted, rep.Failed, rep.Correct)
	for _, d := range defs {
		m := rep.Metrics[d.name]
		fmt.Printf("  %-34s %14.6g %-12s n=%d\n", d.name, m.Value, m.Unit, m.N)
	}
	for _, k := range sortedKeys(rep.Raw) {
		fmt.Printf("  raw %-30s %14.6g\n", k, rep.Raw[k])
	}
	type short struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]short `json:"metrics"`
	}{rep.Correct, rep.Attempted, rep.Failed, map[string]short{}}
	for name, m := range rep.Metrics {
		line.Metrics[name] = short{m.Value, m.Unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Println(string(b))
}

func appendJSONLine(path string, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// spansFile is where a traced run writes its spans and per-layer metrics.
func spansFile(workRoot, workload string, seed uint64) string {
	return filepath.Join(mustMkdir(filepath.Join(workRoot, "trace")), fmt.Sprintf("%s-seed%d.json", workload, seed))
}

func mustMkdir(dir string) string {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fatalf("%v", err)
	}
	return dir
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(2)
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
