// Command cdfsim runs one benchmark on one machine configuration and prints
// the full statistics table.
//
// Usage:
//
//	cdfsim -bench astar -mode cdf -uops 200000
//	cdfsim -bench mcf -timeout 2m -paranoid
//	cdfsim -bench lbm -oracle              # lockstep differential checking
//	cdfsim -cache-dir .sweep               # serve/record in the result cache
//	cdfsim -worker                         # sweep-service worker (see cdfsweepd)
//	cdfsim -list
//	cdfsim -print-config
//
// A run that fails — panic, watchdog-detected deadlock, -timeout, or an
// -oracle divergence — exits non-zero and prints the machine-state snapshot
// captured at the failure. Every run prints its seed, so any failure is
// replayed exactly by rerunning the same -bench, -mode and knobs with
// -seed set to the printed value (add -oracle for a divergence).
//
// With -cache-dir the run goes through the same content-addressed result
// cache the sweep tool uses: a prior result for the exact same (benchmark,
// configuration, code version) is served after integrity verification
// instead of re-simulating, and a fresh result is persisted for later
// runs. The header line says which happened.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"time"

	"cdf"
	"cdf/internal/core"
	"cdf/internal/harness"
	"cdf/internal/oracle"
	"cdf/internal/profiling"
	"cdf/internal/runflags"
	"cdf/internal/sweepd"
	"cdf/internal/sweepstore"
	"cdf/internal/units"
)

func main() {
	var opt cdf.Options
	runflags.Run(flag.CommandLine, &opt)
	runflags.Frontend(flag.CommandLine, &opt)
	startProfiling := profiling.Flags(flag.CommandLine)
	flag.IntVar(&opt.ROBSize, "rob", 0, "ROB size override (0 = Table 1's 352; other structures scale)")
	var (
		bench  = flag.String("bench", "astar", "benchmark kernel to run (see -list)")
		mode   = flag.String("mode", "baseline", "machine: baseline | cdf | pre | hybrid")
		noBr   = flag.Bool("no-critical-branches", false, "disable hard-to-predict branch marking (ablation)")
		list   = flag.Bool("list", false, "list benchmarks and exit")
		prtCfg = flag.Bool("print-config", false, "print the Table 1 configuration and exit")
		traceN = flag.Int("trace", 0, "print the first N pipeline trace events and exit")

		cacheDir = flag.String("cache-dir", "", "content-addressed result cache: serve a verified prior result, else simulate and record")

		workerMode = flag.Bool("worker", false, "sweep-service worker mode: serve case requests on stdin/stdout (see cdfsweepd)")
		chaosSpec  = flag.String("chaos", "", "deterministic fault injection in -worker mode, e.g. seed=1,workerkill=0.2,hbstall=0.1")
	)
	flag.Parse()

	profStop, err := startProfiling()
	if err != nil {
		fmt.Fprintln(os.Stderr, "cdfsim:", err)
		os.Exit(1)
	}
	defer profStop()

	if *workerMode {
		// Subprocess worker for the sweep service: no terminal output, no
		// cache access — the supervisor owns persistence. Exit 0 on clean
		// retirement (stdin EOF); anything else is a protocol failure.
		var chaos *harness.Chaos
		if *chaosSpec != "" {
			chaos, err = harness.ParseChaos(*chaosSpec)
			if err != nil {
				fmt.Fprintln(os.Stderr, "cdfsim:", err)
				os.Exit(2)
			}
		}
		if err := sweepd.RunWorker(os.Stdin, os.Stdout, chaos, 0); err != nil {
			fmt.Fprintln(os.Stderr, "cdfsim:", err)
			os.Exit(1)
		}
		return
	}
	if *prtCfg {
		fmt.Print(cdf.Table1Config())
		return
	}
	if *list {
		for _, b := range cdf.Benchmarks() {
			fmt.Printf("%-12s %-16s expect=%-8s %s\n", b.Name, b.SPEC, b.Expect, b.Phenotype)
		}
		return
	}

	// The seed is always printed so a failing run can be replayed exactly;
	// 0 asks for a fresh one.
	if opt.Seed == 0 {
		opt.Seed = uint64(time.Now().UnixNano())
	}
	fmt.Printf("seed        %d\n", opt.Seed)

	if opt.Mode, err = core.ParseMode(*mode); err != nil {
		fmt.Fprintln(os.Stderr, "cdfsim:", err)
		os.Exit(2)
	}
	if *noBr {
		off := false
		opt.MarkCriticalBranches = &off
	}

	if *traceN > 0 {
		if _, err := tracedRun(*bench, opt, &core.TextTracer{W: os.Stdout, MaxEvents: *traceN}); err != nil {
			fmt.Fprintln(os.Stderr, "cdfsim:", err)
			printFailureDetail(os.Stderr, err)
			profStop()
			os.Exit(1)
		}
		return
	}

	var (
		res       cdf.Result
		fromCache bool
	)
	if *cacheDir != "" {
		// Opened in resume mode: cdfsim shares the store with sweep runs and
		// must never truncate a sweep's journal just to do one lookup.
		store, serr := sweepstore.Open(*cacheDir, true)
		if serr != nil {
			fmt.Fprintln(os.Stderr, "cdfsim:", serr)
			profStop()
			os.Exit(1)
		}
		res, fromCache, err = cdf.RunCached(context.Background(), store, *bench, opt)
		if cerr := store.Close(); cerr != nil && err == nil {
			err = cerr
		}
	} else {
		res, err = cdf.Run(*bench, opt)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "cdfsim:", err)
		printFailureDetail(os.Stderr, err)
		profStop()
		os.Exit(1)
	}

	if *cacheDir != "" {
		if fromCache {
			fmt.Printf("cache       hit (result served from %s)\n", *cacheDir)
		} else {
			fmt.Printf("cache       miss (simulated; result recorded to %s)\n", *cacheDir)
		}
	}
	fmt.Printf("benchmark   %s (%s)\n", res.Benchmark, *mode)
	fmt.Printf("stop reason %s\n", res.StopReason)
	fmt.Printf("cycles      %d\n", res.Cycles)
	fmt.Printf("uops        %d\n", res.Uops)
	fmt.Printf("ipc         %.4f\n", res.IPC)
	if s := res.Sample; s != nil {
		fmt.Printf("sampled     %d intervals of %s uops (%d measured + %d warmup each), %s fast-forwarded\n",
			s.Intervals, units.FormatUops(s.IntervalUops),
			s.MeasuredUops/uint64(s.Intervals), s.WarmupUops/uint64(s.Intervals),
			units.FormatUops(s.SkippedUops))
		if s.CIOK {
			fmt.Printf("ipc 95%% ci  [%.4f, %.4f] (stderr %.4f)\n", s.CILow, s.CIHigh, s.IPCStderr)
		}
	}
	fmt.Printf("energy      %.4e pJ (area %.3fx, cdf share %.1f%%)\n",
		res.EnergyPJ, res.AreaRel, 100*res.CDFAreaFrac)
	fmt.Println()
	for _, m := range res.Metrics {
		fmt.Printf("  %-28s %14.3f\n", m.Name, m.Value)
	}
}

// tracedRun runs the benchmark with tr attached to the machine cdf.Run
// builds for opt and returns the finished core.
func tracedRun(bench string, opt cdf.Options, tr core.Tracer) (*core.Core, error) {
	c, err := cdf.NewCore(bench, opt)
	if err != nil {
		return nil, err
	}
	c.SetTracer(tr)
	if _, err := harness.Exec(context.Background(), c, harness.Options{Timeout: opt.Timeout, Seed: opt.Seed}); err != nil {
		return nil, err
	}
	return c, nil
}

// printFailureDetail expands a failed run's error: the per-field mismatch
// list and reference state for divergences, and the machine-state snapshot
// when one was captured.
func printFailureDetail(w *os.File, err error) {
	var div *oracle.DivergenceError
	if errors.As(err, &div) {
		for _, m := range div.Mismatch {
			fmt.Fprintln(w, "  mismatch:", m)
		}
		fmt.Fprintln(w, "  reference:", div.Ref)
	}
	var sim *harness.SimError
	if errors.As(err, &sim) && sim.HasSnap {
		fmt.Fprintln(w, sim.Snap.String())
	}
}
