// Package cdf is the public API of the Criticality Driven Fetch
// reproduction (Deshmukh & Patt, MICRO 2021). It wraps the cycle-level
// simulator in internal/core, the benchmark suite in internal/workload, and
// the McPAT/CACTI-style energy model in internal/energy, and provides one
// runner per table and figure of the paper's evaluation (experiments.go,
// extensions.go), each a list of machine variants run over the suite and
// a derivation of its rows from their results.
//
// Quick start:
//
//	res, err := cdf.Run("astar", cdf.Options{Mode: cdf.ModeCDF})
//	fmt.Printf("IPC %.3f\n", res.IPC)
//
// Compare the three machines of the paper:
//
//	rows, err := cdf.Fig13Speedup(cdf.SuiteOptions{})
package cdf

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"time"

	"cdf/internal/core"
	"cdf/internal/energy"
	"cdf/internal/front"
	"cdf/internal/harness"
	"cdf/internal/oracle"
	"cdf/internal/stats"
	"cdf/internal/sweepstore"
	"cdf/internal/workload"
)

// Mode selects the simulated machine.
type Mode = core.Mode

// StopReason classifies how a run ended (see core.StopReason). Results
// whose StopReason is not StopCompleted carry truncated statistics; Run
// returns an error for them, and suite sweeps exclude them from geomeans.
type StopReason = core.StopReason

// Stop reasons.
const (
	StopCompleted   = core.StopCompleted
	StopCycleBudget = core.StopCycleBudget
	StopWatchdog    = core.StopWatchdog
	StopDivergence  = core.StopDivergence
)

// The three machines of the evaluation, plus the §6 future-work extension.
const (
	ModeBaseline = core.ModeBaseline // aggressive OoO + stream prefetching
	ModeCDF      = core.ModeCDF      // baseline + Criticality Driven Fetch
	ModePRE      = core.ModePRE      // baseline + Precise Runahead
	// ModeHybrid combines CDF with runahead during non-CDF full-window
	// stalls — the combination §6 proposes as future work.
	ModeHybrid = core.ModeHybrid
)

// Options configures one simulation run.
type Options struct {
	Mode Mode

	// MaxUops bounds the run length (0 = DefaultMaxUops). Kernels are
	// steady-state loops, so this plays the role of the paper's SimPoint
	// length.
	MaxUops uint64

	// WarmupUops warms caches, predictors and the criticality machinery
	// before statistics start (the paper warms for 200M instructions
	// before each SimPoint). The measured region is MaxUops - WarmupUops.
	// With Sampling it is the cold-start skip: the sampling strata begin
	// at WarmupUops (the skipped region is fast-forwarded with functional
	// warming), so measurement covers only steady state.
	WarmupUops uint64

	// ROBSize scales the instruction window (0 = Table 1's 352); the other
	// window structures scale proportionally (Fig. 17's rule).
	ROBSize int

	// MarkCriticalBranches controls §3.2's hard-to-predict branch marking;
	// nil means the Table 1 default (on). The §4.2 ablation sets it false.
	MarkCriticalBranches *bool

	// TrainCriticality runs the marking machinery observe-only in baseline
	// mode (needed for the Fig. 1 ROB-occupancy measurement).
	TrainCriticality bool

	// StaticPartition freezes the backend partitions at their initial skew
	// (the §3.5 dynamic-partitioning ablation).
	StaticPartition bool

	// NoMaskCache disables cross-path criticality-mask accumulation (the
	// §3.6 Mask Cache ablation — expect more dependence violations).
	NoMaskCache bool

	// CUCKB overrides the Critical Uop Cache capacity in KB (0 = Table 1's
	// 18KB); used by the capacity-sensitivity sweep.
	CUCKB int

	// Seed drives the deterministic wrong-path models.
	Seed uint64

	// Timeout bounds the run's wall-clock time; an expired run fails with
	// a *harness.SimError carrying a machine snapshot (0 = no limit).
	Timeout time.Duration

	// Paranoid runs core.CheckInvariants every few thousand cycles during
	// the run, turning silent state corruption into an immediate
	// diagnosable failure. Costs roughly 2x wall-clock.
	Paranoid bool

	// Oracle runs the functional emulator in lockstep with the cycle core
	// and checks every retired uop's architectural effect (destination
	// value, store address/data, branch direction/target, halt). A mismatch
	// aborts the run with a *harness.SimError whose cause is the
	// *oracle.DivergenceError carrying both machines' states.
	Oracle bool

	// Frontend enables the instruction-supply engine (internal/front;
	// DESIGN.md §13) and unlocks PerfectL1I, FDIP and ShadowBTB. Every
	// machine times its L1I and reports l1i_mpki and the fetch-stall split;
	// Frontend alone changes no cycle or counter, only the energy bill,
	// which then includes the FTQ and walker area.
	Frontend bool

	// PerfectL1I keeps the timed frontend's accounting but makes every
	// instruction fetch hit (the upper bound FDIP recovery is measured
	// against). Requires Frontend.
	PerfectL1I bool

	// FDIP adds the decoupled fetch-directed instruction prefetcher: an
	// FTQ-driven walker runs ahead of fetch and prefetches instruction
	// lines into the L1I under accuracy-based throttling. Requires
	// Frontend; incompatible with PerfectL1I.
	FDIP bool

	// ShadowBTB adds shadow-branch decoding: branches found in fetched
	// lines are decoded into a shadow BTB that backs up the main BTB on
	// target misses and extends the FDIP walker's reach. Requires Frontend.
	ShadowBTB bool

	// SlowPath runs the reference cycle loop instead of the optimised
	// scheduler and event-driven idle skip (core.Config.SlowPath). The two
	// paths produce bit-identical results; this exists for the -slowpath
	// CLI flag, equivalence tests, and benchmarking the unoptimised loop.
	SlowPath bool

	// Sampling enables sampled simulation (see the Sampling type): the
	// emulator fast-forwards between cycle-accurate measured intervals,
	// making MaxUops budgets 100x longer tractable at near-constant cost.
	// WarmupUops shifts the sampling schedule past the cold start.
	Sampling Sampling
}

// DefaultMaxUops is the per-run instruction budget when Options.MaxUops is
// zero: long enough for several fill-buffer walk epochs and steady-state
// behaviour, short enough that the full suite runs in seconds.
const DefaultMaxUops = 100_000

// paranoidCheckEvery is the invariant-check period for Options.Paranoid.
const paranoidCheckEvery = 2048

// effectiveMaxUops returns the run budget with the zero default applied.
func (o Options) effectiveMaxUops() uint64 {
	if o.MaxUops == 0 {
		return DefaultMaxUops
	}
	return o.MaxUops
}

// Validate checks the options. Every entry point calls it, so an invalid
// combination fails fast instead of being silently clamped into a run
// that measures something other than what was asked for.
func (o Options) Validate() error {
	switch o.Mode {
	case ModeBaseline, ModeCDF, ModePRE, ModeHybrid:
	default:
		return fmt.Errorf("cdf: unknown mode %d", int(o.Mode))
	}
	if max := o.effectiveMaxUops(); o.WarmupUops >= max {
		return fmt.Errorf("cdf: WarmupUops (%d) must be below the run budget (%d uops): the measured region would be empty",
			o.WarmupUops, max)
	}
	if o.ROBSize < 0 {
		return fmt.Errorf("cdf: negative ROBSize %d", o.ROBSize)
	}
	if o.CUCKB < 0 {
		return fmt.Errorf("cdf: negative CUCKB %d", o.CUCKB)
	}
	if o.Timeout < 0 {
		return fmt.Errorf("cdf: negative Timeout %v", o.Timeout)
	}
	if !o.Frontend && (o.PerfectL1I || o.FDIP || o.ShadowBTB) {
		return fmt.Errorf("cdf: PerfectL1I/FDIP/ShadowBTB require Frontend")
	}
	if err := o.Sampling.validate(o.effectiveMaxUops(), o.WarmupUops); err != nil {
		return err
	}
	// The machine's own rules (structure sizes, frontend combinations)
	// live with the machine; checking the materialized config here keeps
	// a case that core.New would reject out of caches and queues.
	if err := o.CoreConfig().Validate(); err != nil {
		return fmt.Errorf("cdf: %w", err)
	}
	return nil
}

// CoreConfig materializes the machine configuration the options describe:
// the one place cdf.Options knobs become core.Config fields. The options
// must have passed Validate.
func (o Options) CoreConfig() core.Config {
	cfg := core.Default()
	cfg.Mode = o.Mode
	cfg.MaxRetired = o.effectiveMaxUops()
	cfg.WarmupRetired = o.WarmupUops
	// Backstop against pathological configurations; generous enough that
	// no benchmark/mode hits it in practice. The forward-progress
	// watchdog (core.Config.WatchdogCycles, set by core.Default) aborts
	// true deadlocks long before this.
	cfg.MaxCycles = cfg.MaxRetired * 100
	if o.Paranoid {
		cfg.ParanoidEvery = paranoidCheckEvery
	}
	if o.ROBSize > 0 {
		cfg = core.ScaleWindow(cfg, o.ROBSize)
	}
	if o.MarkCriticalBranches != nil {
		cfg.CDF.MarkCriticalBranches = *o.MarkCriticalBranches
	}
	cfg.CDF.DisableDynamicPartition = o.StaticPartition
	cfg.CDF.DisableMaskCache = o.NoMaskCache
	if o.CUCKB > 0 {
		cfg.CDF.CUCLines = o.CUCKB * 1024 / 64
	}
	if o.Frontend {
		fc := front.Default()
		fc.PerfectL1I = o.PerfectL1I
		fc.FDIP = o.FDIP
		fc.ShadowBTB = o.ShadowBTB
		cfg.Front = fc
		if o.FDIP {
			// The prefetcher shares the L1I MSHRs with demand fetch; give
			// it headroom so prefetches don't starve demand misses.
			cfg.Mem.L1IMSHRs = 16
		}
	}
	cfg.TrainCriticality = o.TrainCriticality
	cfg.SlowPath = o.SlowPath
	if o.Seed != 0 {
		cfg.Seed = o.Seed
	}
	return cfg
}

// Metric is one named statistic in a Result.
type Metric struct {
	Name  string
	Value float64
}

// Result summarizes one run. Every statistics counter and derived metric
// (mlp, mem_traffic, stall_rob_crit_frac, ...) lives only in Metrics, one
// row per stats.Table entry, and is read with Metric. The fields kept
// beside it are not table rows (the run's identity, how it stopped, the
// energy model's output, the sampling summary) or are the run's headline
// figures: Cycles, Uops and IPC, which for a sampled run are the
// measured-region totals and the SMARTS estimator rather than the table's
// pooled rows.
type Result struct {
	Benchmark string
	Mode      Mode

	// StopReason records how the run ended. Results returned without an
	// error always carry StopCompleted; it is threaded through so report
	// code can assert it.
	StopReason StopReason

	Cycles uint64
	Uops   uint64
	IPC    float64

	// EnergyPJ is the modelled total energy (Fig. 16/17's metric; relative
	// use only).
	EnergyPJ float64
	// AreaRel is modelled area relative to the Table 1 baseline core.
	AreaRel float64
	// CDFAreaFrac is the CDF structures' share of total area (§4.3 reports
	// 3.2%).
	CDFAreaFrac float64

	// Metrics carries the complete counter table.
	Metrics []Metric

	// Sample is set only for sampled runs (Options.Sampling): how the run
	// was measured and the interval statistics behind the IPC estimate.
	// For sampled runs IPC is the mean of interval IPCs (the estimator
	// the 95% CI describes), Cycles/Uops are measured-region totals, and
	// EnergyPJ covers only the measured regions.
	Sample *SampleSummary `json:",omitempty"`
}

// Metric returns the named row from the Metrics table: a counter under its
// stat tag name or a derived metric such as "ipc" (0 if absent — the table
// carries every stats field, so a miss means a misspelt name, which
// TestMetricNamesAreTableRows catches for every literal name in the tree).
func (r Result) Metric(name string) float64 {
	for _, m := range r.Metrics {
		if m.Name == name {
			return m.Value
		}
	}
	return 0
}

// BenchmarkInfo describes one suite kernel.
type BenchmarkInfo struct {
	Name      string
	SPEC      string // the SPEC benchmark this kernel is the stand-in for
	Phenotype string
	Expect    string // the paper's qualitative winner: cdf / pre / both / neither
	// Frontend marks the instruction-supply-bound kernels beyond the
	// paper's suite; the Fig. 13–17 default sweeps skip them (FrontSupply
	// drives them instead).
	Frontend bool
}

// Benchmarks lists the suite (one kernel per paper benchmark plus the
// frontend-bound family), name-sorted.
func Benchmarks() []BenchmarkInfo {
	ws := workload.All()
	out := make([]BenchmarkInfo, len(ws))
	for i, w := range ws {
		out[i] = BenchmarkInfo{Name: w.Name, SPEC: w.SPEC, Phenotype: w.Phenotype, Expect: w.Expect, Frontend: w.Frontend}
	}
	return out
}

// Run simulates one benchmark under opt and returns its Result.
func Run(benchmark string, opt Options) (Result, error) {
	return RunContext(context.Background(), benchmark, opt)
}

// RunContext is Run with cancellation. The simulation executes under the
// hardened harness: panics inside the simulator are recovered into a
// *harness.SimError with a machine-state snapshot, a wedged machine is
// aborted by the forward-progress watchdog, and truncated runs (cycle
// budget, watchdog, timeout, cancellation) return errors instead of
// silently reporting partial statistics.
func RunContext(ctx context.Context, benchmark string, opt Options) (Result, error) {
	if opt.Sampling.Enabled() {
		return runSampled(ctx, benchmark, opt)
	}
	c, err := NewCore(benchmark, opt)
	if err != nil {
		return Result{}, err
	}
	reason, err := harness.Exec(ctx, c, harness.Options{Timeout: opt.Timeout, Seed: opt.Seed})
	if err != nil {
		return Result{}, fmt.Errorf("cdf: %s/%s: %w", benchmark, opt.Mode, err)
	}
	// A normal finish: the harness's goroutine is done with the core.
	c.Recycle()
	cfg := opt.CoreConfig()
	if c.Retired() < cfg.MaxRetired {
		return Result{}, fmt.Errorf("cdf: %s/%s retired only %d/%d uops in %d cycles",
			benchmark, opt.Mode, c.Retired(), cfg.MaxRetired, c.Cycles())
	}
	res := buildResult(benchmark, opt.Mode, cfg, c.Stats())
	res.StopReason = reason
	return res, nil
}

// NewCore builds the machine Run simulates for benchmark under opt, with
// the lockstep oracle attached when opt.Oracle is set, for callers that
// drive it themselves (a tracer, a training run). A sampled run drives a
// series of machines rather than one, so opt.Sampling must be off.
func NewCore(benchmark string, opt Options) (*core.Core, error) {
	w, err := lookup(benchmark, opt)
	if err != nil {
		return nil, err
	}
	if opt.Sampling.Enabled() {
		return nil, fmt.Errorf("cdf: %s/%s: a sampled run has no single machine to build", benchmark, opt.Mode)
	}
	prg, mem := w.Build()
	c, err := core.New(opt.CoreConfig(), prg, mem)
	if err != nil {
		return nil, fmt.Errorf("cdf: %s/%s: %w", benchmark, opt.Mode, err)
	}
	if opt.Oracle {
		// Attach before the first cycle: the checker clones the initial
		// memory, which the core's own emulator mutates as it runs ahead.
		oracle.Attach(c, prg, mem)
	}
	return c, nil
}

// lookup validates opt and returns benchmark's workload.
func lookup(benchmark string, opt Options) (workload.Workload, error) {
	if err := opt.Validate(); err != nil {
		return workload.Workload{}, fmt.Errorf("%w (benchmark %s)", err, benchmark)
	}
	return workload.ByName(benchmark)
}

func buildResult(benchmark string, mode Mode, cfg core.Config, st *stats.Stats) Result {
	rep := energy.Compute(energyParams(cfg), st)
	res := Result{
		Benchmark: benchmark,
		Mode:      mode,

		Cycles:      st.Cycles,
		Uops:        st.RetiredUops,
		IPC:         st.IPC(),
		EnergyPJ:    rep.TotalPJ,
		AreaRel:     rep.AreaRel,
		CDFAreaFrac: rep.CDFAreaFrac,
	}
	for _, row := range st.Table() {
		res.Metrics = append(res.Metrics, Metric{Name: row.Name, Value: row.Value})
	}
	return res
}

// energyParams maps a core configuration onto the energy model.
func energyParams(cfg core.Config) energy.Params {
	p := energy.Params{
		Width:   cfg.Width,
		ROBSize: cfg.ROBSize,
		RSSize:  cfg.RSSize,
		LQSize:  cfg.LQSize,
		SQSize:  cfg.SQSize,
		PRFSize: cfg.PRFSize,

		L1ISizeBytes: cfg.Mem.L1ISizeBytes,
		L1DSizeBytes: cfg.Mem.L1DSizeBytes,
		LLCSizeBytes: cfg.Mem.LLCSizeBytes,
		FreqGHz:      3.2,
	}
	if cfg.Mode != ModeBaseline {
		p.CDFEnabled = true
		p.CUCBytes = cfg.CDF.CUCLines * 64
		p.MaskBytes = cfg.CDF.MaskEntries * 8
		p.FillBufBytes = cfg.CDF.FillBufferSize * 16
		p.FIFOBytes = cfg.CDF.DBQSize*4 + cfg.CDF.CMQSize*2
	}
	if cfg.Front.Enabled {
		p.FrontEnabled = true
		p.FTQBytes = cfg.Front.FTQSize * 8 // one line address per entry
		if cfg.Front.ShadowBTB {
			// Tag + target per entry, like the main BTB.
			p.ShadowBTBBytes = cfg.Front.ShadowEntries * 16
		}
	}
	return p
}

// RunError is one failed run inside a sweep.
type RunError struct {
	Benchmark string
	Mode      Mode
	Err       error
}

// Error implements error.
func (e RunError) Error() string { return fmt.Sprintf("%s/%s: %v", e.Benchmark, e.Mode, e.Err) }

// Unwrap exposes the underlying failure (e.g. a *harness.SimError).
func (e RunError) Unwrap() error { return e.Err }

// SweepError aggregates the failed runs of a parallel sweep. Experiment
// functions return it *alongside* their rows: benchmarks whose runs all
// succeeded still produce rows (and geomeans fold only those), while the
// failures — each typically a *harness.SimError with a machine-state
// snapshot — are reported here so callers can render partial tables and
// exit non-zero.
type SweepError struct {
	Failures []RunError
}

// Error summarizes the failures, one line each.
func (e *SweepError) Error() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%d simulation run(s) failed", len(e.Failures))
	for _, f := range e.Failures {
		fmt.Fprintf(&sb, "\n  %s", f.Error())
	}
	return sb.String()
}

// Unwrap exposes the individual failures to errors.Is/As, so callers can
// probe for e.g. context.Canceled or *harness.SimError without walking
// Failures by hand.
func (e *SweepError) Unwrap() []error {
	errs := make([]error, len(e.Failures))
	for i, f := range e.Failures {
		errs[i] = f
	}
	return errs
}

// orNil converts a possibly-nil *SweepError into a plain error without
// the typed-nil-in-interface trap.
func (e *SweepError) orNil() error {
	if e == nil || len(e.Failures) == 0 {
		return nil
	}
	sort.SliceStable(e.Failures, func(i, j int) bool {
		if e.Failures[i].Benchmark != e.Failures[j].Benchmark {
			return e.Failures[i].Benchmark < e.Failures[j].Benchmark
		}
		return e.Failures[i].Mode < e.Failures[j].Mode
	})
	return e
}

// variant is one machine of an experiment: the mode it runs plus the
// knobs that set it apart from the Table 1 machine (set may be nil).
type variant struct {
	mode Mode
	set  func(*Options)
}

// grid runs every benchmark under every variant, from o.Base, as a single
// runCases call. It returns each benchmark's results in variant order,
// nil where a run failed; the failures come back in the error (a
// *SweepError), sorted by benchmark and mode and otherwise in variant
// order.
func (o SuiteOptions) grid(benches []string, variants []variant) ([][]*Result, error) {
	cases := make([]sweepCase, 0, len(benches)*len(variants))
	for _, b := range benches {
		for _, v := range variants {
			opt := o.Base
			opt.Mode = v.mode
			if v.set != nil {
				v.set(&opt)
			}
			cases = append(cases, sweepCase{b, opt})
		}
	}
	done, sweep := runCases(o.ctx(), cases, o)
	out := make([][]*Result, len(benches))
	for i := range out {
		out[i] = done[i*len(variants):][:len(variants):len(variants)]
	}
	return out, sweep.orNil()
}

// sweepCase is one run of a sweep.
type sweepCase struct {
	bench string
	opt   Options
}

// runCases runs every case on a bounded worker pool with failure
// isolation: one wedged, panicking, or timed-out run is recorded in the
// returned *SweepError (and its result is nil) while the rest of the
// sweep completes.
//
// With so.Store set the sweep is additionally crash-safe: cases whose
// verified results are cached are served without simulating, and every
// newly simulated case is cached and journaled durably before the pool
// moves on. Transient failures are retried under so.Retries with capped
// exponential backoff; deterministic failures fail fast (CaseExecutor).
// A so.Base that sets a machine knob fails every case with ErrMachineKnob.
func runCases(ctx context.Context, cases []sweepCase, so SuiteOptions) ([]*Result, *SweepError) {
	results := make([]*Result, len(cases))
	baseErr := so.checkBase()
	errs := harness.Pool(ctx, so.Jobs, len(cases), func(ctx context.Context, i int) error {
		if baseErr != nil {
			return baseErr
		}
		res, _, err := runCase(ctx, cases[i].bench, cases[i].opt, so)
		if err == nil {
			results[i] = &res
		}
		return err
	})
	var sweep *SweepError
	for i, err := range errs {
		if err != nil {
			if sweep == nil {
				sweep = &SweepError{}
			}
			sweep.Failures = append(sweep.Failures, RunError{cases[i].bench, cases[i].opt.Mode, err})
		}
	}
	return results, sweep
}

// CaseKey is the content address of one run: a stable hash of the
// benchmark name, the fully materialized machine configuration (every
// knob, the seed, the run budget), the oracle setting, and the simulator
// code version. Two runs share a key only when nothing that could change
// their result — or its level of verification — differs.
func CaseKey(benchmark string, opt Options) (string, error) {
	if err := opt.Validate(); err != nil {
		return "", err
	}
	desc := struct {
		Bench    string      `json:"bench"`
		Oracle   bool        `json:"oracle"`
		Sampling Sampling    `json:"sampling"`
		Config   core.Config `json:"config"`
	}{benchmark, opt.Oracle, opt.Sampling.effective(), opt.CoreConfig()}
	return sweepstore.Key(sweepstore.CodeVersion(), desc)
}

// RunCached is RunContext backed by a result store: a verified cache hit
// is returned without simulating (fromCache true); a miss simulates,
// persists, and journals the result durably. A nil store degrades to
// plain RunContext.
func RunCached(ctx context.Context, store *sweepstore.Store, benchmark string, opt Options) (res Result, fromCache bool, err error) {
	return runCase(ctx, benchmark, opt, SuiteOptions{Store: store})
}

// runCase executes one case in-process under the sweep's CaseExecutor
// policy (cache, retries under so.Retries, persistence), with so.Chaos
// injected per attempt.
func runCase(ctx context.Context, bench string, opt Options, so SuiteOptions) (Result, bool, error) {
	x := CaseExecutor{Store: so.Store, Retries: so.Retries}
	if so.RetryBackoff != nil {
		x.Backoff = *so.RetryBackoff
	}
	res, fromCache, err := x.Run(ctx, bench, opt, func(ctx context.Context, caseID string, n int) (Result, error) {
		return RunAttempt(ctx, bench, opt, so.Chaos, caseID, n)
	})
	if err == nil && !fromCache {
		// The kill (if armed) fires only after the case is durable:
		// exactly the window the resume equivalence proof needs.
		so.Chaos.CaseSimulated()
	}
	return res, fromCache, err
}
