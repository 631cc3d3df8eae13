package cdf

import (
	"context"
	"fmt"

	"cdf/internal/core"
	"cdf/internal/emu"
	"cdf/internal/harness"
	"cdf/internal/oracle"
	"cdf/internal/prog"
	"cdf/internal/stats"
)

// Sampling configures sampled simulation (SMARTS/SimPoint-style systematic
// sampling, DESIGN.md §12): the functional emulator fast-forwards the
// program at emulation speed, continuously warming caches, branch
// predictor and criticality tables, and once per Interval uops a measured
// region runs on the cycle core — a detached Warmup prefix that settles
// pipeline-local state, then Measure uops of cycle-accurate statistics.
// Per-interval CPIs feed a mean/stderr/95%-CI estimate of the full run's
// IPC at a small fraction of its cost.
type Sampling struct {
	// Interval is the sampling period in uops; 0 disables sampling. The
	// k-th warmup+measure block lands at a seeded pseudo-random offset
	// within [k*Interval, (k+1)*Interval): a fixed offset — always the same
	// phase of every period — systematically over- or under-samples
	// programs whose own phase length aliases against the sampling period,
	// and ramps as structures train make end-of-interval placement biased
	// even without aliasing. Random placement within each stratum is the
	// classic systematic-sampling fix; it is deterministic in the run seed.
	Interval uint64

	// Measure is the cycle-accurate measured length per interval
	// (0 = Interval/16).
	Measure uint64

	// Warmup is the detached cycle-accurate warmup run before each
	// measured region, excluded from statistics (0 = Measure/2).
	Warmup uint64
}

// Enabled reports whether sampled simulation is requested.
func (s Sampling) Enabled() bool { return s.Interval > 0 }

// effective returns s with the zero defaults resolved. Disabled sampling
// stays the zero value, so cache keys of unsampled runs are unaffected.
func (s Sampling) effective() Sampling {
	if !s.Enabled() {
		return Sampling{}
	}
	if s.Measure == 0 {
		s.Measure = s.Interval / 16
		if s.Measure == 0 {
			s.Measure = 1
		}
	}
	if s.Warmup == 0 {
		s.Warmup = s.Measure / 2
	}
	return s
}

// blockOffset returns where the warmup+measure block starts within the
// k-th interval, uniform over the legal range [0, Interval-Warmup-Measure]
// and deterministic in the seed (the canonical splitmix64 stream, so
// consecutive intervals draw independent offsets).
func (s Sampling) blockOffset(seed, k uint64) uint64 {
	span := s.Interval - s.Warmup - s.Measure
	if span == 0 {
		return 0
	}
	return emu.SplitMix64(seed+k*0x9E3779B97F4A7C15) % (span + 1)
}

// validate checks the sampling block against the run budget.
func (s Sampling) validate(maxUops, warmupUops uint64) error {
	if !s.Enabled() {
		if s.Measure != 0 || s.Warmup != 0 {
			return fmt.Errorf("cdf: Sampling.Measure/Warmup set without Sampling.Interval")
		}
		return nil
	}
	e := s.effective()
	if e.Warmup+e.Measure > e.Interval {
		return fmt.Errorf("cdf: sampling warmup+measure (%d+%d) exceeds the interval (%d)",
			e.Warmup, e.Measure, e.Interval)
	}
	if warmupUops+e.Interval > maxUops {
		return fmt.Errorf("cdf: sampling interval (%d) exceeds the run budget (%d uops after %d warmup): no interval would be measured",
			e.Interval, maxUops, warmupUops)
	}
	return nil
}

// SampleSummary reports how a sampled run was measured and the interval
// statistics behind its IPC estimate.
type SampleSummary struct {
	Intervals    int    // measured intervals
	IntervalUops uint64 // sampling period
	MeasuredUops uint64 // retired cycle-accurately into statistics
	WarmupUops   uint64 // retired cycle-accurately as detached warmup
	SkippedUops  uint64 // fast-forwarded at emulation speed

	// IPCMean is the SMARTS estimator (Result.IPC for sampled runs): the
	// inverse of the mean per-interval CPI. Intervals hold (nearly) equal
	// instruction counts, so mean CPI estimates aggregate cycles-per-uop
	// and its inverse estimates the full run's uops/cycles — averaging
	// interval IPCs directly would be biased high on phase-varying
	// programs (Jensen). IPCStderr maps the CPI standard error through the
	// inversion (delta method); the CI bounds are the inverted CPI
	// interval, widened by a fixed warm-state bias allowance
	// (sampleBiasFrac) so they cover non-sampling error too. All three are
	// valid only when CIOK (at least two intervals; a single interval has
	// a point estimate but no error bound).
	IPCMean   float64
	IPCStderr float64
	CILow     float64
	CIHigh    float64
	CIOK      bool

	// PooledIPC is total measured uops over total measured cycles. It
	// differs from IPCMean only by retire-width overshoot making interval
	// lengths slightly unequal.
	PooledIPC float64
}

// sampler phases.
const (
	phaseFF       = iota // fast-forward with functional warming (fastforward.go)
	phaseInterval        // driving the current interval core
	phaseDone
)

// sampleBiasFrac widens the reported confidence interval by a fixed
// fraction of the mean CPI. The t-interval over per-interval CPIs covers
// sampling error only; functional warming leaves a small systematic
// residual (timing-free FDP and wrong-path surrogates, walk epochs without
// machinery latency) that interval variance cannot see — on near-constant
// kernels the sampling CI collapses to a fraction of a percent while the
// warm-state residual, measured at up to ~1.2% across the kernel × mode
// matrix, does not. The reported interval is therefore sampling CI plus
// this non-sampling allowance, so its coverage is honest for both sources
// of error.
const sampleBiasFrac = 0.02

// sampler drives one sampled run. It implements harness.Sim, so panic
// recovery, timeouts and cancellation work exactly as for a plain core;
// during a measured interval each Cycle() is one core cycle, so failure
// snapshots land on the interval core that failed.
type sampler struct {
	opt  Options
	samp Sampling
	prg  *prog.Program
	icfg core.Config // per-interval core configuration

	master *emu.Emulator
	warmer *core.Warmer
	ff     *ffPipe // the fast-forward pipeline over master and warmer

	end      uint64 // total uop budget
	base     uint64 // uops skipped (with warming) before the first stratum
	seed     uint64 // resolved core seed; also drives block placement
	kIdx     uint64 // index of the next (or current) interval
	nextCkpt uint64 // master position where the next interval starts
	phase    int

	cur *core.Core // current (or most recent) interval core

	total    stats.Stats     // merged measured-region counters
	ivs      stats.Intervals // per-interval CPIs
	measured uint64
	warmed   uint64
	nIvl     int

	reason core.StopReason
	err    error // fatal interval failure (classified by the harness)

	// softErr records a clean-but-unusable run: the program halted before
	// the sampling schedule completed. The harness sees a completed run;
	// runSampled surfaces this afterwards, mirroring the full-run error
	// for programs that end before MaxUops.
	softErr error
}

// Finished implements harness.Sim.
func (s *sampler) Finished() bool { return s.phase == phaseDone }

// StopReason implements harness.Sim.
func (s *sampler) StopReason() core.StopReason { return s.reason }

// Err surfaces the failing interval's error (harness errSim).
func (s *sampler) Err() error { return s.err }

// Snapshot implements harness.Sim: the current interval core's state, or a
// zero snapshot while fast-forwarding (no machine state exists then).
func (s *sampler) Snapshot() core.Snapshot {
	if s.cur != nil {
		return s.cur.Snapshot()
	}
	return core.Snapshot{}
}

// Cycle implements harness.Sim.
func (s *sampler) Cycle() {
	switch s.phase {
	case phaseFF:
		s.fastForward()
	case phaseInterval:
		s.cur.Cycle()
		if s.cur.Finished() {
			s.endInterval()
		}
	}
}

// beginInterval clones the master at the checkpoint and hands the warm
// structures to a fresh interval core. The fast-forward pipeline has
// drained: its stage A is idle until endInterval sends the next span.
func (s *sampler) beginInterval() {
	ck := s.master.Clone()
	ck.ResetSeq()
	var ref *emu.Emulator
	if s.opt.Oracle {
		// Independent reference machine for the lockstep oracle: its own
		// memory copy, since the core's stream emulator (ck) runs ahead.
		ref = ck.Clone()
	}
	c, err := core.NewAt(s.icfg, s.prg, ck, s.warmer)
	if err != nil {
		// Structurally impossible: icfg was validated and the warmer was
		// built from it. Panic into the harness's recovery.
		panic(fmt.Sprintf("cdf: interval core construction failed: %v", err))
	}
	if ref != nil {
		oracle.AttachAt(c, ref)
	}
	s.cur = c
	s.phase = phaseInterval
}

// endInterval folds a finished interval core into the run statistics and
// schedules the next checkpoint, or finishes the run.
func (s *sampler) endInterval() {
	c := s.cur
	if r := c.StopReason(); r != StopCompleted {
		// The interval failed (watchdog, cycle budget, divergence): the
		// whole sampled run fails with that interval's reason; s.cur is
		// retained so the failure snapshot shows the interval machine.
		s.reason = r
		s.err = c.Err()
		s.phase = phaseDone
		return
	}
	if c.Retired() < s.icfg.MaxRetired {
		s.finishEarly()
		return
	}

	st := c.Stats() // post-warmup-reset: measured-region counters only
	s.ivs.Add(float64(st.Cycles) / float64(st.RetiredUops))
	s.total.Merge(st)
	s.measured += st.RetiredUops
	s.warmed += s.samp.Warmup
	s.nIvl++

	// Feed the measured wrong-path traffic density back to the warmer (see
	// Warmer.SetWrongPathRate); a handful of episodes is too noisy to
	// re-estimate from, so such intervals keep the previous rate.
	if st.BranchMispredicts >= 4 {
		s.warmer.SetWrongPathRate(float64(st.WrongPathLoads) / float64(st.BranchMispredicts))
	}

	// The interval core trained the shared structures cycle-accurately over
	// everything its frontend consumed — through its fetch frontier, which
	// runs past the retire limit. The master re-executes exactly that span
	// without warming, then warming resumes; catching up only to the retire
	// limit would warm the overfetched tail a second time, and the doubled
	// training compounds across intervals into structures (most visibly the
	// branch predictor) far better trained than any continuous run's.
	s.warmer.Resync(c)
	catchup := s.nextCkpt + c.FetchFrontier()
	// A completed interval: its stream pages go to the next interval core.
	c.Recycle()
	s.kIdx++
	if s.base+(s.kIdx+1)*s.samp.Interval > s.end {
		// No further interval fits: the run is done. The tail beyond the
		// last measured region is never touched — not even functionally.
		s.reason = StopCompleted
		s.phase = phaseDone
		return
	}
	s.nextCkpt = s.base + s.kIdx*s.samp.Interval + s.samp.blockOffset(s.seed, s.kIdx)
	s.ff.spans <- ffSpan{catchup: catchup, ckpt: s.nextCkpt}
	s.phase = phaseFF
}

// finishEarly ends the run because the program halted before the sampling
// schedule completed. Kernels are steady-state loops sized by MaxUops, so
// this mirrors the full-run "retired only N/M uops" error.
func (s *sampler) finishEarly() {
	s.reason = StopCompleted
	s.phase = phaseDone
	s.softErr = fmt.Errorf("program halted at uop %d of %d: sampled %d/%d intervals",
		s.master.Executed(), s.end, s.nIvl, (s.end-s.base)/s.samp.Interval)
}

// runSampled executes one benchmark in sampled mode. opt must have
// Sampling enabled.
func runSampled(ctx context.Context, benchmark string, opt Options) (Result, error) {
	w, err := lookup(benchmark, opt)
	if err != nil {
		return Result{}, err
	}
	prg, m := w.Build()
	cfg := opt.CoreConfig()
	samp := opt.Sampling.effective()

	icfg := cfg
	icfg.MaxRetired = samp.Warmup + samp.Measure
	icfg.WarmupRetired = samp.Warmup
	icfg.MaxCycles = icfg.MaxRetired * 100

	warmer, err := core.NewWarmer(icfg, prg)
	if err != nil {
		return Result{}, fmt.Errorf("cdf: %s/%s: %w", benchmark, opt.Mode, err)
	}
	s := &sampler{
		opt:      opt,
		samp:     samp,
		prg:      prg,
		icfg:     icfg,
		master:   emu.New(prg, m),
		warmer:   warmer,
		end:      cfg.MaxRetired,
		base:     opt.WarmupUops,
		seed:     cfg.Seed,
		nextCkpt: opt.WarmupUops + samp.blockOffset(cfg.Seed, 0),
		reason:   core.StopNone,
	}
	s.ff = startFF(s.master, warmer)
	s.ff.spans <- ffSpan{ckpt: s.nextCkpt}
	reason, err := harness.Exec(ctx, s, harness.Options{Timeout: opt.Timeout, Seed: opt.Seed})
	s.ff.closeFF()
	if err != nil {
		return Result{}, fmt.Errorf("cdf: %s/%s: %w", benchmark, opt.Mode, err)
	}
	if s.softErr != nil {
		return Result{}, fmt.Errorf("cdf: %s/%s: %w", benchmark, opt.Mode, s.softErr)
	}
	res := buildResult(benchmark, opt.Mode, cfg, &s.total)
	res.StopReason = reason
	sum := &SampleSummary{
		Intervals:    s.nIvl,
		IntervalUops: samp.Interval,
		MeasuredUops: s.measured,
		WarmupUops:   s.warmed,
		SkippedUops:  s.master.Executed() - s.measured - s.warmed,
		PooledIPC:    s.total.IPC(),
	}
	if cpi := s.ivs.Mean(); cpi > 0 {
		sum.IPCMean = 1 / cpi
	}
	if se, ok := s.ivs.Stderr(); ok {
		lo, hi, _ := s.ivs.CI95()
		// Add the warm-state allowance in the CPI domain, then invert the
		// interval: higher CPI is lower IPC.
		bias := sampleBiasFrac * s.ivs.Mean()
		lo, hi = lo-bias, hi+bias
		sum.CILow, sum.CIHigh, sum.CIOK = 1/hi, 1/lo, true
		sum.IPCStderr = se * sum.IPCMean * sum.IPCMean
	}
	// Result.IPC is the SMARTS estimator the CI describes; the pooled
	// cycles/uops totals stay in Cycles/Uops and the Metrics table.
	res.IPC = sum.IPCMean
	res.Sample = sum
	return res, nil
}
