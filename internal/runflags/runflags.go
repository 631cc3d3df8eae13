// Package runflags declares the command-line flags the CLIs share, each
// once: its name, its help text, and the cdf.Options field it writes. A
// binary registers the groups it accepts on its flag set and reads the
// parsed values straight out of its cdf.Options.
package runflags

import (
	"flag"

	"cdf"
	"cdf/internal/units"
)

// Run registers the run-control flags — run length, sampled simulation,
// seed, wall-clock limit, and the checking and reference-loop switches —
// on fs, writing into o. None of them changes the simulated machine.
func Run(fs *flag.FlagSet, o *cdf.Options) {
	fs.Var((*units.Uops)(&o.MaxUops), "uops", "instructions per run, e.g. 200000, 200k or 5M (0 = default)")
	fs.Var((*units.Uops)(&o.WarmupUops), "warmup", "warm-up instructions excluded from statistics (e.g. 200k)")
	fs.Var((*units.Uops)(&o.Sampling.Interval), "sample-interval", "sampled simulation: sampling period in uops, e.g. 50k (0 = full runs)")
	fs.Var((*units.Uops)(&o.Sampling.Measure), "sample-measure", "sampled simulation: cycle-accurate measured uops per interval (0 = interval/16)")
	fs.Var((*units.Uops)(&o.Sampling.Warmup), "sample-warmup", "sampled simulation: detached cycle-accurate warmup uops per interval (0 = measure/2)")
	fs.Uint64Var(&o.Seed, "seed", 0, "run seed: wrong-path models and failure reports (0 = randomized)")
	fs.DurationVar(&o.Timeout, "timeout", 0, "wall-clock limit per simulation run (0 = none)")
	fs.BoolVar(&o.Paranoid, "paranoid", false, "run invariant checks during every simulation (~2x slower)")
	fs.BoolVar(&o.Oracle, "oracle", false, "check every retired uop against the functional emulator in lockstep")
	fs.BoolVar(&o.SlowPath, "slowpath", false, "run the reference cycle loop (no scoreboard scheduler or idle skip)")
}

// Frontend registers the instruction-supply switches (DESIGN.md §13) on
// fs, writing into o.
func Frontend(fs *flag.FlagSet, o *cdf.Options) {
	fs.BoolVar(&o.Frontend, "frontend", false, "enable the instruction-supply subsystem: timed L1I on the fetch path")
	fs.BoolVar(&o.PerfectL1I, "perfect-l1i", false, "frontend upper bound: every instruction fetch hits (requires -frontend)")
	fs.BoolVar(&o.FDIP, "fdip", false, "decoupled fetch-directed L1I prefetcher (requires -frontend)")
	fs.BoolVar(&o.ShadowBTB, "shadow-btb", false, "shadow-branch decoding into a shadow BTB (requires -frontend)")
}
