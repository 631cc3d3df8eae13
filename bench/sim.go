package main

import (
	"errors"
	"fmt"
	"math"
	"os"
	"time"

	"cdf"
	"cdf/internal/core"
	"cdf/internal/workload"
)

// simCase is one cdf.Run call of a simulation workload.
type simCase struct {
	Name  string // stable case name, e.g. "mcf/cdf" or "server/fdip"
	Bench string
	Opt   cdf.Options
}

// simWorkload is a closed loop of cdf.Run calls over a fixed case list.
type simWorkload struct {
	name  string
	cases func(seed uint64) []simCase
	// direct: the traced run drives the layers itself (workload.Build →
	// core.New → Core.Cycle) instead of calling cdf.Run. Sampled runs go
	// through cdf.Run in both, since their sampler is internal to cdf.
	direct bool
}

var allModes = []cdf.Mode{cdf.ModeBaseline, cdf.ModeCDF, cdf.ModePRE, cdf.ModeHybrid}

// Sizes. One caller runs a pass of each workload in 2–9 seconds on a
// contended two-core host, so a 20-second run times at least two whole
// passes and minTimedOps operations and ends within 30 seconds. Every case
// warms the modelled caches (a WarmupUops prefix) before statistics start.
// A sampled case covers three intervals of its schedule after the warm-up
// prefix.
const (
	sweepUops, sweepWarmup = 50_000, 12_500

	sampledUops, sampledWarmup = 850_000, 100_000

	frontUops, frontWarmup = 300_000, 50_000
)

var sampledBenches = []string{"astar", "bzip", "lbm", "libquantum", "mcf", "omnetpp", "soplex", "zeusmp"}

var sampledSchedule = cdf.Sampling{Interval: 250_000, Measure: 8_000, Warmup: 4_000}

// frontVariants are the four instruction-supply machines of the frontend
// study, on the baseline core.
var frontVariants = []struct {
	name string
	set  func(*cdf.Options)
}{
	{"timing", func(o *cdf.Options) { o.Frontend = true }},
	{"fdip", func(o *cdf.Options) { o.Frontend, o.FDIP = true, true }},
	{"shadow", func(o *cdf.Options) { o.Frontend, o.FDIP, o.ShadowBTB = true, true, true }},
	{"perfect", func(o *cdf.Options) { o.Frontend, o.PerfectL1I = true, true }},
}

var simWorkloads = map[string]*simWorkload{
	"sweep": {name: "sweep", direct: true, cases: func(seed uint64) []simCase {
		var out []simCase
		for _, b := range cdf.Benchmarks() {
			if b.Frontend {
				continue // the paper-figure sweep covers the paper's kernels
			}
			for _, m := range allModes {
				out = append(out, simCase{Name: b.Name + "/" + m.String(), Bench: b.Name,
					Opt: cdf.Options{Mode: m, MaxUops: sweepUops, WarmupUops: sweepWarmup, Seed: seed}})
			}
		}
		return out
	}},
	"sampled": {name: "sampled", cases: func(seed uint64) []simCase {
		var out []simCase
		for _, b := range sampledBenches {
			for _, m := range allModes {
				out = append(out, simCase{Name: b + "/" + m.String(), Bench: b,
					Opt: cdf.Options{Mode: m, MaxUops: sampledUops, WarmupUops: sampledWarmup, Seed: seed,
						Sampling: sampledSchedule}})
			}
		}
		return out
	}},
	"frontend": {name: "frontend", direct: true, cases: func(seed uint64) []simCase {
		var out []simCase
		for _, b := range cdf.Benchmarks() {
			if !b.Frontend {
				continue
			}
			for _, v := range frontVariants {
				o := cdf.Options{Mode: cdf.ModeBaseline, MaxUops: frontUops, WarmupUops: frontWarmup, Seed: seed}
				v.set(&o)
				out = append(out, simCase{Name: b.Name + "/" + v.name, Bench: b.Name, Opt: o})
			}
		}
		return out
	}},
}

// coveredUops is the program length a pass of cases simulates, measured or
// fast-forwarded.
func coveredUops(cases []simCase) uint64 {
	var n uint64
	for _, c := range cases {
		n += c.Opt.MaxUops
	}
	return n
}

// simSetup is what a user of the sweep pays before the first case: building
// the kernels and one warm-up case, which also grows the Go heap to its
// working size. The warm-up case is the list's first, whatever the seed.
func simSetup(cases []simCase, chk *checker) (time.Duration, error) {
	t0 := time.Now()
	seen := map[string]bool{}
	for _, c := range cases {
		if seen[c.Bench] {
			continue
		}
		seen[c.Bench] = true
		w, err := workload.ByName(c.Bench)
		if err != nil {
			return 0, err
		}
		w.Build()
	}
	res, err := cdf.Run(cases[0].Bench, cases[0].Opt)
	d := time.Since(t0)
	if err != nil {
		return 0, fmt.Errorf("warm-up case %s: %w", cases[0].Name, err)
	}
	return d, chk.check(cases[0], outcomeOf(res))
}

// runSim is an untraced run of a simulation workload.
func runSim(e *env, w *simWorkload) (metricSet, error) {
	cases := w.cases(e.seed)
	chk, err := newChecker(w.name, e.seed)
	if err != nil {
		return nil, err
	}
	stopRSS := sampleRSS([]int{os.Getpid()})
	loop := runLoop(loopSpec{items: len(cases), budget: e.budget, minOps: minTimedOps, cal: e.cal,
		setup: func(int) (time.Duration, error) { return simSetup(cases, chk) },
	}, e.t, func(_, i int) error {
		return runChecked(cases[i], chk)
	})
	rss, err := stopRSS()
	if err := errors.Join(loop.err, err); err != nil {
		return nil, err
	}
	e.t.check(crossCheckSlowPath(cases, e.seed, chk))

	ms := metricSet{}
	setTimings(e, ms, loop, rss, float64(coveredUops(cases)))
	return ms, nil
}

// runChecked runs one case through the public API and checks its result.
func runChecked(c simCase, chk *checker) error {
	res, err := cdf.Run(c.Bench, c.Opt)
	if err != nil {
		return fmt.Errorf("%s: %w", c.Name, err)
	}
	return chk.check(c, outcomeOf(res))
}

// crossCheckSlowPath reruns one case, chosen by the seed, on the reference
// cycle loop (no scheduler shortcuts, no idle skip), outside the timed
// window. The two loops are bit-identical by contract, so this checks the
// timed results even for seeds the golden file does not cover.
func crossCheckSlowPath(cases []simCase, seed uint64, chk *checker) error {
	c := cases[int(seed%uint64(len(cases)))]
	o := c.Opt
	o.SlowPath = true
	res, err := cdf.Run(c.Bench, o)
	if err != nil {
		return fmt.Errorf("slow-path cross-check %s: %w", c.Name, err)
	}
	want, ok := chk.reference(c.Name)
	if !ok {
		return fmt.Errorf("slow-path cross-check %s: no timed result to compare", c.Name)
	}
	if got := outcomeOf(res); !got.same(want) {
		return fmt.Errorf("slow-path cross-check %s: reference loop gives %+v, timed runs gave %+v", c.Name, got, want)
	}
	return nil
}

// noteTail says which tail percentile the sample count supports, and warns
// when it is below the reported p90.
func noteTail(n int) {
	p := tailPercentile(n)
	if p < 90 {
		fmt.Printf("  note: %d operations support only p%g; op_ms_p90 has fewer than 10 samples beyond it\n", n, p)
	} else {
		fmt.Printf("  note: %d operations support percentiles up to p%g\n", n, p)
	}
}

// outcome is the part of a result the correctness gate compares exactly.
type outcome struct {
	Cycles    uint64  `json:"cycles"`
	Uops      uint64  `json:"uops"`
	IPC       float64 `json:"ipc"`
	Intervals int     `json:"intervals,omitempty"`
	CILow     float64 `json:"ci_low,omitempty"`
	CIHigh    float64 `json:"ci_high,omitempty"`
}

func outcomeOf(r cdf.Result) outcome {
	o := outcome{Cycles: r.Cycles, Uops: r.Uops, IPC: r.IPC}
	if s := r.Sample; s != nil {
		o.Intervals, o.CILow, o.CIHigh = s.Intervals, s.CILow, s.CIHigh
	}
	return o
}

// same compares bit for bit: a deterministic simulator must reproduce every
// floating-point result exactly.
func (o outcome) same(p outcome) bool {
	bits := math.Float64bits
	return o.Cycles == p.Cycles && o.Uops == p.Uops && bits(o.IPC) == bits(p.IPC) &&
		o.Intervals == p.Intervals && bits(o.CILow) == bits(p.CILow) && bits(o.CIHigh) == bits(p.CIHigh)
}

// plausible checks what must hold for any seed: the run measured what was
// asked and its IPC is a real number within the machine's width.
func plausible(c simCase, o outcome) error {
	width := float64(core.Default().Width)
	if !(o.IPC > 0 && o.IPC <= width) || o.Cycles == 0 {
		return fmt.Errorf("%s: implausible result %+v", c.Name, o)
	}
	if s := c.Opt.Sampling; s.Enabled() {
		if o.Intervals < 2 || o.Uops < uint64(o.Intervals)*s.Measure || !(o.CILow <= o.IPC && o.IPC <= o.CIHigh) {
			return fmt.Errorf("%s: sampled result %+v does not cover its schedule", c.Name, o)
		}
		return nil
	}
	if o.Uops < c.Opt.MaxUops-c.Opt.WarmupUops {
		return fmt.Errorf("%s: measured %d uops, want %d", c.Name, o.Uops, c.Opt.MaxUops-c.Opt.WarmupUops)
	}
	return nil
}
