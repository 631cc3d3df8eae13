package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime/pprof"
	"time"

	"cdf"
	"cdf/internal/core"
	"cdf/internal/front"
	"cdf/internal/workload"
)

// span is one timed call into a layer, made from the benchmark's side of
// the boundary. Spans of one operation share Op; Parent indexes the span
// that caused this one (-1 for the operation itself).
type span struct {
	Name   string `json:"name"`
	Op     int    `json:"op"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"` // since the tracer started
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so untraced code paths share the traced ones.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) begin(name string, op, parent int) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Op: op, Parent: parent, Start: time.Since(t.t0).Nanoseconds()})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) {
	if t == nil {
		return
	}
	t.spans[i].End = time.Since(t.t0).Nanoseconds()
}

// selfMillis totals each span name's self time: its duration minus the part
// its child spans cover.
func (t *tracer) selfMillis() map[string]float64 {
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := map[string]float64{}
	for i, s := range t.spans {
		out[s.Name] += float64(s.End-s.Start-child[i]) / 1e6
	}
	return out
}

// writeTrace writes the spans, their self times and the per-layer metrics.
func writeTrace(path, workload string, seed uint64, tr *tracer, ms metricSet) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(struct {
		Workload string             `json:"workload"`
		Seed     uint64             `json:"seed"`
		Metrics  metricSet          `json:"metrics"`
		SelfMS   map[string]float64 `json:"self_ms"`
		Spans    []span             `json:"spans"`
	}{workload, seed, ms, tr.selfMillis(), tr.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// coreConfig is the core.Config cdf.Run builds for a full (unsampled) run
// of o. It copies Options.coreConfig in cdf.go, for the options the
// workloads set, and must follow it when that changes. The traced run's
// cycle counts must equal cdf.Run's, which checks that the two agree.
func coreConfig(o cdf.Options) core.Config {
	cfg := core.Default()
	cfg.Mode = o.Mode
	cfg.MaxRetired = o.MaxUops
	cfg.WarmupRetired = o.WarmupUops
	cfg.MaxCycles = cfg.MaxRetired * 100
	if o.Frontend {
		fc := front.Default()
		fc.PerfectL1I, fc.FDIP, fc.ShadowBTB = o.PerfectL1I, o.FDIP, o.ShadowBTB
		cfg.Front = fc
		if o.FDIP {
			cfg.Mem.L1IMSHRs = 16
		}
	}
	if o.Seed != 0 {
		cfg.Seed = o.Seed
	}
	return cfg
}

// counters is one case's statistics table by name.
type counters map[string]float64

// runDirect runs one full case by calling the layers cdf.Run calls —
// workload.Build, core.New, Core.Cycle until finished, Stats().Table() —
// with a span around each. It returns the result, the statistics table and
// how many Core.Cycle calls and simulated cycles it took.
func runDirect(tr *tracer, op int, c simCase) (o outcome, tab counters, calls, cycles uint64, err error) {
	root := tr.begin("op", op, -1)
	defer tr.end(root)

	sp := tr.begin("workload.build", op, root)
	w, err := workload.ByName(c.Bench)
	if err != nil {
		return
	}
	prg, m := w.Build()
	tr.end(sp)

	sp = tr.begin("core.new", op, root)
	k, err := core.New(coreConfig(c.Opt), prg, m)
	tr.end(sp)
	if err != nil {
		return
	}

	sp = tr.begin("core.cycle", op, root)
	for !k.Finished() {
		k.Cycle()
		calls++
	}
	tr.end(sp)
	if r := k.StopReason(); r != core.StopCompleted {
		return o, nil, 0, 0, fmt.Errorf("%s: stopped with %s", c.Name, r)
	}

	sp = tr.begin("stats.table", op, root)
	st := k.Stats()
	tab = counters{}
	for _, row := range st.Table() {
		tab[row.Name] = row.Value
	}
	tr.end(sp)
	return outcome{Cycles: st.Cycles, Uops: st.RetiredUops, IPC: st.IPC()}, tab, calls, k.Cycles(), nil
}

// resultCounters is a cdf.Result's statistics table by name, plus what a
// sampled run reports about its schedule.
func resultCounters(r cdf.Result) counters {
	tab := counters{}
	for _, m := range r.Metrics {
		tab[m.Name] = m.Value
	}
	if s := r.Sample; s != nil {
		tab["sample.skipped_uops"] = float64(s.SkippedUops)
		tab["sample.covered_uops"] = float64(s.SkippedUops + s.MeasuredUops + s.WarmupUops)
		if s.CIOK && r.IPC > 0 {
			tab["sample.ci_halfwidth_pct"] = 100 * (s.CIHigh - s.CILow) / 2 / r.IPC
		}
	}
	return tab
}

// setModelCounts reports the simulated statistics of one pass, pooled over
// its cases: exact, so any change to them is a change to the model.
func setModelCounts(ms metricSet, tabs []counters) {
	sum := func(k string) float64 {
		var s float64
		for _, t := range tabs {
			s += t[k]
		}
		return s
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	n := len(tabs)
	uops, cycles := sum("retired_uops"), sum("cycles")
	ms.set("sim.cycles_per_kuop", 1000*ratio(cycles, uops), n)
	ms.set("mem.llc_mpki", 1000*ratio(sum("llc_misses"), uops), n)
	ms.set("mem.prefetch_useful_ratio", ratio(sum("prefetches_useful"), sum("prefetches_issued")), n)
	ms.set("branch.mpki", 1000*ratio(sum("branch_mispredicts"), uops), n)
	ms.set("front.l1i_mpki", 1000*ratio(sum("l1i_misses"), uops), n)
	ms.set("front.l1i_prefetch_useful_ratio", ratio(sum("l1i_prefetch_useful"), sum("l1i_prefetches")), n)
	ms.set("internal-cdf.cdf_mode_frac", ratio(sum("cdf_mode_cycles"), cycles), n)
	ms.set("pre.runahead_per_kuop", 1000*ratio(sum("runahead_intervals"), uops), n)
	ms.set("core.full_window_stall_frac", ratio(sum("full_window_stall_cycles"), cycles), n)
	ms.set("cdf.sampled_skipped_frac", ratio(sum("sample.skipped_uops"), sum("sample.covered_uops")), n)
	var ci []float64
	for _, t := range tabs {
		if v, ok := t["sample.ci_halfwidth_pct"]; ok {
			ci = append(ci, v)
		}
	}
	if len(ci) > 0 {
		ms.set("cdf.sampled_ci_halfwidth_pct", median(ci), len(ci))
	} else {
		ms.set("cdf.sampled_ci_halfwidth_pct", 0, 0)
	}
}

// profiled runs fn under the CPU profiler and returns the profile's
// host-time shares by layer.
func profiled(workDir string, fn func()) (map[string]float64, error) {
	path := filepath.Join(workDir, "cpu.pprof")
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	fn()
	pprof.StopCPUProfile()
	if err := f.Close(); err != nil {
		return nil, err
	}
	return profileShares(path)
}

// calibReadings is how many calibration readings a traced run takes before
// and after its workload.
const calibReadings = 10

// setCommon sets what every traced run reports: the layer probes, the host
// calibration, the tracing overhead and the profile shares.
func setCommon(e *env, ms metricSet, shares map[string]float64, traced, untraced loopResult, calib []float64) error {
	if err := runProbes(e, ms); err != nil {
		return err
	}
	calib = append(calib, e.cal.readings(calibReadings)...)
	ms.set("host.calib_ms", median(calib), len(calib))
	ms.set("trace.overhead_pct", 100*(median(traced.latencies())/median(untraced.latencies())-1), len(traced.ops))
	for name, v := range shares {
		ms.set(name, v, 1)
	}
	return nil
}

// traceSim is a traced run of a simulation workload: whole passes with
// spans under the CPU profiler for half the budget, then as many untraced
// passes through cdf.Run for the overhead comparison, then the probes.
func traceSim(e *env, w *simWorkload, spansPath string) (metricSet, error) {
	calib := e.cal.readings(calibReadings)
	cases := w.cases(e.seed)
	chk, err := newChecker(w.name, e.seed)
	if err != nil {
		return nil, err
	}
	if _, err := simSetup(cases, chk); err != nil {
		return nil, err
	}

	tr := newTracer()
	var (
		tabs          = make([]counters, len(cases))
		calls, cycles uint64
		traced        loopResult
	)
	shares, err := profiled(e.workDir, func() {
		traced = runLoop(loopSpec{items: len(cases), budget: e.budget / 2}, e.t, func(pass, i int) error {
			c := cases[i]
			var (
				o      outcome
				tab    counters
				nc, ny uint64
				err    error
			)
			if w.direct {
				o, tab, nc, ny, err = runDirect(tr, pass*len(cases)+i, c)
			} else {
				sp := tr.begin("cdf.run", pass*len(cases)+i, -1)
				var res cdf.Result
				res, err = cdf.Run(c.Bench, c.Opt)
				tr.end(sp)
				o, tab = outcomeOf(res), resultCounters(res)
			}
			if err != nil {
				return err
			}
			if pass == 0 {
				tabs[i] = tab
				calls += nc
				cycles += ny
			}
			return chk.check(c, o)
		})
	})
	if err != nil {
		return nil, err
	}
	untraced := runLoop(loopSpec{items: len(cases), maxPasses: traced.passes}, e.t, func(_, i int) error {
		return runChecked(cases[i], chk)
	})

	ms := metricSet{}
	setModelCounts(ms, tabs)
	ratio := 0.0
	if cycles > 0 {
		ratio = float64(calls) / float64(cycles)
	}
	ms.set("core.cycle_calls_per_cycle", ratio, len(cases))
	setServiceCounts(ms, nil)
	if err := setCommon(e, ms, shares, traced, untraced, calib); err != nil {
		return nil, err
	}
	return ms, writeTrace(spansPath, w.name, e.seed, tr, ms)
}

// traceService is a traced run of the service workload against an
// in-process service, so the CPU profile covers the service's layers.
func traceService(e *env, spansPath string) (metricSet, error) {
	calib := e.cal.readings(calibReadings)
	srv, _, err := svcSetup(e, 0, startInProcess)
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	var (
		traced  loopResult
		lastJob string
	)
	const maxTraced = svcMaxIters / 2 // traced then untraced seeds stay distinct
	shares, err := profiled(e.workDir, func() {
		traced = runLoop(loopSpec{items: 1, budget: e.budget / 2, maxPasses: maxTraced}, e.t, func(pass, _ int) error {
			cold, _, err := srv.iteration(svcJobSeed(e.seed, pass+1), tr, pass)
			lastJob = cold.id
			return err
		})
	})
	if err != nil {
		return nil, errors.Join(err, srv.stop())
	}
	untraced := runLoop(loopSpec{items: 1, maxPasses: traced.passes}, e.t, func(pass, _ int) error {
		_, _, err := srv.iteration(svcJobSeed(e.seed, maxTraced+pass+1), nil, pass)
		return err
	})
	h, herr := srv.health()
	tabs, rerr := srv.jobCounters(lastJob)
	if err := errors.Join(herr, rerr, srv.stop()); err != nil {
		return nil, err
	}
	e.t.check(checkHealth(h, traced.passes+untraced.passes+1))

	ms := metricSet{}
	setModelCounts(ms, tabs)
	ms.set("core.cycle_calls_per_cycle", 0, 0)
	setServiceCounts(ms, &h)
	if err := setCommon(e, ms, shares, traced, untraced, calib); err != nil {
		return nil, err
	}
	return ms, writeTrace(spansPath, "service", e.seed, tr, ms)
}
