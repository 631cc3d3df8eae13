package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os/exec"
	"path/filepath"
	"time"

	"cdf"
	"cdf/internal/core"
	"cdf/internal/emu"
	"cdf/internal/sweepstore"
	"cdf/internal/workload"
)

// Probes time single layers through their exported functions on fixed
// inputs, outside any workload loop, so every traced run reports them the
// same way whatever its workload.

// micros converts a duration to float microseconds.
func micros(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func runProbes(e *env, ms metricSet) error {
	for _, p := range []func(*env, metricSet) error{
		probeBuildAndNew, probeCycle, probeEmuAndWarm, probeCaseKey, probeStore, probeWorker, probeService,
	} {
		if err := p(e, ms); err != nil {
			return err
		}
	}
	return nil
}

// probeBuildAndNew times workload.Build for every kernel and core.New on
// one of them.
func probeBuildAndNew(_ *env, ms metricSet) error {
	var builds []float64
	for _, b := range cdf.Benchmarks() {
		w, err := workload.ByName(b.Name)
		if err != nil {
			return err
		}
		for i := 0; i < 3; i++ {
			t0 := time.Now()
			w.Build()
			builds = append(builds, micros(time.Since(t0)))
		}
	}
	ms.set("workload.build_us", median(builds), len(builds))

	w, err := workload.ByName("astar")
	if err != nil {
		return err
	}
	prg, m := w.Build()
	cfg := coreConfig(cdf.Options{Mode: cdf.ModeCDF, MaxUops: sweepUops, WarmupUops: sweepWarmup})
	var news []float64
	for i := 0; i < 20; i++ {
		t0 := time.Now()
		if _, err := core.New(cfg, prg, m); err != nil {
			return err
		}
		news = append(news, micros(time.Since(t0)))
	}
	ms.set("core.new_us", median(news), len(news))
	return nil
}

// probeCycle times Core.Cycle calls on a memory-bound and a compute-bound
// case.
func probeCycle(_ *env, ms metricSet) error {
	var (
		elapsed time.Duration
		calls   int
	)
	for _, c := range []simCase{
		{Name: "mcf/cdf", Bench: "mcf", Opt: cdf.Options{Mode: cdf.ModeCDF, MaxUops: 50_000, WarmupUops: 10_000, Seed: 1}},
		{Name: "bzip/baseline", Bench: "bzip", Opt: cdf.Options{Mode: cdf.ModeBaseline, MaxUops: 50_000, WarmupUops: 10_000, Seed: 1}},
	} {
		w, err := workload.ByName(c.Bench)
		if err != nil {
			return err
		}
		prg, m := w.Build()
		k, err := core.New(coreConfig(c.Opt), prg, m)
		if err != nil {
			return err
		}
		t0 := time.Now()
		for !k.Finished() {
			k.Cycle()
			calls++
		}
		elapsed += time.Since(t0)
	}
	ms.set("core.ns_per_cycle_call", float64(elapsed)/float64(calls), calls)
	return nil
}

// emuProbeUops is the length of each fast-forward micro-drive.
const emuProbeUops = 1_000_000

// probeEmuAndWarm times the sampled workload's fast-forward path on its
// kernels: emu.Step alone, then emu.Step plus core.Warmer.Observe; the
// difference is what functional warming costs per uop.
func probeEmuAndWarm(_ *env, ms metricSet) error {
	var step, both time.Duration
	var n int
	for _, b := range sampledBenches {
		w, err := workload.ByName(b)
		if err != nil {
			return err
		}
		for _, warm := range []bool{false, true} {
			prg, m := w.Build()
			em := emu.New(prg, m)
			var wr *core.Warmer
			if warm {
				if wr, err = core.NewWarmer(coreConfig(cdf.Options{Mode: cdf.ModeCDF, MaxUops: sampledUops}), prg); err != nil {
					return err
				}
			}
			var d emu.DynUop
			t0 := time.Now()
			for i := 0; i < emuProbeUops; i++ {
				if !em.Step(&d) {
					return fmt.Errorf("emu probe: %s halted after %d uops", b, i)
				}
				if wr != nil {
					wr.Observe(&d)
				}
			}
			if warm {
				both += time.Since(t0)
			} else {
				step += time.Since(t0)
				n += emuProbeUops
			}
		}
	}
	ms.set("emu.step_ns", float64(step)/float64(n), n)
	ms.set("core.warm_observe_ns", float64(both-step)/float64(n), n)
	return nil
}

func probeCaseKey(_ *env, ms metricSet) error {
	opt := cdf.Options{Mode: cdf.ModeCDF, MaxUops: sweepUops, WarmupUops: sweepWarmup, Seed: 1}
	var ks []float64
	for i := 0; i < 200; i++ {
		t0 := time.Now()
		if _, err := cdf.CaseKey("mcf", opt); err != nil {
			return err
		}
		ks = append(ks, micros(time.Since(t0)))
	}
	ms.set("cdf.case_key_us", median(ks), len(ks))
	return nil
}

// storeProbeEntries is how many results the store probe writes and reads.
const storeProbeEntries = 48

// probeStore times sweepstore Put (atomic write, fsync'd journal) and Get
// (integrity-checked read) on a scratch store with real result payloads.
func probeStore(e *env, ms metricSet) error {
	store, err := sweepstore.Open(filepath.Join(e.workDir, "probe-store"), false)
	if err != nil {
		return err
	}
	keys := make([]string, storeProbeEntries)
	payloads := make([][]byte, storeProbeEntries)
	for i := range keys {
		bench := svcBenches[i%len(svcBenches)]
		opt := cdf.Options{Mode: allModes[i%len(allModes)], MaxUops: svcUops, WarmupUops: svcWarmup, Seed: uint64(i + 1)}
		res, err := cdf.Run(bench, opt)
		if err == nil {
			keys[i], err = cdf.CaseKey(bench, opt)
		}
		if err == nil {
			payloads[i], err = json.Marshal(res)
		}
		if err != nil {
			return errors.Join(err, store.Close())
		}
	}
	var puts, gets []float64
	for i, k := range keys {
		t0 := time.Now()
		err := store.Put(k, payloads[i], sweepstore.Record{Bench: "probe", Status: sweepstore.StatusDone, Attempts: 1})
		puts = append(puts, micros(time.Since(t0)))
		if err != nil {
			return errors.Join(err, store.Close())
		}
	}
	for i, k := range keys {
		t0 := time.Now()
		got, ok := store.Get(k)
		gets = append(gets, micros(time.Since(t0)))
		if !ok || !bytes.Equal(got, payloads[i]) {
			e.t.check(fmt.Errorf("store probe: entry %d did not read back", i))
		}
	}
	ms.set("sweepstore.put_us_p50", median(puts), len(puts))
	ms.set("sweepstore.put_us_p90", percentile(puts, 90), len(puts))
	ms.set("sweepstore.get_us_p50", median(gets), len(gets))
	ms.set("sweepstore.get_us_p90", percentile(gets, 90), len(gets))
	return store.Close()
}

// workerProbeCases is how many round trips the worker probe times.
const workerProbeCases = 40

// probeWorker times the worker protocol: one 1k-uop case per request over
// the stdin/stdout pipes of a `cdfsim -worker` process, request written to
// result line read.
func probeWorker(e *env, ms metricSet) error {
	cmd := exec.Command(filepath.Join(e.binDir, "cdfsim"), "-worker")
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return err
	}
	if err := cmd.Start(); err != nil {
		return fmt.Errorf("start worker: %w", err)
	}
	rtts, perr := workerRoundTrips(stdin, bufio.NewScanner(stdout))
	stdin.Close() // end of input: the worker exits
	if err := errors.Join(perr, cmd.Wait()); err != nil {
		return fmt.Errorf("worker probe: %w", err)
	}
	ms.set("sweepd.worker_rtt_ms_p50", median(rtts), len(rtts))
	ms.set("sweepd.worker_rtt_ms_p90", percentile(rtts, 90), len(rtts))
	return nil
}

func workerRoundTrips(in io.Writer, out *bufio.Scanner) ([]float64, error) {
	out.Buffer(make([]byte, 0, 64*1024), 1<<20)
	var rtts []float64
	for id := 1; id <= workerProbeCases; id++ {
		req, err := json.Marshal(map[string]any{
			"id": id, "bench": "astar", "case_id": "astar/baseline", "attempt": 0,
			"opt": cdf.Options{Mode: cdf.ModeBaseline, MaxUops: 1000, Seed: uint64(id)},
		})
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		if _, err := in.Write(append(req, '\n')); err != nil {
			return nil, err
		}
		for {
			if !out.Scan() {
				return nil, fmt.Errorf("worker closed its output: %v", out.Err())
			}
			var resp struct {
				Type string `json:"type"`
				ID   int    `json:"id"`
				Msg  string `json:"msg"`
			}
			if err := json.Unmarshal(out.Bytes(), &resp); err != nil {
				return nil, fmt.Errorf("worker line %q: %w", out.Bytes(), err)
			}
			if resp.ID != id || resp.Type == "hb" {
				continue
			}
			if resp.Type != "result" {
				return nil, fmt.Errorf("worker: %s: %s", resp.Type, resp.Msg)
			}
			rtts = append(rtts, float64(time.Since(t0))/float64(time.Millisecond))
			break
		}
	}
	return rtts, nil
}

// serviceProbeIters is how many job pairs the service probe times.
const serviceProbeIters = 8

// probeService times the service's request path on an in-process service
// with real workers: admission (POST), first streamed row, and whole cold
// and cache-hit jobs.
func probeService(e *env, ms metricSet) error {
	srv, _, err := svcSetup(e, 99, startInProcess)
	if err != nil {
		return err
	}
	var admit, first, cold, hit []float64
	ms2 := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	for i := 1; i <= serviceProbeIters; i++ {
		c, h, err := srv.iteration(svcJobSeed(e.seed, i), nil, i)
		e.t.check(err)
		admit = append(admit, ms2(c.admit), ms2(h.admit))
		first = append(first, ms2(c.firstRow))
		cold = append(cold, ms2(c.total))
		hit = append(hit, ms2(h.total))
	}
	h, herr := srv.health()
	if err := errors.Join(herr, srv.stop()); err != nil {
		return err
	}
	e.t.check(checkHealth(h, serviceProbeIters+1))
	ms.set("sweepd.admit_ms_p50", median(admit), len(admit))
	ms.set("sweepd.first_row_ms_p50", median(first), len(first))
	ms.set("sweepd.cold_job_ms_p50", median(cold), len(cold))
	ms.set("sweepd.hit_job_ms_p50", median(hit), len(hit))
	return nil
}
