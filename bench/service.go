package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/csv"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"cdf"
	"cdf/internal/sweepd"
	"cdf/internal/sweepstore"
)

// The service workload's job: four kernels × four machines, short cases,
// so the time goes to the service, its store and its worker protocol
// rather than to simulation.
var svcBenches = []string{"astar", "bzip", "lbm", "mcf"}

const (
	svcUops, svcWarmup = 5_000, 1_000

	// Job seeds are 1000*seed+i: measured iteration i (1 ≤ i ≤ svcMaxIters)
	// and the warm-up job at i = 999 never share a seed, so a measured cold
	// job is always a miss.
	svcWarmIter = 999
	svcMaxIters = 998
)

func svcSpec(jobSeed uint64) sweepd.JobSpec {
	modes := make([]string, len(allModes))
	for i, m := range allModes {
		modes[i] = m.String()
	}
	return sweepd.JobSpec{Benchmarks: svcBenches, Modes: modes, Seeds: []uint64{jobSeed},
		MaxUops: svcUops, WarmupUops: svcWarmup}
}

func svcJobSeed(seed uint64, i int) uint64 { return 1000*seed + uint64(i) }

// svcCases is the number of cases (and CSV rows) of one job.
var svcCases = len(svcBenches) * len(allModes)

// server is a running sweep service reached over HTTP.
type server struct {
	base string // http://host:port
	// procs lists the processes whose memory the service uses.
	procs func() []int
	stop  func() error
}

// startServer runs a real cdfsweepd with two cdfsim workers on a fresh
// cache directory and waits until it listens.
func startServer(binDir, dir string) (*server, error) {
	logf, err := os.Create(dir + ".log")
	if err != nil {
		return nil, err
	}
	defer logf.Close() // the child holds its own descriptor
	cmd := exec.Command(filepath.Join(binDir, "cdfsweepd"), "-addr", "127.0.0.1:0", "-cache-dir", dir,
		"-workers", fmt.Sprint(cpus), "-worker-cmd", filepath.Join(binDir, "cdfsim"))
	cmd.Stderr = logf
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start cdfsweepd: %w", err)
	}
	line, err := bufio.NewReader(stdout).ReadString('\n')
	addr, ok := strings.CutPrefix(strings.TrimSpace(line), "cdfsweepd: listening on ")
	if err != nil || !ok {
		cmd.Process.Kill()
		cmd.Wait()
		return nil, fmt.Errorf("cdfsweepd did not start (see %s.log): %q %v", dir, line, err)
	}
	pid := cmd.Process.Pid
	return &server{
		base:  "http://" + addr,
		procs: func() []int { return append([]int{pid}, childrenOf(pid)...) },
		stop: func() error {
			workers := childrenOf(pid)
			cmd.Process.Signal(syscall.SIGTERM)
			done := make(chan error, 1)
			go func() { done <- cmd.Wait() }()
			var err error
			select {
			case err = <-done:
			case <-time.After(60 * time.Second):
				cmd.Process.Kill()
				err = fmt.Errorf("cdfsweepd did not drain within 60s: %v", <-done)
			}
			awaitExit(workers, 10*time.Second)
			if err != nil {
				return fmt.Errorf("cdfsweepd exit (see %s.log): %w", dir, err)
			}
			return nil
		},
	}, nil
}

// startInProcess runs the sweep service inside this process — the same
// sweepd.Service and Supervisor cdfsweepd assembles, with real cdfsim
// worker subprocesses — so a CPU profile of the benchmark sees the
// service's own layers.
func startInProcess(binDir, dir string) (*server, error) {
	logf, err := os.Create(dir + ".log")
	if err != nil {
		return nil, err
	}
	store, err := sweepstore.Open(dir, true)
	if err != nil {
		logf.Close()
		return nil, err
	}
	sup, err := sweepd.NewSupervisor(sweepd.SupervisorConfig{
		Cmd:     []string{filepath.Join(binDir, "cdfsim"), "-worker"},
		Workers: cpus,
		Store:   store,
		Breaker: sweepd.NewBreaker(sweepd.DefaultBreakerThreshold),
		Stderr:  logf,
	})
	if err == nil {
		var svc *sweepd.Service
		if svc, err = sweepd.NewService(sweepd.ServiceConfig{Store: store, Supervisor: sup}); err == nil {
			var ln net.Listener
			if ln, err = net.Listen("tcp", "127.0.0.1:0"); err == nil {
				return serveInProcess(svc, sup, store, ln, logf), nil
			}
		}
	}
	store.Close()
	logf.Close()
	return nil, err
}

func serveInProcess(svc *sweepd.Service, sup *sweepd.Supervisor, store *sweepstore.Store, ln net.Listener, logf *os.File) *server {
	svc.Start()
	hs := &http.Server{Handler: svc.Handler()}
	served := make(chan struct{})
	go func() {
		hs.Serve(ln) // returns once Shutdown closes the listener
		close(served)
	}()
	self := os.Getpid()
	return &server{
		base:  "http://" + ln.Addr().String(),
		procs: func() []int { return append([]int{self}, childrenOf(self)...) },
		stop: func() error {
			workers := childrenOf(self)
			ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
			defer cancel()
			derr := svc.Drain(ctx)
			sup.Close()
			serr := hs.Shutdown(ctx)
			<-served
			cerr := store.Close()
			awaitExit(workers, 10*time.Second)
			return errors.Join(derr, serr, cerr, logf.Close())
		},
	}
}

// job is one submitted job's client-side view.
type job struct {
	id                     string
	admit, firstRow, total time.Duration
	csv                    []byte
}

// runJob submits spec and streams its CSV results to the last row, the way
// a client of the service waits for a sweep. Spans go under parent.
func (s *server) runJob(spec sweepd.JobSpec, tr *tracer, op, parent int, name string) (job, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return job{}, err
	}
	var j job
	t0 := time.Now()
	sp := tr.begin(name, op, parent)
	defer tr.end(sp)

	ad := tr.begin("sweepd.admit", op, sp)
	resp, err := http.Post(s.base+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return job{}, fmt.Errorf("POST /jobs: %w", err)
	}
	var admitted struct {
		ID    string `json:"id"`
		Cases int    `json:"cases"`
	}
	err = json.NewDecoder(resp.Body).Decode(&admitted)
	resp.Body.Close()
	tr.end(ad)
	if err != nil || resp.StatusCode != http.StatusAccepted || admitted.Cases != svcCases {
		return job{}, fmt.Errorf("POST /jobs: status %d, %+v, %v", resp.StatusCode, admitted, err)
	}
	j.id = admitted.ID
	j.admit = time.Since(t0)

	st := tr.begin("sweepd.stream", op, sp)
	defer tr.end(st)
	resp, err = http.Get(s.base + "/jobs/" + j.id + "/results?format=csv")
	if err != nil {
		return job{}, fmt.Errorf("GET results: %w", err)
	}
	defer resp.Body.Close()
	br := bufio.NewReader(resp.Body)
	var buf bytes.Buffer
	for lines := 0; ; lines++ {
		line, err := br.ReadBytes('\n')
		buf.Write(line)
		if lines == 1 && len(line) > 0 {
			j.firstRow = time.Since(t0)
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			return job{}, fmt.Errorf("GET results: %w", err)
		}
	}
	j.total = time.Since(t0)
	j.csv = buf.Bytes()
	recs, err := csv.NewReader(bytes.NewReader(j.csv)).ReadAll()
	if err != nil || len(recs) != 1+svcCases {
		return job{}, fmt.Errorf("job %s: want %d result rows, got %d (%v)", j.id, svcCases, len(recs)-1, err)
	}
	for _, r := range recs[1:] {
		if len(r) < 4 || r[3] != "done" {
			return job{}, fmt.Errorf("job %s: case not done: %v", j.id, r)
		}
	}
	return j, nil
}

// iteration is one closed-loop step of the service workload: a job whose
// cases are all cache misses, then the identical job, all hits. The hit
// job's table must be byte-identical to the cold one's.
func (s *server) iteration(jobSeed uint64, tr *tracer, op int) (cold, hit job, err error) {
	spec := svcSpec(jobSeed)
	root := tr.begin("op", op, -1)
	defer tr.end(root)
	if cold, err = s.runJob(spec, tr, op, root, "sweepd.cold_job"); err != nil {
		return
	}
	if hit, err = s.runJob(spec, tr, op, root, "sweepd.hit_job"); err != nil {
		return
	}
	if !bytes.Equal(cold.csv, hit.csv) {
		err = fmt.Errorf("seed %d: cache-hit table differs from the simulated one", jobSeed)
	}
	return
}

func (s *server) health() (sweepd.Health, error) {
	var h sweepd.Health
	resp, err := http.Get(s.base + "/healthz")
	if err != nil {
		return h, fmt.Errorf("GET /healthz: %w", err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		return h, fmt.Errorf("GET /healthz: %w", err)
	}
	return h, nil
}

// checkHealth checks the service's counters against the traffic sent:
// pairs cold+hit jobs of svcCases cases each, nothing retried or lost.
func checkHealth(h sweepd.Health, pairs int) error {
	n := int64(pairs * svcCases)
	c, p := h.Cache, h.Pool
	if c.Hits != n || c.Misses != n || c.Puts != n || c.Retries != 0 ||
		p.Dispatches != n || p.Deaths != 0 || p.Stalls != 0 || p.Quarantined != 0 || p.Spawns != cpus {
		return fmt.Errorf("service counters after %d job pairs: cache %+v, pool %+v", pairs, c, p)
	}
	return nil
}

// setServiceCounts reports the service's /healthz counters (h nil: the
// workload ran no service, and they read 0).
func setServiceCounts(ms metricSet, h *sweepd.Health) {
	if h == nil {
		h = &sweepd.Health{}
	}
	c, p := h.Cache, h.Pool
	ms.set("sweepstore.hits", float64(c.Hits), 1)
	ms.set("sweepstore.misses", float64(c.Misses), 1)
	ms.set("sweepstore.puts", float64(c.Puts), 1)
	ms.set("sweepstore.retries", float64(c.Retries), 1)
	ratio := 0.0
	if c.Hits+c.Misses > 0 {
		ratio = float64(c.Hits) / float64(c.Hits+c.Misses)
	}
	ms.set("sweepstore.hit_ratio", ratio, int(c.Hits+c.Misses))
	ms.set("sweepd.dispatches", float64(p.Dispatches), 1)
	ms.set("sweepd.spawns", float64(p.Spawns), 1)
	ms.set("sweepd.deaths", float64(p.Deaths), 1)
}

// jobCounters fetches a finished job's full results (the JSON-lines form
// of the results stream) as statistics tables.
func (s *server) jobCounters(id string) ([]counters, error) {
	resp, err := http.Get(s.base + "/jobs/" + id + "/results")
	if err != nil {
		return nil, fmt.Errorf("GET results: %w", err)
	}
	defer resp.Body.Close()
	var tabs []counters
	dec := json.NewDecoder(resp.Body)
	for {
		var row sweepd.Row
		if err := dec.Decode(&row); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("job %s results: %w", id, err)
		}
		if row.Result == nil {
			return nil, fmt.Errorf("job %s: row without a result: %+v", id, row)
		}
		tabs = append(tabs, resultCounters(*row.Result))
	}
	if len(tabs) != svcCases {
		return nil, fmt.Errorf("job %s: %d result rows, want %d", id, len(tabs), svcCases)
	}
	return tabs, nil
}

// expectedCSV renders the table a job over jobSeed must produce, from
// in-process cdf.Run calls and the service's own CSV writer.
func expectedCSV(jobSeed uint64) ([]byte, error) {
	var rows []sweepd.Row
	for _, b := range svcBenches {
		for _, m := range allModes {
			res, err := cdf.Run(b, cdf.Options{Mode: m, MaxUops: svcUops, WarmupUops: svcWarmup, Seed: jobSeed})
			if err != nil {
				return nil, err
			}
			rows = append(rows, sweepd.Row{Bench: b, Mode: m.String(), Seed: jobSeed, Status: "done", Result: &res})
		}
	}
	var buf bytes.Buffer
	err := sweepd.WriteCSV(&buf, rows)
	return buf.Bytes(), err
}

// svcSetup starts a service and runs one warm-up job pair through it:
// server start, journal recovery, the first worker spawns and the first
// cache writes — everything before the first timed job.
func svcSetup(e *env, k int, start func(binDir, dir string) (*server, error)) (*server, time.Duration, error) {
	t0 := time.Now()
	s, err := start(e.binDir, filepath.Join(e.workDir, fmt.Sprintf("store%d", k)))
	if err != nil {
		return nil, 0, err
	}
	_, _, err = s.iteration(svcJobSeed(e.seed, svcWarmIter), nil, 0)
	d := time.Since(t0)
	if err != nil {
		return nil, 0, errors.Join(fmt.Errorf("warm-up job: %w", err), s.stop())
	}
	return s, d, nil
}

// runService is an untraced run of the service workload against a real
// cdfsweepd process.
func runService(e *env) (metricSet, error) {
	// The first set-up starts the server the loop uses. The others start
	// a server of their own, on their own cache directory, and stop it
	// untimed, while the loop's server waits.
	var (
		srv     *server
		stopRSS func() ([]float64, error)
	)
	setup := func(k int) (time.Duration, error) {
		s, d, err := svcSetup(e, k, startServer)
		if err != nil {
			return 0, err
		}
		if k > 0 {
			return d, s.stop()
		}
		srv, stopRSS = s, sampleRSS(s.procs())
		return d, nil
	}

	// Every 10th cold table is kept and recomputed in-process afterwards.
	type table struct {
		seed uint64
		csv  []byte
	}
	var kept []table
	loop := runLoop(loopSpec{items: 1, budget: e.budget, minOps: minTimedOps, maxPasses: svcMaxIters, cal: e.cal, setup: setup}, e.t, func(pass, _ int) error {
		seed := svcJobSeed(e.seed, pass+1)
		cold, _, err := srv.iteration(seed, nil, pass)
		if err == nil && pass%10 == 0 {
			kept = append(kept, table{seed, cold.csv})
		}
		return err
	})
	if srv == nil {
		return nil, loop.err
	}
	rss, rerr := stopRSS()
	h, herr := srv.health()
	if err := errors.Join(loop.err, rerr, herr, srv.stop()); err != nil {
		return nil, err
	}
	e.t.check(checkHealth(h, loop.passes+1))
	for _, k := range kept {
		want, err := expectedCSV(k.seed)
		if err == nil && !bytes.Equal(want, k.csv) {
			err = fmt.Errorf("seed %d: service table differs from in-process cdf.Run:\n%s\nwant:\n%s", k.seed, k.csv, want)
		}
		e.t.check(err)
	}

	ms := metricSet{}
	setTimings(e, ms, loop, rss, float64(2*svcCases*svcUops))
	return ms, nil
}
