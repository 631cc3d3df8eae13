package sweepd

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"cdf"
	"cdf/internal/harness"
	"cdf/internal/sweepstore"
)

// TestMain doubles as the worker executable: the supervisor tests re-exec
// this test binary with SWEEPD_TEST_WORKER=1 and get a real subprocess
// speaking the worker protocol — real pipes, real kills, real zombies —
// without building cdfsim first.
func TestMain(m *testing.M) {
	if os.Getenv("SWEEPD_TEST_WORKER") == "1" {
		var chaos *harness.Chaos
		if spec := os.Getenv("SWEEPD_TEST_CHAOS"); spec != "" {
			var err error
			chaos, err = harness.ParseChaos(spec)
			if err != nil {
				fmt.Fprintln(os.Stderr, "test worker:", err)
				os.Exit(2)
			}
		}
		if err := RunWorker(os.Stdin, os.Stdout, chaos, 5*time.Millisecond); err != nil {
			fmt.Fprintln(os.Stderr, "test worker:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// testSpec is the small sweep the service tests run: 2 kernels x 2 modes,
// short runs, fixed seed, so four deterministic cases.
func testSpec() JobSpec {
	return JobSpec{
		Benchmarks: []string{"astar", "lbm"},
		Modes:      []string{"baseline", "cdf"},
		Seeds:      []uint64{7},
		MaxUops:    2000,
	}
}

func newTestStore(t *testing.T, dir string) *sweepstore.Store {
	t.Helper()
	store, err := sweepstore.Open(dir, true)
	if err != nil {
		t.Fatalf("open store: %v", err)
	}
	return store
}

func newTestSupervisor(t *testing.T, store *sweepstore.Store, chaosSpec string, retries, breakerN int, hbTimeout time.Duration) *Supervisor {
	t.Helper()
	sup, err := NewSupervisor(SupervisorConfig{
		Cmd:              []string{os.Args[0]},
		Env:              []string{"SWEEPD_TEST_WORKER=1", "SWEEPD_TEST_CHAOS=" + chaosSpec},
		Workers:          2,
		HeartbeatTimeout: hbTimeout,
		Retries:          retries,
		Backoff:          sweepstore.Backoff{Base: time.Millisecond, Cap: 2 * time.Millisecond, Seed: 1},
		Store:            store,
		Breaker:          NewBreaker(breakerN),
		Logf:             t.Logf,
	})
	if err != nil {
		t.Fatalf("new supervisor: %v", err)
	}
	t.Cleanup(sup.Close)
	return sup
}

func newTestService(t *testing.T, store *sweepstore.Store, sup *Supervisor, maxQueue int) *Service {
	t.Helper()
	svc, err := NewService(ServiceConfig{Store: store, Supervisor: sup, MaxQueue: maxQueue, Logf: t.Logf})
	if err != nil {
		t.Fatalf("new service: %v", err)
	}
	return svc
}

// waitState polls until the job reaches a terminal state.
func waitState(t *testing.T, j *Job, want string) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Minute)
	for time.Now().Before(deadline) {
		if st := j.State(); st == want {
			return
		} else if st == JobDone || st == JobFailed {
			t.Fatalf("job %s reached %s, want %s", j.ID, st, want)
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("job %s stuck in %s, want %s", j.ID, j.State(), want)
}

// TestWorkerProtocol drives RunWorker in-process over pipes: a request
// produces heartbeats and then a result identical to calling the library
// directly.
func TestWorkerProtocol(t *testing.T) {
	reqR, reqW := io.Pipe()
	respR, respW := io.Pipe()
	workerErr := make(chan error, 1)
	go func() { workerErr <- RunWorker(reqR, respW, nil, time.Millisecond) }()

	opt := cdf.Options{Mode: cdf.ModeCDF, MaxUops: 2000, Seed: 7}
	req := request{ID: 42, Bench: "astar", Opt: opt, CaseID: "astar/cdf"}
	b, _ := json.Marshal(req)
	if _, err := reqW.Write(append(b, '\n')); err != nil {
		t.Fatalf("write request: %v", err)
	}

	dec := json.NewDecoder(respR)
	hbs := 0
	var got cdf.Result
	for {
		var resp response
		if err := dec.Decode(&resp); err != nil {
			t.Fatalf("decode response: %v", err)
		}
		if resp.ID != 42 {
			t.Fatalf("response for id %d, want 42", resp.ID)
		}
		if resp.Type == "hb" {
			hbs++
			continue
		}
		if resp.Type != "result" || resp.Result == nil {
			t.Fatalf("terminal response %q (reason %q, msg %q), want result", resp.Type, resp.Reason, resp.Msg)
		}
		got = *resp.Result
		break
	}
	t.Logf("heartbeats before result: %d", hbs)

	want, err := cdf.Run("astar", opt)
	if err != nil {
		t.Fatalf("direct run: %v", err)
	}
	if got.Cycles != want.Cycles || got.IPC != want.IPC || got.Uops != want.Uops {
		t.Fatalf("worker result differs from direct run: got cycles=%d ipc=%v, want cycles=%d ipc=%v",
			got.Cycles, got.IPC, want.Cycles, want.IPC)
	}

	reqW.Close() // EOF = graceful retirement
	if err := <-workerErr; err != nil {
		t.Fatalf("worker exit: %v", err)
	}
}

// TestWorkerKillResume is the core fault-isolation proof at the
// supervisor level: chaos kills worker processes mid-case, the supervisor
// detects the death, respawns, retries — and every result is identical to
// a run with no chaos at all.
func TestWorkerKillResume(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess sweep; skipped in -short")
	}
	spec := testSpec()

	cleanStore := newTestStore(t, t.TempDir())
	defer cleanStore.Close()
	clean := newTestSupervisor(t, cleanStore, "", 0, 0, 0)
	var want []cdf.Result
	for _, c := range spec.cases() {
		res, _, err := clean.RunCase(context.Background(), c.Bench, c.Opt)
		if err != nil {
			t.Fatalf("clean %s/%s: %v", c.Bench, c.Opt.Mode, err)
		}
		want = append(want, res)
	}

	chaosStore := newTestStore(t, t.TempDir())
	defer chaosStore.Close()
	chaotic := newTestSupervisor(t, chaosStore, "seed=3,workerkill=0.5", 6, 0, 0)
	for i, c := range spec.cases() {
		res, fromCache, err := chaotic.RunCase(context.Background(), c.Bench, c.Opt)
		if err != nil {
			t.Fatalf("chaotic %s/%s: %v", c.Bench, c.Opt.Mode, err)
		}
		if fromCache {
			t.Fatalf("chaotic %s/%s served from cache on a fresh store", c.Bench, c.Opt.Mode)
		}
		if res.Cycles != want[i].Cycles || res.IPC != want[i].IPC || res.Uops != want[i].Uops {
			t.Errorf("%s/%s: chaotic result differs: cycles %d vs %d", c.Bench, c.Opt.Mode, res.Cycles, want[i].Cycles)
		}
	}
	st := chaotic.Stats()
	t.Logf("chaotic pool stats: %+v", st)
	if st.Deaths == 0 {
		t.Fatalf("chaos workerkill=0.5 killed no workers; the test proved nothing (stats %+v)", st)
	}
	if got := chaosStore.Stats().Retries; got == 0 {
		t.Fatalf("worker deaths consumed no retries (store stats %+v)", chaosStore.Stats())
	}
}

// TestHeartbeatStallRequeue proves a wedged worker is killed on heartbeat
// loss and its case re-executed on a fresh worker exactly once: every
// case completes, and the store records exactly one Put per case — a
// requeue, never a duplicate execution.
func TestHeartbeatStallRequeue(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess sweep; skipped in -short")
	}
	spec := testSpec()
	store := newTestStore(t, t.TempDir())
	defer store.Close()
	sup := newTestSupervisor(t, store, "seed=5,hbstall=0.5", 6, 0, 700*time.Millisecond)
	for _, c := range spec.cases() {
		if _, _, err := sup.RunCase(context.Background(), c.Bench, c.Opt); err != nil {
			t.Fatalf("%s/%s: %v", c.Bench, c.Opt.Mode, err)
		}
	}
	st := sup.Stats()
	t.Logf("pool stats: %+v", st)
	if st.Stalls == 0 {
		t.Fatalf("chaos hbstall=0.5 stalled no workers; the test proved nothing (stats %+v)", st)
	}
	puts := store.Stats().Puts
	if want := int64(len(spec.cases())); puts != want {
		t.Fatalf("store recorded %d puts for %d cases: a stalled case was executed twice (or lost)", puts, want)
	}
}

// TestWorkerPanicIsolated pins the acceptance requirement that an
// injected worker panic never terminates the server: panics are recovered
// inside the worker process (zero worker deaths), reported as structured
// failures, retried, and the job still completes.
func TestWorkerPanicIsolated(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess sweep; skipped in -short")
	}
	store := newTestStore(t, t.TempDir())
	defer store.Close()
	sup := newTestSupervisor(t, store, "seed=2,panic=0.5", 6, 0, 0)
	svc := newTestService(t, store, sup, 0)
	svc.Start()
	defer svc.Stop()

	j, err := svc.Submit(testSpec())
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	waitState(t, j, JobDone)
	if _, _, failures := j.progress(); failures != 0 {
		t.Fatalf("job finished with %d failed cases, want 0", failures)
	}
	if st := sup.Stats(); st.Deaths != 0 {
		t.Fatalf("in-worker panics killed %d worker processes; recovery should contain them", st.Deaths)
	}
	if store.Stats().Retries == 0 {
		t.Fatalf("chaos panic=0.5 triggered no retries; the test proved nothing (store stats %+v)", store.Stats())
	}

	// The server survived: /healthz answers and reports the retry traffic.
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatalf("healthz: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d, want 200", resp.StatusCode)
	}
	var h Health
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatalf("healthz decode: %v", err)
	}
	if h.Cache.Retries == 0 || h.Pool.Dispatches == 0 {
		t.Fatalf("healthz counters not surfaced: %+v", h)
	}
}

// TestBreakerQuarantine proves the circuit breaker opens after the
// configured number of terminal failures: the third submission of an
// always-failing job is rejected per-case without a single dispatch, and
// the job still completes with a partial (all-failed) table.
func TestBreakerQuarantine(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess sweep; skipped in -short")
	}
	spec := JobSpec{Benchmarks: []string{"astar"}, Modes: []string{"baseline", "cdf"},
		Seeds: []uint64{7}, MaxUops: 2000}
	dir := t.TempDir()
	store := newTestStore(t, dir)
	defer store.Close()
	// panic=1: every attempt fails deterministically; retries=0: each
	// submission burns exactly one terminal failure; threshold 2.
	sup := newTestSupervisor(t, store, "seed=1,panic=1", 0, 2, 0)
	svc := newTestService(t, store, sup, 0)
	svc.Start()
	defer svc.Stop()

	for round := 1; round <= 2; round++ {
		j, err := svc.Submit(spec)
		if err != nil {
			t.Fatalf("submit round %d: %v", round, err)
		}
		waitState(t, j, JobDone)
		if _, total, failures := j.progress(); failures != total {
			t.Fatalf("round %d: %d/%d cases failed, want all", round, failures, total)
		}
	}
	if got := sup.cfg.Breaker.Quarantined(); got != len(spec.cases()) {
		t.Fatalf("breaker quarantined %d cases after threshold, want %d", got, len(spec.cases()))
	}

	before := sup.Stats().Dispatches
	j, err := svc.Submit(spec)
	if err != nil {
		t.Fatalf("submit quarantined round: %v", err)
	}
	waitState(t, j, JobDone)
	if after := sup.Stats().Dispatches; after != before {
		t.Fatalf("quarantined job still dispatched %d cases to workers", after-before)
	}
	if got := sup.Stats().Quarantined; got == 0 {
		t.Fatalf("quarantine rejections not counted")
	}
	rows, _ := j.snapshotRows()
	for _, r := range rows {
		if r.Status != "failed" || !strings.Contains(r.Error, "quarantined") {
			t.Fatalf("quarantined row = %+v, want failed with quarantine error", r)
		}
	}

	// The quarantine survives a restart: the journal's failure records
	// re-seed a fresh breaker at recovery.
	svc.Stop()
	if err := store.Close(); err != nil {
		t.Fatalf("close store: %v", err)
	}
	store2 := newTestStore(t, dir)
	defer store2.Close()
	breaker2 := NewBreaker(2)
	if _, _, err := recoverJobs(store2, breaker2); err != nil {
		t.Fatalf("recover: %v", err)
	}
	if got := breaker2.Quarantined(); got != len(spec.cases()) {
		t.Fatalf("restart recovered %d quarantined cases, want %d", got, len(spec.cases()))
	}
}

// TestServiceResumeEquivalence extends the golden resume-equivalence
// proof to the service path: a server killed hard mid-sweep under worker
// chaos, restarted on the same cache dir, requeues the journaled job,
// serves the finished cases from the cache, completes the rest, and
// renders a CSV byte-identical to an uninterrupted clean server's.
func TestServiceResumeEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process sweep; skipped in -short")
	}
	spec := testSpec()

	// Clean reference run.
	cleanDir := t.TempDir()
	cleanStore := newTestStore(t, cleanDir)
	cleanSup := newTestSupervisor(t, cleanStore, "", 0, 0, 0)
	cleanSvc := newTestService(t, cleanStore, cleanSup, 0)
	cleanSvc.Start()
	jc, err := cleanSvc.Submit(spec)
	if err != nil {
		t.Fatalf("clean submit: %v", err)
	}
	waitState(t, jc, JobDone)
	wantCSV := fetchCSV(t, cleanSvc, jc.ID)
	cleanSvc.Stop()
	cleanStore.Close()

	// Chaotic run, killed hard mid-sweep.
	dir := t.TempDir()
	store1 := newTestStore(t, dir)
	sup1 := newTestSupervisor(t, store1, "seed=9,workerkill=0.4,slow=1,slowfor=400ms", 6, 0, 0)
	svc1 := newTestService(t, store1, sup1, 0)
	svc1.Start()
	j1, err := svc1.Submit(spec)
	if err != nil {
		t.Fatalf("chaotic submit: %v", err)
	}
	deadline := time.Now().Add(time.Minute)
	for {
		if n, _, _ := j1.progress(); n >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no case completed within a minute under chaos")
		}
		time.Sleep(5 * time.Millisecond)
	}
	svc1.Stop() // hard stop: in-flight cases canceled, like a SIGKILL
	sup1.Close()
	if err := store1.Close(); err != nil {
		t.Fatalf("close chaotic store: %v", err)
	}
	done1, total, _ := j1.progress()
	t.Logf("killed server with %d/%d cases done", done1, total)
	if done1 == total {
		t.Fatalf("job finished before the kill; widen the chaos slow-down")
	}

	// Restart on the same dir: the job must be requeued and finish.
	store2 := newTestStore(t, dir)
	defer store2.Close()
	sup2 := newTestSupervisor(t, store2, "", 0, 0, 0)
	svc2 := newTestService(t, store2, sup2, 0)
	j2 := svc2.job(j1.ID)
	if j2 == nil {
		t.Fatalf("restart did not recover job %s from the journal", j1.ID)
	}
	if j2.State() != JobQueued {
		t.Fatalf("recovered job state %s, want queued", j2.State())
	}
	svc2.Start()
	defer svc2.Stop()
	waitState(t, j2, JobDone)
	if store2.Stats().Hits == 0 {
		t.Fatalf("restart re-simulated every case; finished cases should be cache hits (stats %+v)", store2.Stats())
	}
	gotCSV := fetchCSV(t, svc2, j2.ID)
	if !bytes.Equal(gotCSV, wantCSV) {
		t.Fatalf("resumed table differs from clean table:\n--- clean ---\n%s\n--- resumed ---\n%s", wantCSV, gotCSV)
	}
}

// TestLoadShedding pins the 429 path: with a full admission queue the
// server sheds the submission instead of buffering unboundedly.
func TestLoadShedding(t *testing.T) {
	store := newTestStore(t, t.TempDir())
	defer store.Close()
	sup := newTestSupervisor(t, store, "", 0, 0, 0)
	svc := newTestService(t, store, sup, 1)
	// Deliberately not started: the queued job stays queued.
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	body := `{"benchmarks":["astar"],"modes":["cdf"],"max_uops":2000}`
	resp1, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("submit 1: %v", err)
	}
	resp1.Body.Close()
	if resp1.StatusCode != http.StatusAccepted {
		t.Fatalf("submit 1 status %d, want 202", resp1.StatusCode)
	}
	resp2, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("submit 2: %v", err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("submit over capacity: status %d, want 429", resp2.StatusCode)
	}
	if resp2.Header.Get("Retry-After") == "" {
		t.Fatalf("429 without Retry-After")
	}

	// Bad specs are 400, not queued.
	for _, bad := range []string{`{"modes":["warp"]}`, `{"benchmarks":["nope"]}`, `not json`,
		`{"warmup_uops":100000}`, `{"fdip":true}`} {
		resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(bad))
		if err != nil {
			t.Fatalf("bad spec: %v", err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("bad spec %q: status %d, want 400", bad, resp.StatusCode)
		}
	}
}

// TestDrainRejectsSubmissions pins the graceful-shutdown contract: after
// Drain, submissions get 503 and /healthz reports draining with 503.
func TestDrainRejectsSubmissions(t *testing.T) {
	store := newTestStore(t, t.TempDir())
	defer store.Close()
	sup := newTestSupervisor(t, store, "", 0, 0, 0)
	svc := newTestService(t, store, sup, 0)
	svc.Start()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := svc.Drain(ctx); err != nil {
		t.Fatalf("drain of an idle service: %v", err)
	}

	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	resp, err := http.Post(ts.URL+"/jobs", "application/json",
		strings.NewReader(`{"benchmarks":["astar"],"modes":["cdf"],"max_uops":2000}`))
	if err != nil {
		t.Fatalf("submit while draining: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit while draining: status %d, want 503", resp.StatusCode)
	}
	hz, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatalf("healthz: %v", err)
	}
	defer hz.Body.Close()
	if hz.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz while draining: status %d, want 503", hz.StatusCode)
	}
}

// fetchCSV streams a job's full CSV table through the HTTP handler.
func fetchCSV(t *testing.T, svc *Service, jobID string) []byte {
	t.Helper()
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/jobs/" + jobID + "/results?format=csv")
	if err != nil {
		t.Fatalf("fetch results: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("results status %d, want 200", resp.StatusCode)
	}
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read results: %v", err)
	}
	return b
}
