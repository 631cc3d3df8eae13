package sweepd

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"cdf"
	"cdf/internal/harness"
	"cdf/internal/sweepstore"
)

// DefaultHeartbeatTimeout is how long the supervisor waits without any
// output line — heartbeat or result — from a worker before declaring it
// wedged and killing it.
const DefaultHeartbeatTimeout = 15 * time.Second

// SupervisorConfig configures the subprocess worker pool.
type SupervisorConfig struct {
	// Cmd is the worker argv, e.g. {"cdfsim", "-worker", "-chaos", spec}.
	// Workers are spawned lazily and respawned after death.
	Cmd []string
	// Env is appended to the inherited environment of every worker.
	Env []string
	// Workers bounds the pool (0 = GOMAXPROCS).
	Workers int
	// HeartbeatTimeout kills a worker that produced no output line for
	// this long mid-case (0 = DefaultHeartbeatTimeout). Workers heartbeat
	// every DefaultHeartbeatEvery while simulating, so only a genuinely
	// wedged or dead-but-undetected worker trips it.
	HeartbeatTimeout time.Duration
	// Retries is the per-case retry budget for transient failures.
	Retries int
	// Backoff is the retry backoff policy (zero value = sweepstore
	// defaults).
	Backoff sweepstore.Backoff
	// Store persists and serves results; required. Completed cases are
	// cached and journaled exactly as the in-process sweep path does.
	Store *sweepstore.Store
	// Breaker quarantines repeatedly-failing cases (nil = no breaker).
	Breaker *Breaker
	// Stderr receives worker stderr (nil = os.Stderr).
	Stderr io.Writer
	// Logf logs supervisor events — spawns, deaths, stalls, quarantines
	// (nil = silent).
	Logf func(format string, args ...any)
}

// SupervisorStats counts worker-pool traffic since construction.
type SupervisorStats struct {
	Dispatches  int64 // case attempts sent to a worker
	Deaths      int64 // workers that died mid-case (crash, kill, OOM)
	Stalls      int64 // workers killed for heartbeat loss
	Spawns      int64 // worker processes started
	Quarantined int64 // dispatch rejections by an open circuit breaker
}

// Supervisor runs cases on a bounded pool of subprocess workers with
// process-level fault isolation: a worker that panics is reported and
// reused; a worker that dies or wedges is killed and replaced, and its
// case is retried on a fresh worker by the same cdf.CaseExecutor the
// in-process sweep uses.
type Supervisor struct {
	cfg       SupervisorConfig
	exec      cdf.CaseExecutor
	hbTimeout time.Duration
	slots     chan *slot
	nextReqID atomic.Int64

	dispatches, deaths, stalls, spawns, quarantined atomic.Int64

	mu     sync.Mutex
	closed bool
}

// slot is one worker seat in the pool; w is nil until a process is
// needed, and again after one is killed.
type slot struct {
	w *worker
}

// worker is one live subprocess.
type worker struct {
	cmd   *exec.Cmd
	stdin io.WriteCloser
	lines chan []byte // closed when stdout reaches EOF (process death)
}

// NewSupervisor builds the pool. Workers are spawned on first use.
func NewSupervisor(cfg SupervisorConfig) (*Supervisor, error) {
	if len(cfg.Cmd) == 0 {
		return nil, errors.New("sweepd: supervisor needs a worker command")
	}
	if cfg.Store == nil {
		return nil, errors.New("sweepd: supervisor needs a store")
	}
	n := cfg.Workers
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	cfg.Workers = n
	hb := cfg.HeartbeatTimeout
	if hb <= 0 {
		hb = DefaultHeartbeatTimeout
	}
	s := &Supervisor{cfg: cfg, hbTimeout: hb, slots: make(chan *slot, n),
		exec: cdf.CaseExecutor{Store: cfg.Store, Retries: cfg.Retries, Backoff: cfg.Backoff,
			Breaker: cfg.Breaker, Logf: cfg.Logf}}
	for i := 0; i < n; i++ {
		s.slots <- &slot{}
	}
	return s, nil
}

// Workers returns the pool size.
func (s *Supervisor) Workers() int { return s.cfg.Workers }

// Stats returns the pool traffic counters.
func (s *Supervisor) Stats() SupervisorStats {
	return SupervisorStats{
		Dispatches:  s.dispatches.Load(),
		Deaths:      s.deaths.Load(),
		Stalls:      s.stalls.Load(),
		Spawns:      s.spawns.Load(),
		Quarantined: s.quarantined.Load(),
	}
}

// logf logs through the configured sink.
func (s *Supervisor) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// RunCase executes one case end to end under the service's durability,
// retry, and quarantine policy (cdf.CaseExecutor), each attempt
// dispatched to a subprocess worker. Worker death, heartbeat loss and
// in-worker panics come back as *harness.SimError failures that
// sweepstore.Retryable classifies exactly like their in-process
// equivalents.
func (s *Supervisor) RunCase(ctx context.Context, bench string, opt cdf.Options) (cdf.Result, bool, error) {
	// Worker chaos keys on the stable case name, not the cache key (see
	// DESIGN.md §11).
	caseID := bench + "/" + opt.Mode.String()
	res, fromCache, err := s.exec.Run(ctx, bench, opt, func(ctx context.Context, _ string, n int) (cdf.Result, error) {
		return s.attempt(ctx, request{ID: s.nextReqID.Add(1), Bench: bench, Opt: opt, CaseID: caseID, Attempt: n})
	})
	if errors.Is(err, cdf.ErrQuarantined) {
		s.quarantined.Add(1)
	}
	return res, fromCache, err
}

// attempt runs one dispatch on one worker slot: acquire a seat, ensure a
// live process, send the case, and supervise the conversation. A worker
// that returned a clean result or a structured failure stays in its seat;
// one that died, wedged, or was interrupted mid-case is killed and its
// seat respawns on next use.
func (s *Supervisor) attempt(ctx context.Context, req request) (cdf.Result, error) {
	var sl *slot
	select {
	case sl = <-s.slots:
	case <-ctx.Done():
		return cdf.Result{}, ctx.Err()
	}
	defer func() { s.slots <- sl }()

	if sl.w == nil {
		w, err := s.spawn()
		if err != nil {
			// A spawn failure (missing binary, exec error) is a server
			// misconfiguration, not a case failure: deterministic, fail
			// fast.
			return cdf.Result{}, fmt.Errorf("sweepd: spawn worker: %w", err)
		}
		sl.w = w
	}
	s.dispatches.Add(1)
	res, err, workerOK := s.dispatch(ctx, sl.w, req)
	if !workerOK {
		sl.w.kill()
		sl.w = nil
	}
	return res, err
}

// dispatch sends one request and supervises the reply stream. workerOK
// reports whether the process is still trustworthy for the next case.
func (s *Supervisor) dispatch(ctx context.Context, w *worker, req request) (cdf.Result, error, bool) {
	b, err := json.Marshal(req)
	if err != nil {
		return cdf.Result{}, err, true
	}
	if _, err := w.stdin.Write(append(b, '\n')); err != nil {
		s.deaths.Add(1)
		s.logf("sweepd: worker died before accepting %s attempt %d", req.CaseID, req.Attempt)
		return cdf.Result{}, deathError(req, err), false
	}
	hbt := time.NewTimer(s.hbTimeout)
	defer hbt.Stop()
	for {
		select {
		case line, ok := <-w.lines:
			if !ok {
				s.deaths.Add(1)
				s.logf("sweepd: worker died mid-case (%s attempt %d)", req.CaseID, req.Attempt)
				return cdf.Result{}, deathError(req, nil), false
			}
			hbt.Reset(s.hbTimeout)
			var resp response
			if err := json.Unmarshal(line, &resp); err != nil || resp.ID != req.ID {
				// Garbage or a stale line from a previous life of the
				// pipe: ignore it, the heartbeat timer still bounds us.
				continue
			}
			switch resp.Type {
			case "hb":
				// Timer already reset above.
			case "result":
				if resp.Result == nil {
					return cdf.Result{}, deathError(req, errors.New("result response without a result")), false
				}
				return *resp.Result, nil, true
			case "fail":
				// A structured failure: the worker is healthy, the case
				// is not. Rebuild the harness error shape so
				// sweepstore.Retryable classifies it exactly as it would
				// the in-process equivalent.
				return cdf.Result{}, &harness.SimError{
					Reason: resp.Reason,
					Cause:  errors.New(resp.Msg),
					Seed:   req.Opt.Seed,
				}, true
			}
		case <-hbt.C:
			s.stalls.Add(1)
			s.logf("sweepd: worker heartbeat lost (%s attempt %d); killing and requeueing", req.CaseID, req.Attempt)
			return cdf.Result{}, stallError(req), false
		case <-ctx.Done():
			// Deadline or cancellation: the worker may be mid-simulation;
			// kill it rather than let an abandoned case burn a seat.
			return cdf.Result{}, ctx.Err(), false
		}
	}
}

// deathError classifies an abrupt worker death — crash, OOM kill, chaos
// worker-kill — as the process-level analogue of a worker panic:
// transient, retryable on a fresh worker.
func deathError(req request, cause error) error {
	if cause == nil {
		cause = errors.New("worker process exited mid-case")
	}
	return &harness.SimError{Reason: harness.ReasonPanic,
		Cause: fmt.Errorf("sweepd: %s attempt %d: %w", req.CaseID, req.Attempt, cause),
		Seed:  req.Opt.Seed}
}

// stallError classifies heartbeat loss as the process-level analogue of a
// tripped forward-progress watchdog: the machine may be livelocked, the
// case is requeued on a fresh worker.
func stallError(req request) error {
	return &harness.SimError{Reason: harness.ReasonWatchdog,
		Cause: fmt.Errorf("sweepd: %s attempt %d: worker heartbeat lost", req.CaseID, req.Attempt),
		Seed:  req.Opt.Seed}
}

// spawn starts one worker process and its stdout reader.
func (s *Supervisor) spawn() (*worker, error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, errors.New("sweepd: supervisor closed")
	}
	s.mu.Unlock()
	cmd := exec.Command(s.cfg.Cmd[0], s.cfg.Cmd[1:]...)
	cmd.Env = append(os.Environ(), s.cfg.Env...)
	if s.cfg.Stderr != nil {
		cmd.Stderr = s.cfg.Stderr
	} else {
		cmd.Stderr = os.Stderr
	}
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	s.spawns.Add(1)
	w := &worker{cmd: cmd, stdin: stdin, lines: make(chan []byte, 8)}
	go func() {
		sc := bufio.NewScanner(stdout)
		sc.Buffer(make([]byte, 0, 64*1024), maxLine)
		for sc.Scan() {
			w.lines <- append([]byte(nil), sc.Bytes()...)
		}
		close(w.lines)
		// Reap the process so kills and exits never leave zombies.
		cmd.Wait()
	}()
	return w, nil
}

// kill tears a worker down hard and unblocks its reader so the process is
// reaped even when nobody is consuming its lines anymore.
func (w *worker) kill() {
	if w == nil {
		return
	}
	w.stdin.Close()
	if w.cmd.Process != nil {
		w.cmd.Process.Kill()
	}
	go func() {
		for range w.lines {
		}
	}()
}

// retire asks a worker to exit gracefully (EOF on stdin) and drains its
// remaining output.
func (w *worker) retire() {
	if w == nil {
		return
	}
	w.stdin.Close()
	go func() {
		// Drain until EOF; if the worker ignores EOF, kill it after a
		// grace period.
		t := time.AfterFunc(2*time.Second, func() {
			if w.cmd.Process != nil {
				w.cmd.Process.Kill()
			}
		})
		for range w.lines {
		}
		t.Stop()
	}()
}

// Close retires every worker. In-flight RunCase calls must have finished
// (the service drains jobs before closing the supervisor).
func (s *Supervisor) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.mu.Unlock()
	for i := 0; i < s.cfg.Workers; i++ {
		sl := <-s.slots
		sl.w.retire()
		sl.w = nil
		s.slots <- sl
	}
}
