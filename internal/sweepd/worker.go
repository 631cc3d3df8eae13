// Package sweepd is the long-running sweep service: an HTTP/JSON server
// (Service) over a persistent, crash-recovering job queue, executing the
// (config × kernel × seed) case space on a bounded pool of *subprocess*
// workers (Supervisor) so a panicking, OOM-killed, or wedged simulation
// is contained in its own process and can never take down a server
// holding queued jobs.
//
// The layers, bottom up:
//
//   - worker.go — the stdin/stdout line protocol a worker process speaks
//     (`cdfsim -worker`): one JSON request per case, heartbeat lines while
//     simulating, one result or fail line per case.
//   - supervisor.go — spawns and monitors workers and turns death and
//     heartbeat loss into retryable *harness.SimError failures. Each case
//     runs through cdf.CaseExecutor, the executor the in-process sweeps
//     use: cache hit, breaker check, attempts classified by
//     sweepstore.Retryable with capped-exponential backoff, persist
//     before return, a journaled failure record on terminal failure.
//     Cancellation (drain, stop, job deadline) is not a failure: such a
//     case is neither journaled nor charged to the breaker.
//   - breaker.go — the per-case circuit breaker.
//   - queue.go — jobs: specs, case expansion, journal-backed recovery.
//   - server.go — the HTTP API, admission control (429 load shedding),
//     result streaming, and SIGTERM drain.
package sweepd

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"time"

	"cdf"
	"cdf/internal/harness"
)

// Protocol message shapes. Every message is one JSON object per line.
//
// Worker stdin (supervisor → worker): request.
// Worker stdout (worker → supervisor): response, with Type one of
// "hb" (heartbeat: the case is still running), "result" (completed;
// Result is set), "fail" (the run failed in-process; Reason is the
// harness failure class, e.g. "panic", "watchdog", "timeout").
type request struct {
	ID      int64       `json:"id"`
	Bench   string      `json:"bench"`
	Opt     cdf.Options `json:"opt"`
	CaseID  string      `json:"case_id"` // stable human case name; keys chaos draws
	Attempt int         `json:"attempt"`
}

type response struct {
	Type   string      `json:"type"` // "hb" | "result" | "fail"
	ID     int64       `json:"id"`
	Result *cdf.Result `json:"result,omitempty"`
	Reason string      `json:"reason,omitempty"` // harness.Reason* or "error"
	Msg    string      `json:"msg,omitempty"`
}

// Line-protocol limits shared by both sides.
const (
	// maxLine bounds one protocol line. A Result with its full metric
	// table marshals to a few KB; 1MB is two orders of magnitude of head
	// room without letting a corrupted stream allocate unboundedly.
	maxLine = 1 << 20

	// DefaultHeartbeatEvery is the worker's heartbeat period while a case
	// simulates. It must be comfortably below any supervisor heartbeat
	// timeout.
	DefaultHeartbeatEvery = 100 * time.Millisecond
)

// RunWorker is the worker side of the protocol, the body of `cdfsim
// -worker`: read case requests from in, one JSON line each, simulate
// them, and write heartbeats plus one terminal response per case to out.
// It returns when in reaches EOF (the supervisor closed stdin — the
// graceful retirement path) or the stream is unreadable.
//
// Failures stay inside the process boundary by construction: a panic
// anywhere in a case — injected by chaos or real — is recovered and
// reported as a "fail" response, and everything harsher (a genuine OOM
// kill, a chaos worker-kill, a wedge) takes down only this process, which
// is exactly the isolation the supervisor exists to absorb.
//
// chaos (nil = none) injects the worker-side faults deterministically:
// worker-kill (exit mid-case), heartbeat-stall (silent wedge), slow-worker
// (delay with heartbeats flowing), and the pre-existing per-attempt panics.
func RunWorker(in io.Reader, out io.Writer, chaos *harness.Chaos, hbEvery time.Duration) error {
	if hbEvery <= 0 {
		hbEvery = DefaultHeartbeatEvery
	}
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 0, 64*1024), maxLine)
	w := bufio.NewWriter(out)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var req request
		if err := json.Unmarshal(line, &req); err != nil {
			return fmt.Errorf("sweepd: worker: malformed request: %w", err)
		}
		if err := serveCase(w, req, chaos, hbEvery); err != nil {
			return err
		}
	}
	return sc.Err()
}

// serveCase runs one dispatched case: chaos process-level faults first
// (they model crashes that strike before any result exists), then the
// simulation in a goroutine with heartbeats emitted until it finishes.
func serveCase(w *bufio.Writer, req request, chaos *harness.Chaos, hbEvery time.Duration) error {
	// Worker-kill: die abruptly mid-case — request accepted, no response
	// ever written. The supervisor sees the pipe close.
	if chaos.WorkerKill(req.CaseID, req.Attempt) {
		fmt.Fprintf(os.Stderr, "chaos: worker self-kill (case %s attempt %d)\n", req.CaseID, req.Attempt)
		chaos.Exit(harness.ChaosExitCode)
	}
	// Heartbeat-stall: wedge silently. No heartbeats, no response — the
	// supervisor's heartbeat timeout must kill this process. The bounded
	// sleep plus exit is a backstop for supervisors that never do.
	if chaos.HeartbeatStall(req.CaseID, req.Attempt) {
		fmt.Fprintf(os.Stderr, "chaos: worker heartbeat stall (case %s attempt %d)\n", req.CaseID, req.Attempt)
		time.Sleep(chaos.StallDuration())
		chaos.Exit(harness.ChaosExitCode)
		return nil
	}

	done := make(chan response, 1)
	go func() { done <- runOne(req, chaos) }()
	tick := time.NewTicker(hbEvery)
	defer tick.Stop()
	for {
		select {
		case resp := <-done:
			return writeLine(w, resp)
		case <-tick.C:
			if err := writeLine(w, response{Type: "hb", ID: req.ID}); err != nil {
				return err
			}
		}
	}
}

// runOne executes the case itself through cdf.RunAttempt — the same
// in-process attempt the sweep path uses, chaos panics recovered into a
// *harness.SimError — and converts a failure into a "fail" response
// carrying its harness failure class, which the supervisor classifies
// with sweepstore.Retryable exactly as the in-process path does.
func runOne(req request, chaos *harness.Chaos) response {
	if d, ok := chaos.SlowWorker(req.CaseID, req.Attempt); ok {
		time.Sleep(d) // heartbeats keep flowing: slow, not wedged
	}
	res, err := cdf.RunAttempt(context.Background(), req.Bench, req.Opt, chaos, req.CaseID, req.Attempt)
	if err != nil {
		return response{Type: "fail", ID: req.ID, Reason: harness.FailureReason(err), Msg: err.Error()}
	}
	return response{Type: "result", ID: req.ID, Result: &res}
}

// writeLine marshals one response and flushes it — a buffered but
// unflushed heartbeat is a missed heartbeat.
func writeLine(w *bufio.Writer, resp response) error {
	b, err := json.Marshal(resp)
	if err != nil {
		return fmt.Errorf("sweepd: worker: %w", err)
	}
	if _, err := w.Write(append(b, '\n')); err != nil {
		return err
	}
	return w.Flush()
}
