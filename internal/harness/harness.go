// Package harness executes simulations with fault isolation. Every run is
// driven inside a recovered goroutine so an internal-consistency panic
// (core's errInternal) surfaces as a structured *SimError carrying a
// machine-state snapshot instead of killing the process; runs honour
// wall-clock timeouts and context cancellation cooperatively; and Pool
// provides the bounded, failure-isolated worker pool that parallel suite
// sweeps are built on. The top-level cdf package routes Run and every
// experiment through Exec, so one wedged or panicking benchmark never
// takes down a sweep.
package harness

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"strings"
	"sync/atomic"
	"time"

	"cdf/internal/core"
)

// Sim is the slice of a simulated machine the harness drives. *core.Core
// implements it; tests substitute stubs.
type Sim interface {
	// Cycle advances the machine one clock.
	Cycle()
	// Finished reports whether the run has ended.
	Finished() bool
	// StopReason classifies how the run ended (StopNone while running).
	StopReason() core.StopReason
	// Snapshot captures the diagnostic machine state.
	Snapshot() core.Snapshot
}

// Options configures one hardened execution.
type Options struct {
	// Timeout bounds the run's wall-clock time (0 = no limit). Expired
	// runs abort cooperatively at the next cycle-chunk boundary and
	// return a *SimError with a snapshot.
	Timeout time.Duration
	// Seed is the generation seed of the run, embedded in any *SimError
	// so failure reports always carry what is needed to reproduce (0 =
	// not seed-driven).
	Seed uint64
}

// Abort reasons in SimError.Reason.
const (
	ReasonPanic       = "panic"
	ReasonTimeout     = "timeout"
	ReasonCanceled    = "canceled"
	ReasonWatchdog    = "watchdog"
	ReasonCycleBudget = "cycle-budget"
	ReasonDivergence  = "divergence"
)

// FailureReason is the failure class of a failed run as the sweep journal
// and the worker protocol record it: the *SimError's Reason, or "error"
// for anything else (an unknown benchmark, invalid options).
func FailureReason(err error) string {
	var se *SimError
	if errors.As(err, &se) {
		return se.Reason
	}
	return "error"
}

// Sentinel targets for errors.Is: callers match failure classes
// programmatically instead of string-sniffing SimError.Reason.
var (
	ErrPanic       = errors.New("simulation panicked")
	ErrTimeout     = errors.New("simulation timed out")
	ErrCanceled    = errors.New("simulation canceled")
	ErrWatchdog    = errors.New("simulation watchdog tripped")
	ErrCycleBudget = errors.New("simulation cycle budget expired")
	ErrDivergence  = errors.New("simulation diverged from reference")
)

// SimError describes a simulation that did not complete: a recovered
// panic, a tripped watchdog, an expired cycle budget, a wall-clock
// timeout, or a cancellation. When HasSnap is set, Snap holds the machine
// state at (or nearest to) the failure.
type SimError struct {
	Reason     string // one of the Reason* constants
	PanicValue any    // the recovered value (Reason == ReasonPanic)
	Stack      []byte // goroutine stack at the panic site
	Cause      error  // underlying error (e.g. *oracle.DivergenceError)
	Seed       uint64 // generation seed of the failed run (0 = not seeded)
	Snap       core.Snapshot
	HasSnap    bool
}

// Error renders a single diagnostic line; use Snap.String() for the full
// machine-state block.
func (e *SimError) Error() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "simulation %s", e.Reason)
	if e.PanicValue != nil {
		fmt.Fprintf(&sb, ": %v", e.PanicValue)
	}
	if e.Cause != nil {
		fmt.Fprintf(&sb, ": %v", e.Cause)
	}
	if e.Seed != 0 {
		fmt.Fprintf(&sb, " (seed %d)", e.Seed)
	}
	if e.HasSnap {
		fmt.Fprintf(&sb, " [cycle %d, retired %d, ROB %d+%d/%d", e.Snap.Cycle, e.Snap.Retired,
			e.Snap.ROBCrit, e.Snap.ROBNon, e.Snap.ROBCap)
		if e.Snap.Head.Valid {
			fmt.Fprintf(&sb, ", head %s@%#x %s", e.Snap.Head.Op, e.Snap.Head.PC, e.Snap.Head.State)
		}
		sb.WriteString("]")
	}
	return sb.String()
}

// Unwrap lets errors.As reach the underlying cause — the divergence error
// in oracle-mode failures, or the panic value when it is itself an error.
func (e *SimError) Unwrap() error {
	if e.Cause != nil {
		return e.Cause
	}
	if err, ok := e.PanicValue.(error); ok {
		return err
	}
	return nil
}

// Is maps the failure class onto the package's sentinel errors, so
// errors.Is(err, harness.ErrWatchdog) and friends work through any
// wrapping (including cdf.SweepError's multi-error Unwrap).
func (e *SimError) Is(target error) bool {
	switch target {
	case ErrPanic:
		return e.Reason == ReasonPanic
	case ErrTimeout:
		return strings.HasPrefix(e.Reason, ReasonTimeout)
	case ErrCanceled:
		return strings.HasPrefix(e.Reason, ReasonCanceled)
	case ErrWatchdog:
		return e.Reason == ReasonWatchdog
	case ErrCycleBudget:
		return e.Reason == ReasonCycleBudget
	case ErrDivergence:
		return e.Reason == ReasonDivergence
	}
	return false
}

// cycleChunk is how many cycles run between cancellation checks: large
// enough to amortize the check, small enough that timeouts land within
// microseconds of the deadline.
const cycleChunk = 4096

// graceWait bounds how long Exec waits, after requesting a stop, for the
// simulation goroutine to reach a chunk boundary and report.
const graceWait = 2 * time.Second

type execResult struct {
	reason  core.StopReason
	err     error
	stopped bool // aborted on request; snap holds the state at the stop
	snap    core.Snapshot
}

// Exec drives sim to completion inside a recovered goroutine and returns
// its stop reason. A non-nil error means the run's statistics must not be
// trusted: the simulator panicked (*SimError with the recovered value and
// a best-effort snapshot), tripped its watchdog, expired its cycle
// budget, hit the wall-clock timeout, or was canceled via ctx.
func Exec(ctx context.Context, sim Sim, opt Options) (core.StopReason, error) {
	var stop atomic.Bool
	done := make(chan execResult, 1)
	go func() {
		defer func() {
			if r := recover(); r != nil {
				snap, ok := safeSnapshot(sim)
				done <- execResult{err: &SimError{
					Reason:     ReasonPanic,
					PanicValue: r,
					Stack:      debug.Stack(),
					Seed:       opt.Seed,
					Snap:       snap,
					HasSnap:    ok,
				}}
			}
		}()
		for !sim.Finished() {
			for i := 0; i < cycleChunk && !sim.Finished(); i++ {
				sim.Cycle()
			}
			if stop.Load() && !sim.Finished() {
				done <- execResult{stopped: true, snap: sim.Snapshot()}
				return
			}
		}
		reason, err := classify(sim, opt.Seed)
		done <- execResult{reason: reason, err: err}
	}()

	var timeout <-chan time.Time
	if opt.Timeout > 0 {
		t := time.NewTimer(opt.Timeout)
		defer t.Stop()
		timeout = t.C
	}
	var cause string
	select {
	case r := <-done:
		return r.reason, r.err
	case <-ctx.Done():
		cause = ReasonCanceled
	case <-timeout:
		cause = ReasonTimeout
	}

	// Ask the simulation goroutine to stop and give it a grace period to
	// reach a chunk boundary. A machine hard-hung inside a single Cycle
	// cannot oblige; abandon its goroutine rather than hang the sweep.
	stop.Store(true)
	grace := time.NewTimer(graceWait)
	defer grace.Stop()
	select {
	case r := <-done:
		if !r.stopped {
			return r.reason, r.err // finished (or panicked) while stopping
		}
		return core.StopNone, &SimError{Reason: cause, Seed: opt.Seed, Snap: r.snap, HasSnap: true}
	case <-grace.C:
		return core.StopNone, &SimError{
			Reason: cause + " (simulator unresponsive inside a cycle; goroutine abandoned)",
			Seed:   opt.Seed,
		}
	}
}

// errSim is the optional interface a Sim implements to surface a run-
// stopping error (the differential oracle's divergence). *core.Core
// implements it; harness test stubs need not.
type errSim interface{ Err() error }

// classify turns a finished sim's stop reason into the Exec result:
// truncated runs (watchdog, cycle budget, divergence) are errors with
// snapshots.
func classify(sim Sim, seed uint64) (core.StopReason, error) {
	reason := sim.StopReason()
	switch reason {
	case core.StopWatchdog:
		return reason, &SimError{Reason: ReasonWatchdog, Seed: seed, Snap: sim.Snapshot(), HasSnap: true}
	case core.StopCycleBudget:
		return reason, &SimError{Reason: ReasonCycleBudget, Seed: seed, Snap: sim.Snapshot(), HasSnap: true}
	case core.StopDivergence:
		var cause error
		if es, ok := sim.(errSim); ok {
			cause = es.Err()
		}
		return reason, &SimError{Reason: ReasonDivergence, Cause: cause, Seed: seed,
			Snap: sim.Snapshot(), HasSnap: true}
	default:
		return reason, nil
	}
}

// safeSnapshot captures a snapshot from a machine that just panicked —
// whose state may be inconsistent enough that Snapshot itself panics.
func safeSnapshot(sim Sim) (snap core.Snapshot, ok bool) {
	defer func() {
		if recover() != nil {
			ok = false
		}
	}()
	return sim.Snapshot(), true
}
