package main

import (
	"time"
)

// opSample is one timed event of a closed loop: an operation, or a set-up
// timed between operations.
type opSample struct {
	lat   time.Duration
	pass  int
	setup bool
}

// loopResult is what one closed loop measured.
type loopResult struct {
	ops    []opSample // operations and set-ups, in the order they ran
	passes int
	// calib[k] is the calibration reading, in milliseconds, taken just
	// before event k of ops; the last one follows the last event. Empty
	// without a calibrator.
	calib []float64
	// err is the first set-up failure; the loop stops at it.
	err error
}

// loopSpec shapes one closed loop.
type loopSpec struct {
	items int
	// Passes repeat until budget has elapsed and at least minOps
	// operations have run, but not past maxOverrun times the budget; a
	// zero budget sets no time limit. maxPasses, when positive, caps the
	// passes.
	budget    time.Duration
	minOps    int
	maxPasses int
	// With a calibrator, the loop takes a calibration reading before its
	// first event and after every event, while none runs.
	cal *calibrator
	// setup, when set, is called setupRepeats times with k = 0, 1, ...:
	// before the first operation, then between operations each time
	// another budget/setupRepeats has elapsed. It returns the time the
	// set-up took.
	setup func(k int) (time.Duration, error)
}

// minTimedOps is the fewest operations a timed run measures: a 90th
// percentile needs ten samples beyond it.
const minTimedOps = 100

// maxOverrun bounds how far past its budget a loop runs to reach minTimedOps
// on a slow host.
const maxOverrun = 1.5

// setupRepeats is how many times a run sets up; setup_s is the median. The
// host's speed changes from one second to the next, and set-ups made back to
// back all fall into the same second or two: over ten runs per workload, the
// median of nine consecutive set-ups spread by 16–38%. Spread over the run,
// the set-ups sample the host as the operations do, and their median spread
// by 11–19%.
const setupRepeats = 9

// calReach is how many calibration readings on each side of an event scale
// it. The host's speed changes within seconds, so only readings taken right
// around an event describe the speed it ran at; the median of six keeps one
// disturbed reading from moving it.
const calReach = 3

// runLoop is the closed-loop load generator: one caller runs the items
// operations of a pass in order, each starting when the previous one
// returned, and passes repeat. Only whole passes run, so every run times the
// same mix of operations however many passes fit. fn runs operation item of
// pass and reports whether it failed.
func runLoop(ls loopSpec, t *tally, fn func(pass, item int) error) loopResult {
	var res loopResult
	calibrate := func() {
		if ls.cal != nil {
			res.calib = append(res.calib, ls.cal.reading())
		}
	}
	start := time.Now()
	setups := 0
	pending := func() bool { return ls.setup != nil && setups < setupRepeats && res.err == nil }
	setUp := func() {
		d, err := ls.setup(setups)
		setups++
		if err != nil {
			res.err = err
			return
		}
		res.ops = append(res.ops, opSample{lat: d, setup: true})
		calibrate()
	}
	calibrate()
	nops := 0
	for pass := 0; ls.maxPasses <= 0 || pass < ls.maxPasses; pass++ {
		if el := time.Since(start); pass > 0 && ls.budget > 0 &&
			(el >= ls.budget && nops >= ls.minOps || el.Seconds() >= maxOverrun*ls.budget.Seconds()) {
			break
		}
		for i := 0; i < ls.items; i++ {
			if pending() && time.Since(start) >= time.Duration(setups)*ls.budget/setupRepeats {
				if setUp(); res.err != nil {
					return res
				}
			}
			t0 := time.Now()
			err := fn(pass, i)
			res.ops = append(res.ops, opSample{lat: time.Since(t0), pass: pass})
			nops++
			t.op(err)
			calibrate()
		}
		res.passes++
	}
	for pending() { // set-ups not yet due when the loop ended
		setUp()
	}
	return res
}

// millis returns the latencies of the operations (setup false) or of the
// set-ups (setup true) among ops, in milliseconds, each multiplied by the
// matching entry of scale when that is given.
func (r loopResult) millis(setup bool, scale []float64) []float64 {
	var out []float64
	for i, s := range r.ops {
		if s.setup != setup {
			continue
		}
		x := float64(s.lat) / float64(time.Millisecond)
		if scale != nil {
			x *= scale[i]
		}
		out = append(out, x)
	}
	return out
}

// latencies returns the operations' latencies in milliseconds.
func (r loopResult) latencies() []float64 { return r.millis(false, nil) }

// scales returns, for each event, the factor that brings its time to the
// reference host's speed: speedup of the median of the calReach calibration
// readings before it and the calReach after it. Without calibration every
// factor is 1.
func (r loopResult) scales() []float64 {
	out := make([]float64, len(r.ops))
	for i := range out {
		out[i] = 1
		if len(r.calib) > 0 {
			lo, hi := max(0, i+1-calReach), min(len(r.calib), i+1+calReach)
			out[i] = speedup(median(r.calib[lo:hi]))
		}
	}
	return out
}

// adjusted returns the operations' latencies in milliseconds at the
// reference host's speed.
func (r loopResult) adjusted() []float64 { return r.millis(false, r.scales()) }

// setupsAdjusted returns the set-ups' times in milliseconds at the
// reference host's speed.
func (r loopResult) setupsAdjusted() []float64 { return r.millis(true, r.scales()) }

// sum adds xs up.
func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}
