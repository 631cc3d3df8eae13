package harness

import (
	"fmt"
	"hash/fnv"
	"os"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// ChaosExitCode is the process exit status of a chaos-injected kill, so
// drivers (the chaos-smoke script) can tell an injected crash from a real
// failure.
const ChaosExitCode = 3

// ChaosConfig parameterizes deterministic fault injection into a sweep.
// All decisions are derived from Seed and the case key (never from time,
// scheduling, or a shared random stream), so a chaos run is exactly
// reproducible: the same seed injects the same faults into the same cases
// on every attempt, regardless of worker count or dispatch order.
type ChaosConfig struct {
	Seed uint64

	// PanicProb is the probability that a given (case, attempt) dispatch
	// panics before simulating — the injected "worker panic" the retry
	// path must absorb. Keyed per attempt, so a case that panics on its
	// first try draws fresh on the retry.
	PanicProb float64

	// DelayProb and MaxDelay inject a sleep of up to MaxDelay before a
	// dispatch, perturbing scheduling order (which must not change
	// results).
	DelayProb float64
	MaxDelay  time.Duration

	// CorruptProb is the probability that a cache write is damaged on
	// disk (see sweepstore.Store.CorruptPut): the integrity check must
	// turn the damage into a re-simulation, never a wrong row. Drawn from
	// a sequence counter, not the case key, so a damaged entry is
	// rewritten clean on a later attempt and sweeps still converge.
	CorruptProb float64

	// KillAfter aborts the process (via Exit) once this many cases have
	// been *simulated* to completion in this process — cache hits do not
	// count, so every attempt of a kill/resume cycle makes progress and a
	// sweep resumed enough times always finishes. 0 disables.
	KillAfter int

	// WorkerKillProb is the probability that a subprocess worker kills
	// itself (via Exit) mid-case: after accepting the dispatch, before
	// writing any result. The supervisor sees the pipe close and must
	// requeue the case on a fresh worker. Keyed per (case, attempt), so
	// retries draw fresh and a killed case eventually completes.
	WorkerKillProb float64

	// StallProb is the probability that a subprocess worker wedges
	// mid-case: it stops emitting heartbeats and never responds,
	// simulating an infinite loop inside one cycle or a livelocked
	// worker. The supervisor's heartbeat timeout must kill and requeue.
	// StallFor bounds the wedge for safety (0 = 1h, far beyond any
	// heartbeat timeout).
	StallProb float64
	StallFor  time.Duration

	// SlowProb injects a delay of up to SlowFor (0 = 200ms) into a
	// worker's case execution *while heartbeats keep flowing*: a slow
	// worker is healthy and must never be confused with a wedged one.
	SlowProb float64
	SlowFor  time.Duration
}

// Chaos injects deterministic faults into a sweep. The zero of *Chaos
// (nil) is inert: every method is nil-receiver-safe, so callers thread it
// through unconditionally.
type Chaos struct {
	cfg ChaosConfig

	// Exit is called to kill the process when KillAfter trips; defaults
	// to os.Exit. In-process tests override it (e.g. with a context
	// cancel) to simulate the crash without losing the test runner.
	Exit func(code int)

	completed  atomic.Int64
	corruptSeq atomic.Int64
	killed     atomic.Bool
}

// NewChaos builds a chaos injector killing via os.Exit by default.
func NewChaos(cfg ChaosConfig) *Chaos {
	return &Chaos{cfg: cfg, Exit: os.Exit}
}

// ParseChaos parses a -chaos flag spec: comma-separated key=value pairs
//
//	seed=7,panic=0.15,delay=2ms,delayprob=0.5,corrupt=0.1,killafter=4
//	seed=1,workerkill=0.2,hbstall=0.1,hbstallfor=1h,slow=0.3,slowfor=500ms
//
// Unknown keys are errors. delay sets MaxDelay; delayprob defaults to 1
// when a delay is given. workerkill/hbstall/slow are the subprocess-worker
// faults interpreted by `cdfsim -worker` (see internal/sweepd).
func ParseChaos(spec string) (*Chaos, error) {
	cfg := ChaosConfig{}
	delayProbSet := false
	for _, kv := range strings.Split(spec, ",") {
		kv = strings.TrimSpace(kv)
		if kv == "" {
			continue
		}
		k, v, ok := strings.Cut(kv, "=")
		if !ok {
			return nil, fmt.Errorf("harness: chaos: %q is not key=value", kv)
		}
		var err error
		switch k {
		case "seed":
			cfg.Seed, err = strconv.ParseUint(v, 10, 64)
		case "panic":
			cfg.PanicProb, err = strconv.ParseFloat(v, 64)
		case "delay":
			cfg.MaxDelay, err = time.ParseDuration(v)
		case "delayprob":
			cfg.DelayProb, err = strconv.ParseFloat(v, 64)
			delayProbSet = true
		case "corrupt":
			cfg.CorruptProb, err = strconv.ParseFloat(v, 64)
		case "killafter":
			cfg.KillAfter, err = strconv.Atoi(v)
		case "workerkill":
			cfg.WorkerKillProb, err = strconv.ParseFloat(v, 64)
		case "hbstall":
			cfg.StallProb, err = strconv.ParseFloat(v, 64)
		case "hbstallfor":
			cfg.StallFor, err = time.ParseDuration(v)
		case "slow":
			cfg.SlowProb, err = strconv.ParseFloat(v, 64)
		case "slowfor":
			cfg.SlowFor, err = time.ParseDuration(v)
		default:
			return nil, fmt.Errorf("harness: chaos: unknown key %q (want seed|panic|delay|delayprob|corrupt|killafter|workerkill|hbstall|hbstallfor|slow|slowfor)", k)
		}
		if err != nil {
			return nil, fmt.Errorf("harness: chaos: %s: %w", k, err)
		}
	}
	if cfg.MaxDelay > 0 && !delayProbSet {
		cfg.DelayProb = 1
	}
	for _, p := range []float64{cfg.PanicProb, cfg.DelayProb, cfg.CorruptProb,
		cfg.WorkerKillProb, cfg.StallProb, cfg.SlowProb} {
		if p < 0 || p > 1 {
			return nil, fmt.Errorf("harness: chaos: probability %v outside [0,1]", p)
		}
	}
	return NewChaos(cfg), nil
}

// BeforeCase runs the pre-dispatch injections for one (case, attempt):
// an optional delay, then an optional panic. Callers run it inside their
// per-attempt recover so the panic is absorbed exactly like a real
// worker panic.
func (c *Chaos) BeforeCase(key string, attempt int) {
	if c == nil {
		return
	}
	if c.cfg.MaxDelay > 0 && c.draw("delay", key, attempt) < c.cfg.DelayProb {
		frac := c.draw("delaylen", key, attempt)
		time.Sleep(time.Duration(frac * float64(c.cfg.MaxDelay)))
	}
	if c.draw("panic", key, attempt) < c.cfg.PanicProb {
		panic(fmt.Sprintf("chaos: injected panic (case %.12s attempt %d)", key, attempt))
	}
}

// CorruptPut reports whether the next cache write should land damaged.
// Sequence-numbered, not case-keyed: see ChaosConfig.CorruptProb.
func (c *Chaos) CorruptPut() bool {
	if c == nil || c.cfg.CorruptProb == 0 {
		return false
	}
	seq := c.corruptSeq.Add(1)
	return c.draw("corrupt", strconv.FormatInt(seq, 10), 0) < c.cfg.CorruptProb
}

// WorkerKill reports whether this (case, attempt) dispatch should kill
// the worker process mid-case. The caller (the worker's serve loop) exits
// via Exit(ChaosExitCode) after accepting the request and before writing
// any response, so the supervisor observes an abrupt pipe close.
func (c *Chaos) WorkerKill(key string, attempt int) bool {
	if c == nil || c.cfg.WorkerKillProb == 0 {
		return false
	}
	return c.draw("workerkill", key, attempt) < c.cfg.WorkerKillProb
}

// HeartbeatStall reports whether this (case, attempt) dispatch should
// wedge the worker: no heartbeats, no response, for StallDuration.
func (c *Chaos) HeartbeatStall(key string, attempt int) bool {
	if c == nil || c.cfg.StallProb == 0 {
		return false
	}
	return c.draw("hbstall", key, attempt) < c.cfg.StallProb
}

// StallDuration bounds an injected heartbeat stall. The default, one
// hour, is effectively forever next to any heartbeat timeout — the
// supervisor is expected to kill the worker long before it elapses.
func (c *Chaos) StallDuration() time.Duration {
	if c == nil || c.cfg.StallFor <= 0 {
		return time.Hour
	}
	return c.cfg.StallFor
}

// SlowWorker returns the injected execution delay for this (case,
// attempt), drawn uniformly in (0, SlowFor]. Heartbeats must keep
// flowing during the sleep: a slow worker is healthy.
func (c *Chaos) SlowWorker(key string, attempt int) (time.Duration, bool) {
	if c == nil || c.cfg.SlowProb == 0 {
		return 0, false
	}
	if c.draw("slow", key, attempt) >= c.cfg.SlowProb {
		return 0, false
	}
	max := c.cfg.SlowFor
	if max <= 0 {
		max = 200 * time.Millisecond
	}
	frac := c.draw("slowlen", key, attempt)
	return time.Duration(frac * float64(max)), true
}

// CaseSimulated records one case simulated to completion in this process
// and, when the KillAfter budget is spent, kills the process — the
// chaos stand-in for an OOM-kill or SIGKILL mid-sweep. Durable state
// (journal, cache) was already fsync'd by the time this is called, which
// is exactly the property the kill/resume smoke proves.
func (c *Chaos) CaseSimulated() {
	if c == nil || c.cfg.KillAfter <= 0 {
		return
	}
	if c.completed.Add(1) >= int64(c.cfg.KillAfter) && c.killed.CompareAndSwap(false, true) {
		fmt.Fprintf(os.Stderr, "chaos: killing process after %d simulated cases\n", c.cfg.KillAfter)
		c.Exit(ChaosExitCode)
	}
}

// draw maps (seed, kind, key, attempt) to a uniform float in [0,1).
func (c *Chaos) draw(kind, key string, attempt int) float64 {
	return Draw(c.cfg.Seed, kind+"\x00"+key, attempt)
}

// Draw hashes (seed, key, attempt) to a uniform float in [0,1): the one
// seeded draw behind chaos fault injection and sweepstore's retry jitter.
func Draw(seed uint64, key string, attempt int) float64 {
	h := fnv.New64a()
	var buf [16]byte
	for i := 0; i < 8; i++ {
		buf[i] = byte(seed >> (8 * i))
		buf[8+i] = byte(uint64(attempt) >> (8 * i))
	}
	h.Write(buf[:])
	h.Write([]byte(key))
	return float64(mix64(h.Sum64())>>11) / float64(1<<53)
}

// mix64 is a splitmix64-style finalizer: FNV's high bits are weakly mixed
// for short inputs, and the uniform draw uses exactly those bits.
func mix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}
