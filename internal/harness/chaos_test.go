package harness

import (
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestParseChaos(t *testing.T) {
	c, err := ParseChaos("seed=7,panic=0.25,delay=2ms,corrupt=0.5,killafter=4")
	if err != nil {
		t.Fatal(err)
	}
	want := ChaosConfig{Seed: 7, PanicProb: 0.25, MaxDelay: 2 * time.Millisecond,
		DelayProb: 1, CorruptProb: 0.5, KillAfter: 4}
	if c.cfg != want {
		t.Fatalf("parsed %+v, want %+v", c.cfg, want)
	}
	for _, bad := range []string{"panic=2", "bogus=1", "panic", "killafter=x",
		"workerkill=-1", "hbstall=1.5", "slowfor=oops"} {
		if _, err := ParseChaos(bad); err == nil {
			t.Fatalf("spec %q parsed without error", bad)
		}
	}
	if c, err := ParseChaos(""); err != nil || c.cfg != (ChaosConfig{}) {
		t.Fatalf("empty spec: %+v, %v", c, err)
	}
}

func TestParseChaosWorkerFaults(t *testing.T) {
	c, err := ParseChaos("seed=3,workerkill=0.2,hbstall=0.1,hbstallfor=2s,slow=0.3,slowfor=500ms")
	if err != nil {
		t.Fatal(err)
	}
	want := ChaosConfig{Seed: 3, WorkerKillProb: 0.2, StallProb: 0.1,
		StallFor: 2 * time.Second, SlowProb: 0.3, SlowFor: 500 * time.Millisecond}
	if c.cfg != want {
		t.Fatalf("parsed %+v, want %+v", c.cfg, want)
	}
}

// TestChaosWorkerFaultDraws: the subprocess-worker fault decisions are
// deterministic per (case, attempt), vary with the attempt (so retries
// eventually clear an injected fault), and are inert at probability 0 and
// on a nil receiver.
func TestChaosWorkerFaultDraws(t *testing.T) {
	c := NewChaos(ChaosConfig{Seed: 11, WorkerKillProb: 0.5, StallProb: 0.5, SlowProb: 0.5})
	kills, stalls, slows := 0, 0, 0
	for attempt := 0; attempt < 32; attempt++ {
		if c.WorkerKill("case-x", attempt) != c.WorkerKill("case-x", attempt) {
			t.Fatal("WorkerKill draw not deterministic")
		}
		if c.WorkerKill("case-x", attempt) {
			kills++
		}
		if c.HeartbeatStall("case-x", attempt) {
			stalls++
		}
		if d, ok := c.SlowWorker("case-x", attempt); ok {
			slows++
			if d <= 0 || d > 200*time.Millisecond {
				t.Fatalf("slow delay %v outside (0, default 200ms]", d)
			}
		}
	}
	for name, n := range map[string]int{"kill": kills, "stall": stalls, "slow": slows} {
		if n == 0 || n == 32 {
			t.Fatalf("%s draws degenerate at p=0.5: %d/32", name, n)
		}
	}
	if c.StallDuration() != time.Hour {
		t.Fatalf("default stall duration %v, want 1h", c.StallDuration())
	}

	var nilC *Chaos
	if nilC.WorkerKill("k", 0) || nilC.HeartbeatStall("k", 0) {
		t.Fatal("nil chaos injected a worker fault")
	}
	if _, ok := nilC.SlowWorker("k", 0); ok {
		t.Fatal("nil chaos injected a slow-worker fault")
	}
	quiet := NewChaos(ChaosConfig{Seed: 11})
	if quiet.WorkerKill("k", 0) || quiet.HeartbeatStall("k", 0) {
		t.Fatal("zero-probability chaos injected a worker fault")
	}
}

// TestChaosDeterministicPerCaseAttempt: the panic decision for a given
// (case, attempt) must be a pure function of the seed — independent of
// call order, worker count, or how often it is asked.
func TestChaosDeterministicPerCaseAttempt(t *testing.T) {
	c := NewChaos(ChaosConfig{Seed: 9, PanicProb: 0.5})
	panicked := func(key string, attempt int) (p bool) {
		defer func() { p = recover() != nil }()
		c.BeforeCase(key, attempt)
		return false
	}
	first := map[[2]any]bool{}
	hits := 0
	for _, key := range []string{"case-a", "case-b", "case-c", "case-d", "case-e", "case-f"} {
		for attempt := 0; attempt < 4; attempt++ {
			first[[2]any{key, attempt}] = panicked(key, attempt)
			if first[[2]any{key, attempt}] {
				hits++
			}
		}
	}
	// Re-ask in a different order: every answer must match.
	for attempt := 3; attempt >= 0; attempt-- {
		for _, key := range []string{"case-f", "case-a", "case-c", "case-e", "case-b", "case-d"} {
			if panicked(key, attempt) != first[[2]any{key, attempt}] {
				t.Fatalf("decision for (%s, %d) changed between calls", key, attempt)
			}
		}
	}
	if hits == 0 || hits == 24 {
		t.Fatalf("panic draws degenerate at p=0.5: %d/24 panicked", hits)
	}
}

func TestChaosPanicMessageNamesCase(t *testing.T) {
	c := NewChaos(ChaosConfig{PanicProb: 1})
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("PanicProb=1 did not panic")
		}
		if !strings.Contains(r.(string), "chaos: injected panic") {
			t.Fatalf("panic value %q does not identify itself as chaos", r)
		}
	}()
	c.BeforeCase("abcdef0123456789", 0)
}

func TestChaosKillAfter(t *testing.T) {
	c := NewChaos(ChaosConfig{KillAfter: 3})
	var exits atomic.Int64
	c.Exit = func(code int) {
		if code != ChaosExitCode {
			t.Errorf("exit code %d, want %d", code, ChaosExitCode)
		}
		exits.Add(1)
	}
	for i := 0; i < 5; i++ {
		c.CaseSimulated()
	}
	if exits.Load() != 1 {
		t.Fatalf("Exit called %d times, want exactly once", exits.Load())
	}
}

func TestChaosNilIsInert(t *testing.T) {
	var c *Chaos
	c.BeforeCase("k", 0) // must not panic
	c.CaseSimulated()
	if c.CorruptPut() {
		t.Fatal("nil chaos corrupted a put")
	}
}

func TestChaosCorruptPutSequence(t *testing.T) {
	c := NewChaos(ChaosConfig{CorruptProb: 1})
	if !c.CorruptPut() {
		t.Fatal("CorruptProb=1 did not corrupt")
	}
	c2 := NewChaos(ChaosConfig{CorruptProb: 0.5, Seed: 4})
	a, b := 0, 0
	for i := 0; i < 64; i++ {
		if c2.CorruptPut() {
			a++
		} else {
			b++
		}
	}
	if a == 0 || b == 0 {
		t.Fatalf("corrupt draws degenerate at p=0.5: %d yes / %d no", a, b)
	}
}

// TestChaosDrawPinned pins a few fault draws to the values they had when
// the draw was first shared with sweepstore's backoff jitter, so the
// chaos and sweepd smokes keep injecting the same faults at the same
// points.
func TestChaosDrawPinned(t *testing.T) {
	for _, tc := range []struct {
		seed      uint64
		kind, key string
		attempt   int
		want      float64
	}{
		{1, "panic", "mcf/cdf", 0, 0.7406405416551382},
		{1, "corrupt", "3", 0, 0.26634450189207237},
		{1, "delaylen", "astar/baseline", 2, 0.4158265296538117},
		{9, "workerkill", "lbm/pre", 0, 0.7834082634224008},
		{9, "slow", "lbm/pre", 1, 0.370525541011515},
		{9, "slowlen", "omnetpp/hybrid", 3, 0.5572698047760286},
	} {
		c := NewChaos(ChaosConfig{Seed: tc.seed})
		if got := c.draw(tc.kind, tc.key, tc.attempt); got != tc.want {
			t.Errorf("seed %d draw(%q, %q, %d) = %v, want %v", tc.seed, tc.kind, tc.key, tc.attempt, got, tc.want)
		}
	}
}
