// Package front models the instruction-supply side of the core: the L1I
// timing knobs, a decoupled fetch-directed instruction prefetcher (FDIP) in
// the spirit of MANA, and shadow-branch decoding ("Exposing Shadow
// Branches") that extends effective BTB reach by harvesting branch targets
// from already-fetched cache lines.
//
// The package holds the frontend's own state machines (fetch-target queue,
// lookahead walker, accuracy throttle, static line decoder); the shadow BTB
// is a second branch.BTB. internal/core owns the clock and drives them once
// per cycle, and internal/mem owns the instruction-side cache port they
// feed. The timed
// L1I itself is not part of this package: every machine fetches through
// it. With Config.Enabled false (the default) none of this exists, and
// with Enabled true and every feature off the machine times the same.
package front

import "fmt"

// Config enables and sizes the instruction-supply subsystem. The zero
// value disables it entirely. All fields are comparable scalars so Config
// can ride inside core.Config's struct-equality contracts (warmer
// compatibility, CaseKey hashing).
type Config struct {
	// Enabled turns the subsystem on and unlocks the features below.
	// When false every other field is ignored. Alone it changes no
	// timing; energy then bills the FTQ and walker area.
	Enabled bool

	// PerfectL1I makes every instruction fetch hit in zero extra cycles
	// (the line-tracking structural limit of two distinct lines per cycle
	// is kept). It is the ideal-instruction-supply upper bound the FDIP
	// recovery experiments compare against.
	PerfectL1I bool

	// FDIP enables the decoupled fetch-directed prefetcher: a lookahead
	// walker runs ahead of fetch, gated by BTB/shadow-BTB target reach,
	// enqueueing upcoming instruction lines into the fetch-target queue,
	// which issues L1I prefetches under accuracy-based throttling.
	// Incompatible with PerfectL1I (there is nothing to prefetch).
	FDIP bool

	// ShadowBTB enables shadow-branch decoding: branches found in fetched
	// lines are decoded (one cycle later) into a separate shadow BTB that
	// backs up the main BTB on taken-branch target misses and extends the
	// FDIP walker's reach.
	ShadowBTB bool

	// FTQSize is the fetch-target queue capacity in line entries.
	FTQSize int

	// LookaheadUops bounds how far (in dynamic uops) the FDIP walker may
	// run ahead of the fetch frontier.
	LookaheadUops int

	// ScanUops bounds how many dynamic uops the walker examines per cycle.
	ScanUops int

	// MinDegree/MaxDegree bound the FTQ issue degree (prefetches per
	// cycle); the FDP-style throttle moves the degree inside this range.
	MinDegree, MaxDegree int

	// ThrottleInterval is the number of issued prefetches per accuracy
	// evaluation window (mirrors prefetch.Config.Interval).
	ThrottleInterval uint64

	// ShadowEntries/ShadowWays size the shadow BTB.
	ShadowEntries, ShadowWays int
}

// Default returns the standard frontend configuration (enabled, with FDIP
// and shadow decoding off until selected explicitly).
func Default() Config {
	return Config{
		Enabled:          true,
		FTQSize:          32,
		LookaheadUops:    512,
		ScanUops:         16,
		MinDegree:        1,
		MaxDegree:        4,
		ThrottleInterval: 64,
		ShadowEntries:    8192,
		ShadowWays:       4,
	}
}

// Validate checks the configuration. A disabled config is always valid.
func (c Config) Validate() error {
	if !c.Enabled {
		return nil
	}
	if c.FDIP && c.PerfectL1I {
		return fmt.Errorf("front: FDIP is meaningless with PerfectL1I (nothing to prefetch)")
	}
	if c.FTQSize <= 0 {
		return fmt.Errorf("front: FTQSize must be positive, got %d", c.FTQSize)
	}
	if c.LookaheadUops <= 0 {
		return fmt.Errorf("front: LookaheadUops must be positive, got %d", c.LookaheadUops)
	}
	if c.ScanUops <= 0 {
		return fmt.Errorf("front: ScanUops must be positive, got %d", c.ScanUops)
	}
	if c.MinDegree <= 0 || c.MaxDegree < c.MinDegree {
		return fmt.Errorf("front: need 0 < MinDegree <= MaxDegree, got [%d,%d]", c.MinDegree, c.MaxDegree)
	}
	if c.ThrottleInterval == 0 {
		return fmt.Errorf("front: ThrottleInterval must be positive")
	}
	if c.ShadowBTB {
		if c.ShadowEntries <= 0 || c.ShadowWays <= 0 || c.ShadowEntries%c.ShadowWays != 0 {
			return fmt.Errorf("front: shadow BTB needs positive Entries divisible by Ways, got %d/%d",
				c.ShadowEntries, c.ShadowWays)
		}
	}
	return nil
}
