package main

import (
	"math"
	"time"
)

// The host this benchmark runs on is shared: other tenants' work slows
// memory-heavy code such as the simulator by up to 2x, and the slowdown
// changes within seconds. A fixed calibration loop with the simulator's
// kind of memory behaviour, timed between consecutive operations of a run,
// measures that slowdown as it happens; timings are reported scaled towards
// the speed the calibration loop has on a quiet reference host. The loop is
// part of the benchmark, not of the simulator. It runs only while no
// operation runs, after a pause and one untimed sample that refills the
// caches the operation evicted, so no thread of the code under test
// competes with the samples that are kept; only a garbage collection that
// outlasts the pause can still overlap one.

// refNominal is the calibration loop's time on the reference host (a 2-vCPU
// Firecracker VM on an Intel Xeon family 6 model 143 at 2.0 GHz) when no
// other tenant contends for its caches. Reported timings are in
// milliseconds of that host.
const refNominal = 1500 * time.Microsecond

// refMillis is refNominal in milliseconds.
const refMillis = float64(refNominal) / float64(time.Millisecond)

// hostSlope is how far a timing moves with the calibration loop, on a log
// scale. Contention slows the loop more than the simulator: over three sets
// of ten runs per workload on the reference host, the simulator's time rose
// 0.7–0.8 times as fast as the loop's in the set where the host's speed
// swung most, and the timings' spreads were smallest, over all three sets,
// with exponents of 0.65–0.7.
const hostSlope = 0.7

// speedup is the factor that brings a time measured while the calibration
// loop took calMillis towards the reference host's speed.
func speedup(calMillis float64) float64 {
	return math.Pow(refMillis/calMillis, hostSlope)
}

// calSettle is the pause before a reading: it lets an operation's
// after-effects end (the service's journal write, a garbage collection in
// progress).
const calSettle = 2 * time.Millisecond

// calibrator is the calibration loop: a set-associative cache model with
// LRU replacement plus a side table, 6 MB in all, driven by a fixed
// pseudo-random address stream — the pointer-light, cache-resident,
// branchy access pattern of the simulator's own structures. It is not safe
// for concurrent use.
type calibrator struct {
	sets [][8]calLine
	tab  []uint64
	sink uint64
}

type calLine struct{ tag, lru uint64 }

// calSteps is the loop's length: a millisecond or two, short next to an
// operation.
const calSteps = 50_000

func newCalibrator() *calibrator {
	c := &calibrator{sets: make([][8]calLine, 1<<14), tab: make([]uint64, 1<<19)}
	c.sample() // fault the memory in and fill the cache model
	return c
}

// reading is one calibration reading in milliseconds, taken while no
// operation runs: after calSettle and one untimed sample, the faster of two
// timed samples.
func (c *calibrator) reading() float64 {
	time.Sleep(calSettle)
	c.sample()
	return min(c.sample(), c.sample())
}

// readings takes n readings.
func (c *calibrator) readings(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = c.reading()
	}
	return out
}

// sample runs the loop once and returns its duration in milliseconds.
func (c *calibrator) sample() float64 {
	t0 := time.Now()
	x := uint64(88172645463325252)
	var hits, clock uint64
	for i := 0; i < calSteps; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		addr := x % (1 << 24)
		if x&3 == 0 {
			addr = c.tab[x%uint64(len(c.tab))] % (1 << 24) // a dependent load
		}
		c.tab[addr%uint64(len(c.tab))] += addr
		set := &c.sets[(addr>>6)%uint64(len(c.sets))]
		tag := addr >> 20
		clock++
		victim, hit := 0, false
		for w := range set {
			if set[w].tag == tag {
				set[w].lru = clock
				hit = true
				break
			}
			if set[w].lru < set[victim].lru {
				victim = w
			}
		}
		if hit {
			hits++
		} else {
			set[victim] = calLine{tag, clock}
		}
	}
	c.sink += hits
	return float64(time.Since(t0)) / float64(time.Millisecond)
}
