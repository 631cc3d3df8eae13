package core

import (
	"fmt"
	"runtime"
	"testing"

	"cdf/internal/workload"
)

// TestSteadyStateAllocs pins the allocation discipline of the cycle loop:
// after warm-up, Cycle() must not heap-allocate at all (non-traced,
// non-paranoid). Entry recycling, the scoreboard scheduler, and the sorted
// MSHR tables exist precisely so the steady state is allocation-free; any
// regression here shows up as a nonzero average.
func TestSteadyStateAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement needs a long warm-up")
	}
	for _, mode := range []Mode{ModeBaseline, ModeCDF, ModePRE, ModeHybrid} {
		mode := mode
		t.Run(fmt.Sprintf("%v", mode), func(t *testing.T) {
			w, err := workload.ByName("astar")
			if err != nil {
				t.Fatal(err)
			}
			p, m := w.Build()
			cfg := Default()
			cfg.Mode = mode
			cfg.MaxRetired = 0 // run forever; the test stops itself
			cfg.MaxCycles = 0
			cfg.Seed = 1
			c, err := New(cfg, p, m)
			if err != nil {
				t.Fatal(err)
			}
			// Warm up: grow every pool, queue, and emulated-memory page to
			// its steady-state footprint.
			for i := 0; i < 200_000 && !c.Finished(); i++ {
				c.Cycle()
			}
			if c.Finished() {
				t.Fatalf("workload finished during warm-up (%d cycles)", c.Cycles())
			}
			avg := testing.AllocsPerRun(2000, func() { c.Cycle() })
			if avg != 0 {
				t.Errorf("steady-state Cycle() allocates: %v allocs/cycle", avg)
			}
		})
	}
}

// TestRunAllocBudget pins the allocation of a whole run in a warm process:
// a second 50k-uop mcf run — workload build, core construction and the
// run — must allocate under 4 MB in every mode. A CDF episode keeps the
// correct-path stream live from its entry point, tens of thousands of
// records; the stream's pages come back from the first run (Core.Recycle)
// instead of being allocated and grown again.
func TestRunAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-run allocation measurement")
	}
	const budget = 4 << 20
	for _, mode := range []Mode{ModeBaseline, ModeCDF, ModePRE, ModeHybrid} {
		t.Run(mode.String(), func(t *testing.T) {
			w, err := workload.ByName("mcf")
			if err != nil {
				t.Fatal(err)
			}
			run := func() {
				p, m := w.Build()
				cfg := Default()
				cfg.Mode = mode
				cfg.MaxRetired = 50_000
				cfg.Seed = 1
				c, err := New(cfg, p, m)
				if err != nil {
					t.Fatal(err)
				}
				c.Run()
				if c.StopReason() != StopCompleted {
					t.Fatalf("run stopped with %v", c.StopReason())
				}
				c.Recycle()
			}
			run()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			run()
			runtime.ReadMemStats(&after)
			got := after.TotalAlloc - before.TotalAlloc
			t.Logf("second run allocated %.2f MB", float64(got)/(1<<20))
			if got >= budget {
				t.Errorf("second run allocated %.2f MB, budget %.2f MB",
					float64(got)/(1<<20), float64(budget)/(1<<20))
			}
		})
	}
}
