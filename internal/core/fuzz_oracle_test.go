package core_test

// The external-package fuzz entry: it lives outside package core so it can
// attach the differential oracle (whose package imports core) to every
// fuzzed run.

import (
	"fmt"
	"math/rand"
	"testing"

	"cdf/internal/core"
	"cdf/internal/emu"
	"cdf/internal/front"
	"cdf/internal/oracle"
	"cdf/internal/prog"
)

func genCase(seed uint64) (*prog.Program, *emu.Memory) {
	p, spec := prog.Generate(rand.New(rand.NewSource(int64(seed))), fmt.Sprintf("fuzz-%d", seed))
	return p, emu.BuildMemory(spec)
}

// FuzzCore is the native fuzzing entry (`go test -fuzz FuzzCore`): the
// inputs drive the random program generator and the machine mode. Every
// run executes under the differential oracle — each retired uop's
// architectural effect is checked against the functional emulator in
// lockstep — with paranoid invariant checks on, and must complete under
// the forward-progress watchdog. The Makefile's fuzz-smoke target runs it
// briefly on every CI pass.
func FuzzCore(f *testing.F) {
	f.Add(uint64(1), byte(0))
	f.Add(uint64(2), byte(1))
	f.Add(uint64(3), byte(2))
	f.Add(uint64(5), byte(3))
	f.Add(uint64(8), byte(16|1)) // CDF with the partitions frozen
	f.Fuzz(func(t *testing.T, seed uint64, modeByte byte) {
		mode := core.Mode(modeByte % 4)
		p, m := genCase(seed)
		cfg := core.Default()
		cfg.Mode = mode
		cfg.MaxRetired = 3_000
		cfg.MaxCycles = 1_500_000
		cfg.WatchdogCycles = 20_000
		cfg.ParanoidEvery = 97
		// High bits of the mode byte exercise the instruction-supply
		// subsystem: bit 2 enables the timed frontend, bit 3 layers
		// FDIP + shadow decoding on top. Bit 4 freezes the CDF partitions
		// at their initial split (the static-partition ablation).
		cfg.CDF.DisableDynamicPartition = modeByte&16 != 0
		if modeByte&4 != 0 {
			cfg.Front = front.Default()
			if modeByte&8 != 0 {
				cfg.Front.FDIP = true
				cfg.Front.ShadowBTB = true
				cfg.Mem.L1IMSHRs = 16
			}
		}
		c, err := core.New(cfg, p, m)
		if err != nil {
			t.Fatal(err)
		}
		chk := oracle.Attach(c, p, m)
		c.Run()
		if derr := chk.Err(); derr != nil {
			t.Fatalf("seed %d mode %s diverged: %v", seed, mode, derr)
		}
		if c.StopReason() != core.StopCompleted {
			t.Fatalf("seed %d mode %s stopped with %s:\n%s",
				seed, mode, c.StopReason(), c.Snapshot())
		}
		if chk.Checked() == 0 {
			t.Fatalf("seed %d mode %s: oracle checked nothing", seed, mode)
		}
	})
}

// TestFuzzProgramsEmulateCleanly double-checks the generator's programs are
// functionally well-formed (the emulator is the ground truth).
func TestFuzzProgramsEmulateCleanly(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		p, m := genCase(seed)
		if err := p.Validate(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		e := emu.New(p, m)
		if n := e.Run(20_000); n != 20_000 {
			t.Fatalf("seed %d: emulated only %d uops", seed, n)
		}
	}
}
