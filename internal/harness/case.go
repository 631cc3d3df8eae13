package harness

import (
	"context"
	"fmt"
	"math/rand"
	"sort"

	"cdf/internal/core"
	"cdf/internal/emu"
	"cdf/internal/oracle"
	"cdf/internal/prog"
	"cdf/internal/workload"
)

// Case is one self-contained, replayable simulation case: the program
// source (a named workload, a generation seed, or an explicit serialized
// program), the machine configuration knobs that matter for failure
// reproduction, and the seed. Everything in it serializes, so a Case is
// also the payload of a repro artifact.
type Case struct {
	Seed    uint64    // program-generation / machine seed
	Mode    core.Mode // machine mode
	MaxUops uint64    // retirement budget (0 = caseDefaultUops)

	// Config knobs the shrinker may reduce (0 = Table 1 default).
	ROBSize  int
	CUCLines int

	// Program source: a workload name, or an explicit program + memory
	// spec. When both are empty/nil, the program is generated from Seed.
	Bench   string
	Program *prog.Program
	Mem     prog.MemSpec
}

const caseDefaultUops = 3000

// Build materializes the case: program, initial memory, and core config.
func (c Case) Build() (*prog.Program, *emu.Memory, core.Config, error) {
	var p *prog.Program
	var m *emu.Memory
	switch {
	case c.Program != nil:
		p = c.Program
		m = emu.BuildMemory(c.Mem)
	case c.Bench != "":
		w, err := workload.ByName(c.Bench)
		if err != nil {
			return nil, nil, core.Config{}, err
		}
		p, m = w.Build()
	default:
		p, c.Mem = prog.Generate(rand.New(rand.NewSource(int64(c.Seed))), fmt.Sprintf("gen-%d", c.Seed))
		m = emu.BuildMemory(c.Mem)
	}

	cfg := core.Default()
	cfg.Mode = c.Mode
	cfg.Seed = c.Seed
	cfg.MaxRetired = c.MaxUops
	if cfg.MaxRetired == 0 {
		cfg.MaxRetired = caseDefaultUops
	}
	cfg.MaxCycles = cfg.MaxRetired * 500
	cfg.WatchdogCycles = 50_000
	if c.ROBSize > 0 {
		cfg = core.ScaleWindow(cfg, c.ROBSize)
	}
	if c.CUCLines > 0 {
		cfg.CDF.CUCLines = c.CUCLines
	}
	return p, m, cfg, nil
}

// materialize resolves a seed-generated case into its explicit program
// form, so the shrinker can edit it.
func (c Case) materialize() (Case, error) {
	if c.Program != nil || c.Bench != "" {
		return c, nil
	}
	p, spec := prog.Generate(rand.New(rand.NewSource(int64(c.Seed))), fmt.Sprintf("gen-%d", c.Seed))
	c.Program, c.Mem = p, spec
	return c, nil
}

// Faults is the registry of named test-only commit-fault injections. A
// fault name travels in repro artifacts so `cdfsim -repro` can re-arm the
// same bug and reproduce its divergence; none of them exist outside tests
// and repro replays.
var Faults = map[string]func(*core.CommitEffect){
	"flip-dst-bit": func(e *core.CommitEffect) {
		if e.HasDst {
			e.DstValue ^= 1
		}
	},
	"store-data-off-by-7": func(e *core.CommitEffect) {
		if e.Op.IsStore() {
			e.Data += 7
		}
	},
	"store-addr-next-word": func(e *core.CommitEffect) {
		if e.Op.IsStore() {
			e.Addr += 8
		}
	},
	"invert-branch": func(e *core.CommitEffect) {
		if e.Op.IsCondBranch() {
			e.Taken = !e.Taken
		}
	},
}

// FaultNames returns the registered fault names, sorted.
func FaultNames() []string {
	names := make([]string, 0, len(Faults))
	for n := range Faults {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// RunCase executes the case under the differential oracle (when oracleOn)
// with an optional named fault armed, and returns the stop reason. The
// error is a *SimError for any failure, with Seed stamped and — for
// divergences — the *oracle.DivergenceError as its Cause.
func RunCase(ctx context.Context, c Case, oracleOn bool, faultName string, opt Options) (core.StopReason, error) {
	p, m, cfg, err := c.Build()
	if err != nil {
		return core.StopNone, err
	}
	sim, err := core.New(cfg, p, m)
	if err != nil {
		return core.StopNone, err
	}
	if oracleOn {
		oracle.Attach(sim, p, m)
	}
	if faultName != "" {
		fault, ok := Faults[faultName]
		if !ok {
			return core.StopNone, fmt.Errorf("harness: unknown fault %q (have %v)", faultName, FaultNames())
		}
		sim.SetCommitFault(fault)
	}
	opt.Seed = c.Seed
	return Exec(ctx, sim, opt)
}
