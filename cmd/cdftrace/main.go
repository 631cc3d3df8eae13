// Command cdftrace inspects workloads: it disassembles a kernel, runs its
// functional emulation, and dumps a window of the dynamic uop stream with
// the criticality marks the CDF machinery assigns (after a training run).
//
// Usage:
//
//	cdftrace -bench astar -disasm
//	cdftrace -bench astar -dyn 64 -skip 20000
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"

	"cdf"
	"cdf/internal/emu"
	"cdf/internal/harness"
	"cdf/internal/profiling"
	"cdf/internal/runflags"
	"cdf/internal/units"
	"cdf/internal/workload"
)

func main() {
	// The training run's machine: CDF, under the frontend flags, so the
	// criticality marks reflect the instruction-supply behaviour they
	// describe.
	opt := cdf.Options{Mode: cdf.ModeCDF, MaxUops: 60_000}
	runflags.Frontend(flag.CommandLine, &opt)
	startProfiling := profiling.Flags(flag.CommandLine)
	var (
		bench  = flag.String("bench", "astar", "benchmark kernel")
		disasm = flag.Bool("disasm", false, "print the kernel's static program")
		dyn    = flag.Int("dyn", 32, "number of dynamic uops to dump")
	)
	skip := units.Uops(20_000)
	flag.Var(&skip, "skip", "dynamic uops to skip before dumping, e.g. 20000 or 20k")
	flag.Var((*units.Uops)(&opt.MaxUops), "train", "uops of CDF training before reading criticality marks, e.g. 60k")
	flag.Parse()

	profStop, err := startProfiling()
	if err != nil {
		fmt.Fprintln(os.Stderr, "cdftrace:", err)
		os.Exit(1)
	}
	defer profStop()

	w, err := workload.ByName(*bench)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cdftrace:", err)
		os.Exit(1)
	}

	if *disasm {
		p, _ := w.Build()
		fmt.Print(p.String())
		return
	}

	// Train the CDF machinery so the Critical Uop Cache holds this
	// kernel's traces, then read the masks out for annotation.
	c, err := cdf.NewCore(*bench, opt)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cdftrace:", err)
		os.Exit(1)
	}
	// The training run goes through the hardened harness: a wedged or
	// panicking core becomes a diagnosable error instead of a hang/crash.
	if _, err := harness.Exec(context.Background(), c, harness.Options{}); err != nil {
		fmt.Fprintln(os.Stderr, "cdftrace: training run failed:", err)
		var sim *harness.SimError
		if errors.As(err, &sim) && sim.HasSnap {
			fmt.Fprintln(os.Stderr, sim.Snap.String())
		}
		os.Exit(1)
	}
	cuc := c.UopCache()

	// Fresh functional emulation for the dynamic dump.
	p2, m2 := w.Build()
	em := emu.New(p2, m2)
	var d emu.DynUop
	for i := uint64(0); i < uint64(skip); i++ {
		if !em.Step(&d) {
			fmt.Fprintln(os.Stderr, "cdftrace: program ended during skip")
			os.Exit(1)
		}
	}
	fmt.Printf("; dynamic stream of %q from uop %d (crit = in the Critical Uop Cache mask)\n", *bench, skip)
	for i := 0; i < *dyn && em.Step(&d); i++ {
		mark := " "
		if tr, ok := cuc.Probe(p2.BlockPC(d.BlockID)); ok && d.Index < 64 && tr.Mask&(1<<uint(d.Index)) != 0 {
			mark = "*"
		}
		extra := ""
		if d.U.Op.IsMem() {
			extra = fmt.Sprintf("  addr=%#x", d.Addr)
		}
		if d.U.Op.IsBranch() {
			extra = fmt.Sprintf("  taken=%v", d.Taken)
		}
		fmt.Printf("%8d %s B%-3d[%2d] %-24s%s\n", d.Seq, mark, d.BlockID, d.Index, d.U.String(), extra)
	}
}
