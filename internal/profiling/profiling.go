// Package profiling wires the standard pprof/runtime-trace collectors into
// the command-line tools (DESIGN.md §9): cdfsim, cdfexperiments and
// cdftrace accept -cpuprofile, -memprofile, and -exectrace (registered by
// Flags), so a slow run can be profiled in place with no rebuild. The
// output files feed `go tool pprof` and `go tool trace` directly.
package profiling

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"runtime/trace"
)

// Flags registers -cpuprofile, -memprofile and -exectrace on fs. Once fs
// is parsed, start begins the selected collectors (see Start).
func Flags(fs *flag.FlagSet) (start func() (stop func(), err error)) {
	cpu := fs.String("cpuprofile", "", "write a CPU profile to this file (go tool pprof)")
	mem := fs.String("memprofile", "", "write a heap profile to this file at exit (go tool pprof)")
	exec := fs.String("exectrace", "", "write a runtime execution trace to this file (go tool trace)")
	return func() (func(), error) { return Start(*cpu, *mem, *exec) }
}

// Start begins the collectors selected by the (possibly empty) file paths
// and returns a stop function to run at process exit. The heap profile is
// written at stop time, after a final GC, so it reflects live steady-state
// memory rather than transient garbage.
func Start(cpuProfile, memProfile, execTrace string) (stop func(), err error) {
	var stops []func()
	fail := func(err error) (func(), error) {
		for i := len(stops) - 1; i >= 0; i-- {
			stops[i]()
		}
		return nil, err
	}
	if cpuProfile != "" {
		f, err := os.Create(cpuProfile)
		if err != nil {
			return fail(fmt.Errorf("profiling: %w", err))
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return fail(fmt.Errorf("profiling: start CPU profile: %w", err))
		}
		stops = append(stops, func() {
			pprof.StopCPUProfile()
			closeReport(f)
		})
	}
	if execTrace != "" {
		f, err := os.Create(execTrace)
		if err != nil {
			return fail(fmt.Errorf("profiling: %w", err))
		}
		if err := trace.Start(f); err != nil {
			f.Close()
			return fail(fmt.Errorf("profiling: start execution trace: %w", err))
		}
		stops = append(stops, func() {
			trace.Stop()
			closeReport(f)
		})
	}
	if memProfile != "" {
		stops = append(stops, func() {
			f, err := os.Create(memProfile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "profiling:", err)
				return
			}
			defer closeReport(f)
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "profiling: write heap profile:", err)
			}
		})
	}
	return func() {
		for i := len(stops) - 1; i >= 0; i-- {
			stops[i]()
		}
	}, nil
}

// closeReport closes a profile file at stop time. A failed close can lose
// buffered profile data, and stop runs at process exit with no caller left
// to return an error to, so it is reported on stderr.
func closeReport(f *os.File) {
	if err := f.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "profiling:", err)
	}
}
