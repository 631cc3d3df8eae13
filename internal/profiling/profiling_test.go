package profiling

import (
	"flag"
	"os"
	"path/filepath"
	"testing"
)

// TestFlagsWriteAllThree: the three flags, parsed like a CLI's, start
// every collector, and stop leaves three non-empty files behind.
func TestFlagsWriteAllThree(t *testing.T) {
	dir := t.TempDir()
	paths := map[string]string{
		"cpuprofile": filepath.Join(dir, "cpu.pprof"),
		"memprofile": filepath.Join(dir, "mem.pprof"),
		"exectrace":  filepath.Join(dir, "exec.trace"),
	}
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	start := Flags(fs)
	var args []string
	for name, p := range paths {
		args = append(args, "-"+name, p)
	}
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	stop, err := start()
	if err != nil {
		t.Fatal(err)
	}
	stop()
	for name, p := range paths {
		fi, err := os.Stat(p)
		if err != nil {
			t.Fatalf("-%s: %v", name, err)
		}
		if fi.Size() == 0 {
			t.Fatalf("-%s wrote an empty file", name)
		}
	}
}

// TestStartFailureStopsEarlierCollectors: when a later collector cannot
// start, Start returns the error and stops the ones it already started —
// a CPU profile left running would make the next StartCPUProfile fail.
func TestStartFailureStopsEarlierCollectors(t *testing.T) {
	dir := t.TempDir()
	_, err := Start(filepath.Join(dir, "cpu.pprof"), "", filepath.Join(dir, "missing", "exec.trace"))
	if err == nil {
		t.Fatal("Start with an exectrace in a missing directory succeeded")
	}
	stop, err := Start(filepath.Join(dir, "cpu2.pprof"), "", "")
	if err != nil {
		t.Fatalf("CPU profile still running after the failed Start: %v", err)
	}
	stop()
}
