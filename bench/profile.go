package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os/exec"
	"slices"
	"strings"
	"time"
)

// stackSample is one distinct call stack of a CPU profile and the host time
// sampled in it; frames[0] is the innermost function.
type stackSample struct {
	value  time.Duration
	frames []string
}

// parseTraces reads the output of `go tool pprof -traces`: a header, then
// one block per distinct stack, each opened by a separator line, with the
// sample value before the innermost frame.
func parseTraces(r io.Reader) ([]stackSample, error) {
	var out []stackSample
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	inBody, open := false, false
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "-----------+"):
			inBody, open = true, false
		case !inBody || line == "":
		case !open:
			value, fn, ok := strings.Cut(line, " ")
			d, err := time.ParseDuration(value)
			if !ok || err != nil {
				return nil, fmt.Errorf("pprof traces: bad sample line %q", line)
			}
			out = append(out, stackSample{value: d, frames: []string{frameName(fn)}})
			open = true
		default:
			last := &out[len(out)-1]
			last.frames = append(last.frames, frameName(line))
		}
	}
	return out, sc.Err()
}

// frameName strips pprof's annotations from a frame.
func frameName(s string) string {
	return strings.TrimSuffix(strings.TrimSpace(s), " (inline)")
}

// packageOf returns the import path of a function's package:
// "cdf/internal/core.(*Core).fetch" → "cdf/internal/core".
func packageOf(fn string) string {
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

// inPackages reports whether pkg is one of pkgs or below one of them.
func inPackages(pkg string, pkgs []string) bool {
	return slices.ContainsFunc(pkgs, func(p string) bool { return pkg == p || strings.HasPrefix(pkg, p+"/") })
}

const corePkg = "cdf/internal/core."

// inclusiveGroups are host time spent in, or below, any of the functions
// or any function of the packages: pipeline stages, the idle skip,
// functional warming, the service layers (whose own code is thin glue over
// encoding, HTTP and file I/O), the garbage collector. A sample counts once
// however many of a group's functions it passes through.
var inclusiveGroups = []struct {
	metric string
	funcs  []string
	pkgs   []string
}{
	{"core.cycle.incl_share", []string{corePkg + "(*Core).Cycle"}, nil},
	{"core.fetch.incl_share", []string{corePkg + "(*Core).fetch"}, nil},
	{"core.allocate.incl_share", []string{corePkg + "(*Core).allocate"}, nil},
	{"core.issue.incl_share", []string{corePkg + "(*Core).issue", corePkg + "(*Core).issueFast"}, nil},
	{"core.complete.incl_share", []string{corePkg + "(*Core).complete"}, nil},
	{"core.retire.incl_share", []string{corePkg + "(*Core).retire"}, nil},
	{"core.end_of_cycle.incl_share", []string{corePkg + "(*Core).endOfCycle"}, nil},
	{"core.skip.incl_share", []string{corePkg + "(*Core).sig", corePkg + "(*Core).trySkip",
		corePkg + "(*Core).partSnaps", corePkg + "(*Core).verifySkipPrediction"}, nil},
	{"core.warm.incl_share", []string{corePkg + "(*Warmer).Observe"}, nil},
	{"sweepd.incl_share", nil, []string{"cdf/internal/sweepd"}},
	{"sweepstore.incl_share", nil, []string{"cdf/internal/sweepstore"}},
	{"runtime.gc_share", []string{"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.bgsweep",
		"runtime.bgscavenge"}, nil},
}

// selfLayers are host time spent in a layer's own code (the innermost
// frame is in one of the packages or their subpackages).
var selfLayers = []struct {
	metric string
	pkgs   []string
}{
	{"emu.self_share", []string{"cdf/internal/emu"}},
	{"mem.self_share", []string{"cdf/internal/mem"}},
	{"branch.self_share", []string{"cdf/internal/branch"}},
	{"internal-cdf.self_share", []string{"cdf/internal/cdf"}},
	{"pre.self_share", []string{"cdf/internal/pre"}},
	{"front.self_share", []string{"cdf/internal/front"}},
	{"stats.self_share", []string{"cdf/internal/stats"}},
}

// copyFuncs are the runtime's block copy and clear routines: struct copies
// such as the idle skip's statistics snapshot land here.
var copyFuncs = []string{"runtime.duffcopy", "runtime.duffzero", "runtime.memmove"}

// layerShares turns a profile into the share of sampled host time of each
// group and layer (0 for all when the profile is empty).
func layerShares(samples []stackSample) map[string]float64 {
	out := map[string]float64{}
	for _, g := range inclusiveGroups {
		out[g.metric] = 0
	}
	for _, l := range selfLayers {
		out[l.metric] = 0
	}
	out["runtime.copy_share"] = 0
	var total time.Duration
	for _, s := range samples {
		total += s.value
	}
	if total == 0 {
		return out
	}
	for _, s := range samples {
		v := float64(s.value) / float64(total)
		for _, g := range inclusiveGroups {
			if slices.ContainsFunc(s.frames, func(f string) bool {
				return slices.Contains(g.funcs, f) || inPackages(packageOf(f), g.pkgs)
			}) {
				out[g.metric] += v
			}
		}
		for _, l := range selfLayers {
			if inPackages(packageOf(s.frames[0]), l.pkgs) {
				out[l.metric] += v
			}
		}
		if slices.Contains(copyFuncs, s.frames[0]) {
			out["runtime.copy_share"] += v
		}
	}
	return out
}

// profileShares aggregates a CPU profile file with the Go toolchain's
// pprof.
func profileShares(path string) (map[string]float64, error) {
	cmd := exec.Command("go", "tool", "pprof", "-traces", "-symbolize=none", path)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %v: %s", err, stderr.Bytes())
	}
	samples, err := parseTraces(bytes.NewReader(out))
	if err != nil {
		return nil, err
	}
	return layerShares(samples), nil
}
