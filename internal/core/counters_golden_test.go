package core

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"cdf/internal/workload"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/counters.golden")

// TestCounterTableGolden pins every row of the counter table for a small
// matrix of kernels and machines. The repository's other goldens pin only
// cycles, uops, IPC and derived ratios; this one also pins the stall and
// partition counters (rob/rs/lq/sq_full_cycles, partition_grows/shrinks)
// that a change to the allocation rule would move first.
// `go test ./internal/core -run TestCounterTableGolden -update` rewrites
// the file.
func TestCounterTableGolden(t *testing.T) {
	type run struct {
		bench  string
		mode   Mode
		frozen bool
	}
	var runs []run
	for _, b := range []string{"mcf", "astar", "lbm", "omnetpp"} {
		for _, m := range []Mode{ModeBaseline, ModeCDF, ModePRE, ModeHybrid} {
			runs = append(runs, run{b, m, false})
		}
	}
	runs = append(runs, run{"mcf", ModeCDF, true})

	var sb strings.Builder
	for _, r := range runs {
		w, err := workload.ByName(r.bench)
		if err != nil {
			t.Fatal(err)
		}
		p, m := w.Build()
		cfg := Default()
		cfg.Mode = r.mode
		cfg.Seed = 1
		cfg.MaxRetired = 20_000
		cfg.MaxCycles = 4_000_000
		cfg.CDF.DisableDynamicPartition = r.frozen
		c, err := New(cfg, p, m)
		if err != nil {
			t.Fatal(err)
		}
		c.Run()
		name := r.bench + "/" + r.mode.String()
		if r.frozen {
			name += "/frozen"
		}
		for _, row := range c.Stats().Table() {
			fmt.Fprintf(&sb, "%s %s %s\n", name, row.Name, strconv.FormatFloat(row.Value, 'g', -1, 64))
		}
	}

	path := filepath.Join("testdata", "counters.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	got, wantLines := strings.Split(sb.String(), "\n"), strings.Split(string(want), "\n")
	if len(got) != len(wantLines) {
		t.Fatalf("counter table has %d lines, golden %d", len(got), len(wantLines))
	}
	bad := 0
	for i := range got {
		if got[i] != wantLines[i] {
			t.Errorf("got %q, golden %q", got[i], wantLines[i])
			if bad++; bad == 20 {
				t.Fatal("too many differences")
			}
		}
	}
}
