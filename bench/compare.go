package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
)

// benchSpec is the part of BENCHMARK.json -compare reads.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// verdict is the comparison of one metric on one workload between a base
// set of runs (a) and a changed set (b).
type verdict struct {
	medA, q1A, q3A float64
	medB, q1B, q3B float64
	worse          float64 // relative change of the median, positive = worse
	wins, pairs    int     // pairs (i-th run of a, i-th of b) where b reads better
	verdict        string
}

// judge applies the benchmark's rule to one metric: b improved when it
// wins at least nine tenths of the pairs and its median differs by more
// than a's own quartile spread; otherwise it is unresolved when either
// side's run-to-run spread exceeds the bound, unless every b run reads
// better than every a run; it regressed when its median is worse than a's
// by more than the bound; otherwise it is no worse.
func judge(a, b []float64, better string, bound float64) verdict {
	sign := 1.0 // +1: lower is better
	if better == "higher" {
		sign = -1
	}
	var v verdict
	v.medA, v.medB = median(a), median(b)
	v.q1A, v.q3A = quartiles(a)
	v.q1B, v.q3B = quartiles(b)
	v.worse = sign * (v.medB - v.medA) / v.medA
	v.pairs = min(len(a), len(b))
	for i := 0; i < v.pairs; i++ {
		if sign*(b[i]-a[i]) < 0 {
			v.wins++
		}
	}
	allBetter := sign > 0 && slices.Max(b) < slices.Min(a) || sign < 0 && slices.Min(b) > slices.Max(a)
	spread := max((v.q3A-v.q1A)/v.medA, (v.q3B-v.q1B)/v.medB)
	switch {
	case float64(v.wins) >= 0.9*float64(v.pairs) && sign*(v.medA-v.medB) > v.q3A-v.q1A:
		v.verdict = "improved"
	case spread > bound && !allBetter:
		v.verdict = "unresolved"
	case v.worse > bound:
		v.verdict = "regressed"
	default:
		v.verdict = "no worse"
	}
	return v
}

// readReports loads the untraced run records of a -out file by workload,
// in file order.
func readReports(path string) (map[string][]report, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string][]report{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for line := 1; sc.Scan(); line++ {
		var r report
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if !r.Trace {
			out[r.Workload] = append(out[r.Workload], r)
		}
	}
	return out, sc.Err()
}

// compare prints, for every end-to-end metric on every workload both files
// cover, each side's median and quartiles, the pair win count and the
// verdict against the metric's bound. It fails when any metric regressed
// or a side has an incorrect run.
func compare(w io.Writer, specPath, aPath, bPath string) error {
	raw, err := os.ReadFile(specPath)
	if err != nil {
		return err
	}
	var spec benchSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		return fmt.Errorf("%s: %w", specPath, err)
	}
	a, err := readReports(aPath)
	if err != nil {
		return err
	}
	b, err := readReports(bPath)
	if err != nil {
		return err
	}
	var bad []string
	fmt.Fprintf(w, "%-9s %-12s %5s %28s %28s %8s %6s %6s  %s\n",
		"workload", "metric", "runs", "a median [q1, q3]", "b median [q1, q3]", "worse", "wins", "bound", "verdict")
	for _, wl := range sortedKeys(a) {
		rb, ok := b[wl]
		if !ok {
			continue
		}
		ra := a[wl]
		for _, r := range append(slices.Clone(ra), rb...) {
			if !r.Correct {
				bad = append(bad, fmt.Sprintf("%s seed %d: incorrect run", wl, r.Seed))
			}
		}
		for _, m := range spec.EndToEnd {
			va, vb := values(ra, m.Name), values(rb, m.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			v := judge(va, vb, m.Better, m.Bound)
			fmt.Fprintf(w, "%-9s %-12s %2d/%-2d %10.4g [%7.4g, %7.4g] %10.4g [%7.4g, %7.4g] %+7.1f%% %2d/%-3d %5.0f%%  %s\n",
				wl, m.Name, len(va), len(vb), v.medA, v.q1A, v.q3A, v.medB, v.q1B, v.q3B,
				100*v.worse, v.wins, v.pairs, 100*m.Bound, v.verdict)
			if v.verdict == "regressed" {
				bad = append(bad, fmt.Sprintf("%s %s regressed by %.1f%% (bound %.0f%%)", wl, m.Name, 100*v.worse, 100*m.Bound))
			}
		}
	}
	if len(bad) > 0 {
		return fmt.Errorf("compare: %v", bad)
	}
	return nil
}

func values(rs []report, metric string) []float64 {
	var out []float64
	for _, r := range rs {
		if m, ok := r.Metrics[metric]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}
