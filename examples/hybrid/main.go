// The §6 extension in action: the paper closes by observing that "CDF and
// techniques such as Runahead provide different benefits and can
// potentially be combined". This example runs one benchmark from CDF's
// home turf (bzip: distant critical loads behind hard branches) and one
// from Runahead's (zeusmp: a dense stencil the §3.2 density gate keeps CDF
// out of), and shows the hybrid machine capturing both wins.
//
//	go run ./examples/hybrid
package main

import (
	"fmt"
	"log"

	"cdf"
)

func main() {
	rows, err := cdf.HybridComparison(cdf.SuiteOptions{
		Benchmarks: []string{"bzip", "zeusmp", "roms"},
		Base:       cdf.Options{MaxUops: 60_000},
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("IPC improvement over the baseline core")
	fmt.Printf("%-10s %10s %10s %10s\n", "", "CDF", "PRE", "hybrid")
	for _, r := range rows {
		fmt.Printf("%-10s %+9.1f%% %+9.1f%% %+9.1f%%\n", r.Benchmark,
			100*(r.CDFSpeedup-1), 100*(r.PRESpeedup-1), 100*(r.HybridSpeedup-1))
	}

	fmt.Println(`
How it works: the hybrid machine runs the full CDF mechanism; on bzip the
Critical Uop Cache hits and the critical stream does the work. On zeusmp
the density gate rejects the walks — but instead of discarding the traces,
the hybrid keeps them flagged "no-enter", and the runahead engine reads
the chains during full-window stalls, exactly as the PRE machine would.
One trace store serves both execution paradigms.`)
}
