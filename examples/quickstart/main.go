// Quickstart: run one benchmark on all three machines of the paper —
// the baseline OoO core with prefetching, the CDF core, and the Precise
// Runahead core — and print the comparison.
//
//	go run ./examples/quickstart [benchmark]
package main

import (
	"fmt"
	"log"
	"os"

	"cdf"
)

func main() {
	bench := "astar"
	if len(os.Args) > 1 {
		bench = os.Args[1]
	}

	fmt.Printf("Simulating %q on the Table 1 machine (see `cdfsim -list` for kernels)\n\n", bench)

	var base cdf.Result
	for _, mode := range []cdf.Mode{cdf.ModeBaseline, cdf.ModeCDF, cdf.ModePRE} {
		res, err := cdf.Run(bench, cdf.Options{Mode: mode})
		if err != nil {
			log.Fatal(err)
		}
		if mode == cdf.ModeBaseline {
			base = res
		}
		fmt.Printf("%-10s ipc=%.3f  mlp=%5.2f  traffic=%6.0f lines  speedup=%+6.1f%%\n",
			mode, res.IPC, res.Metric("mlp"), res.Metric("mem_traffic"), 100*(res.IPC/base.IPC-1))
	}

	fmt.Println("\nCDF wins by fetching, renaming and executing the critical dependence")
	fmt.Println("chains ahead of program order; see examples/astar for the mechanism's")
	fmt.Println("anatomy on the paper's own motivating code segment.")
}
