// Window-scaling study (the paper's Fig. 17): sweep the ROB size with the
// other window structures scaled proportionally and compare how the
// baseline and CDF cores convert area into IPC and energy. The paper's
// claim: a scaled-up baseline of the same area as the CDF core gains only
// 3.7% IPC and spends 2.5% more energy, while CDF gains 6.1% in less area.
//
//	go run ./examples/scaling
package main

import (
	"fmt"
	"log"

	"cdf"
)

func main() {
	// A sparse subset keeps this example fast; run cmd/cdfexperiments
	// -exp fig17 for the full suite.
	o := cdf.SuiteOptions{
		Benchmarks: []string{"astar", "bzip", "lbm", "roms", "mcf"},
		Base:       cdf.Options{MaxUops: 60_000},
	}
	rows, err := cdf.Fig17Scaling(o, []int{256, 352, 512})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("ROB scaling, all values relative to the 352-entry baseline")
	fmt.Printf("%-8s %14s %14s %16s %16s\n", "ROB", "baseline IPC", "CDF IPC", "baseline energy", "CDF energy")
	for _, r := range rows {
		fmt.Printf("%-8d %13.3fx %13.3fx %15.3fx %15.3fx\n",
			r.ROBSize, r.BaselineIPCRel, r.CDFIPCRel, r.BaselineEnergyRel, r.CDFEnergyRel)
	}

	fmt.Println("\nReading the table: CDF at each window size sits above the baseline at")
	fmt.Println("the same size — the critical partition makes the window act larger than")
	fmt.Println("it is, which is the paper's core claim.")
}
