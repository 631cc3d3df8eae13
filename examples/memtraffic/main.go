// Memory-traffic and energy comparison (the paper's Figs. 15 and 16): CDF
// keeps its extra parallelism almost entirely on correct-path critical
// loads, while Precise Runahead's speculative slices fetch wrong lines —
// extra DRAM traffic that turns into an energy penalty.
//
//	go run ./examples/memtraffic
package main

import (
	"fmt"
	"log"

	"cdf"
)

func main() {
	o := cdf.SuiteOptions{
		Benchmarks: []string{"astar", "mcf", "soplex", "sphinx", "zeusmp"},
		Base:       cdf.Options{MaxUops: 60_000},
	}

	traffic, err := cdf.Fig15Traffic(o)
	if err != nil {
		log.Fatal(err)
	}
	energyRows, err := cdf.Fig16Energy(o)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("DRAM traffic and energy relative to the baseline core")
	fmt.Printf("%-10s | %9s %9s | %9s %9s\n", "", "CDF traf", "PRE traf", "CDF engy", "PRE engy")
	var ct, pt, ce, pe []float64
	for i, r := range traffic {
		e := energyRows[i]
		fmt.Printf("%-10s | %8.2fx %8.2fx | %8.3fx %8.3fx\n",
			r.Benchmark, r.CDFTrafficRel, r.PRETrafficRel, e.CDFEnergyRel, e.PREEnergyRel)
		ct = append(ct, r.CDFTrafficRel)
		pt = append(pt, r.PRETrafficRel)
		ce = append(ce, e.CDFEnergyRel)
		pe = append(pe, e.PREEnergyRel)
	}
	geo := func(vs []float64) float64 {
		g, err := cdf.Geomean(vs)
		if err != nil {
			log.Fatal(err)
		}
		return g
	}
	fmt.Printf("%-10s | %8.2fx %8.2fx | %8.3fx %8.3fx\n",
		"geomean", geo(ct), geo(pt), geo(ce), geo(pe))

	fmt.Println("\nThe paper's Fig. 15/16 shape: PRE pays for its prefetching with")
	fmt.Println("wrong-chain DRAM traffic; CDF's critical loads are part of the real")
	fmt.Println("instruction stream, so its traffic stays near the baseline.")
}
