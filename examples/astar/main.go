// The paper's Fig. 2 walk-through: build the astar code segment with the
// program builder, run the functional emulator over it, train the CDF
// machinery, and show which uops end up in the Critical Uop Cache —
// reproducing Fig. 2(b)'s critical/non-critical split and the Fig. 3 window
// picture in numbers.
//
//	go run ./examples/astar
package main

import (
	"fmt"
	"log"

	"cdf"
	"cdf/internal/core"
	"cdf/internal/workload"
)

func main() {
	w, err := workload.ByName("astar")
	if err != nil {
		log.Fatal(err)
	}

	// 1. The static kernel (the paper's Fig. 2(a) code segment).
	p, _ := w.Build()
	fmt.Println("=== Fig. 2(a): the astar kernel ===")
	fmt.Print(p.String())

	// 2. Train the CDF machinery: Critical Count Tables observe the LLC
	// misses at retire, the Fill Buffer walks mark the dependence chains,
	// and traces land in the Critical Uop Cache.
	p2, m2 := w.Build()
	cfg := core.Default()
	cfg.Mode = core.ModeCDF
	cfg.MaxRetired = 60_000
	cfg.MaxCycles = cfg.MaxRetired * 100
	c, err := core.New(cfg, p2, m2)
	if err != nil {
		log.Fatal(err)
	}
	c.Run()

	fmt.Println("\n=== Fig. 2(b): the criticality split CDF learned ===")
	for _, blk := range p2.Blocks {
		tr, ok := c.UopCache().Probe(p2.BlockPC(blk.ID))
		for i, u := range blk.Uops {
			mark := "non-critical"
			if ok && i < 64 && tr.Mask&(1<<uint(i)) != 0 {
				mark = "CRITICAL"
			}
			fmt.Printf("  B%d[%2d]  %-26s %s\n", blk.ID, i, u.String(), mark)
		}
	}

	// 3. The Fig. 3 effect: how many instances of the critical load fit in
	// the window, baseline vs CDF — visible as MLP.
	fmt.Println("\n=== Fig. 3: window filling, measured as MLP and IPC ===")
	baseRes, err := cdf.Run("astar", cdf.Options{Mode: cdf.ModeBaseline})
	if err != nil {
		log.Fatal(err)
	}
	cdfRes, err := cdf.Run("astar", cdf.Options{Mode: cdf.ModeCDF})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  baseline: MLP %.2f, IPC %.3f\n", baseRes.Metric("mlp"), baseRes.IPC)
	fmt.Printf("  CDF:      MLP %.2f, IPC %.3f (%+.1f%%)\n",
		cdfRes.Metric("mlp"), cdfRes.IPC, 100*(cdfRes.IPC/baseRes.IPC-1))
	fmt.Printf("  CDF spent %.0f of %d cycles in CDF mode, with %.0f dependence violations\n",
		cdfRes.Metric("cdf_mode_cycles"), cdfRes.Cycles, cdfRes.Metric("dependence_violations"))
}
