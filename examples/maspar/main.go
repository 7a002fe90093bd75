// maspar reruns the paper's Table II experiment (random permutation on
// the MasPar MP-1) on the simulator: three algorithms at n = p = 16384
// and n = p = 1024 under the queued-contention metric. With -quick the
// experiment runs at a small size (for smoke tests).
package main

import (
	"flag"
	"fmt"
	"log"

	"lowcontend/internal/exp"
	"lowcontend/internal/exp/spec"
)

func main() {
	quick := flag.Bool("quick", false, "run a small instance only")
	flag.Parse()
	sizes := []int{16384, 1024}
	if *quick {
		sizes = []int{256}
	}
	e, _ := exp.Find("table2")
	res := (&spec.Runner{Parallel: 1}).Run(e, sizes, 1)
	if err := res.FirstErr(); err != nil {
		log.Fatal(err)
	}
	fmt.Print(e.Render(res))
	if !*quick {
		fmt.Println("\npaper (ms on the MP-1): sorting 11.25/10.01, scans 8.02/6.05, qrqw 7.57/2.88")
	}
}
