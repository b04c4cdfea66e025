// Cycletime: the paper's proposed extension, as a design exercise. The
// ISCA-1994 analysis optimized CPI under an area budget and noted that
// access time should be "another dimension"; this example asks the
// question a designer would: given a target clock rate, what is the best
// on-chip memory allocation, and what does insisting on a faster clock
// cost in cycles per instruction?
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	"onchip/internal/area"
	"onchip/internal/atime"
	"onchip/internal/search"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(w io.Writer) error {
	space := search.Table5()
	perf := search.MachLike()
	am := area.Default()
	tm := atime.Default()

	fmt.Fprintln(w, "best allocation under 250,000 rbe at each cycle-time target")
	fmt.Fprintln(w, "(0.8-micron-class access times; Mach-like workload model)")
	fmt.Fprintln(w)
	fmt.Fprintf(w, "%-10s %-10s %-22s %-22s %-22s %s\n",
		"cycle", "clock", "TLB", "I-cache", "D-cache", "CPI")
	for _, cycleNS := range []float64{0, 18, 14, 12, 10, 9} {
		var opts []search.Option
		if cycleNS > 0 {
			opts = append(opts, search.WithFilter(func(t area.TLBConfig, ic, dc area.CacheConfig) bool {
				return tm.FitsCycle(cycleNS, t, ic, dc)
			}))
		}
		r, err := search.Rank(space, am, area.BudgetRBE, perf, 1, opts...)
		if err != nil {
			return err
		}
		label, clock := "none", "-"
		if cycleNS > 0 {
			label = fmt.Sprintf("%.0f ns", cycleNS)
			clock = fmt.Sprintf("%.0f MHz", 1000/cycleNS)
		}
		if len(r.Top) == 0 {
			fmt.Fprintf(w, "%-10s %-10s no feasible configuration\n", label, clock)
			continue
		}
		a := r.Top[0]
		fmt.Fprintf(w, "%-10s %-10s %-22s %-22s %-22s %.3f\n",
			label, clock, a.TLB, a.ICache, a.DCache, a.CPI)
	}

	fmt.Fprintln(w)
	fmt.Fprintln(w, "the CPI column prices the clock: pushing from 14 ns to 9 ns costs CPI as the")
	fmt.Fprintln(w, "optimizer abandons associativity and capacity -- whether the faster clock wins")
	fmt.Fprintln(w, "depends on cycle-time x CPI, which is exactly the product a designer minimizes")
	return nil
}
