// Designspace: repeat the paper's Section 5.4 optimization with a custom
// area budget. The analytic performance model makes the search instant,
// so the example sweeps several budgets and shows how the optimal
// allocation changes as silicon gets cheaper -- the design-space question
// the paper's methodology was built to answer.
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	"onchip/internal/area"
	"onchip/internal/search"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(w io.Writer) error {
	space := search.Table5()
	model := search.MachLike()
	am := area.Default()

	for _, budget := range []float64{125_000, 250_000, 500_000} {
		r, err := search.Rank(space, am, budget, model, 1)
		if err != nil {
			return err
		}
		if len(r.Top) == 0 {
			fmt.Fprintf(w, "budget %.0f rbe: no feasible configuration\n", budget)
			continue
		}
		best := r.Top[0]
		fmt.Fprintf(w, "budget %7.0f rbe (%6d feasible): best CPI %.3f\n  %v\n",
			budget, r.Feasible, best.CPI, best)
	}

	// The same search under a single-API (Ultrix-like) performance model
	// shows the paper's conclusion in reverse: with services in the
	// kernel, less of the budget needs to go to the TLB and I-cache.
	fmt.Fprintln(w, "\nsame budget, single-API (Ultrix-like) performance model:")
	r, err := search.Rank(space, am, area.BudgetRBE, search.UltrixLike(), 1)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "  %v\n", r.Top[0])
	return nil
}
