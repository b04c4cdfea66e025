// Command monster runs the Monster-style hardware-monitoring analysis:
// a workload executes on DECstation 3100 memory parameters and every
// stall cycle is attributed to its cause, reproducing rows of the
// paper's Tables 3 and 4.
//
// Usage:
//
//	monster -workload mpeg_play -refs 2000000          # Ultrix, Mach and user-only
//	monster -suite                                     # all workloads (Table 4)
//	monster -suite -metrics run.jsonl                  # with the run's metrics file
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"onchip/internal/lifecycle"
	"onchip/internal/machine"
	"onchip/internal/monitor"
	"onchip/internal/obs"
	"onchip/internal/osmodel"
	"onchip/internal/workload"
)

func main() {
	os.Exit(run())
}

func run() int {
	var of obs.Flags
	of.Register(flag.CommandLine)
	wl := flag.String("workload", "mpeg_play", "workload name")
	refs := flag.Int("refs", 2_000_000, "references to simulate per run")
	suite := flag.Bool("suite", false, "run the whole suite under both OSes (Table 4)")
	flag.Parse()

	spec, err := workload.ByName(*wl)
	if err == nil && *refs < 1 {
		err = fmt.Errorf("-refs must be at least 1 (got %d)", *refs)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "monster:", err)
		return 1
	}

	ctx, stopSignals := lifecycle.Notify(context.Background(), "monster", nil)
	defer stopSignals()
	sess, err := of.Start(ctx, obs.Binary{
		Name:   "monster",
		Labels: map[string]string{"workload": *wl, "suite": fmt.Sprint(*suite)},
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	defer sess.Close()
	reg := sess.Registry

	// Cancellation is checked between measurements: each row that was
	// fully measured before the interrupt is printed, then the metrics
	// snapshot still covers everything printed.
	interrupted := false
	lane := sess.Spans.Lane("main")
	if *suite {
		for _, v := range []osmodel.Variant{osmodel.Ultrix, osmodel.Mach} {
			span := lane.Start("suite." + v.String())
			rows, err := monitor.MeasureRows(ctx, monitor.Suite(v, workload.All(), *refs, machine.DECstation3100()), reg, nil)
			span.End()
			if err == nil {
				rows = append(rows, monitor.Average(rows))
			}
			for _, row := range rows {
				printRow(row)
			}
			if err != nil {
				interrupted = true
				break
			}
		}
	} else {
		span := lane.Start("measure")
		rows, err := monitor.MeasureRows(ctx, monitor.Conditions(spec, *refs, machine.DECstation3100()), reg, nil)
		span.End()
		for _, row := range rows {
			printRow(row)
		}
		interrupted = err != nil
	}
	if interrupted {
		fmt.Fprintln(os.Stderr, "monster: interrupted; rows above are complete measurements")
		return sess.Exit(lifecycle.InterruptExit)
	}
	return sess.Exit(0)
}

func printRow(r monitor.Row) {
	fmt.Printf("%-11s %-7s %s\n", r.Workload, r.OS, r.Breakdown)
	if r.Gen.Instrs > 0 {
		fmt.Printf("%-11s %-7s time split: app %.0f%% kernel %.0f%% bsd %.0f%% x %.0f%% (%d calls)\n",
			"", "", r.Gen.AppPct(), r.Gen.KernelPct(), r.Gen.BSDPct(), r.Gen.XPct(), r.Gen.Calls)
	}
}
