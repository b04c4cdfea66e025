// Command monster runs the Monster-style hardware-monitoring analysis:
// a workload executes on DECstation 3100 memory parameters and every
// stall cycle is attributed to its cause, reproducing rows of the
// paper's Tables 3 and 4.
//
// Usage:
//
//	monster -workload mpeg_play -refs 2000000          # Ultrix, Mach and user-only
//	monster -suite                                     # all workloads (Table 4)
//	monster -suite -metrics run.jsonl -serve :6060     # with the observability plane
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"onchip/internal/lifecycle"
	"onchip/internal/machine"
	"onchip/internal/monitor"
	"onchip/internal/obs"
	"onchip/internal/osmodel"
	"onchip/internal/spans"
	"onchip/internal/telemetry"
	"onchip/internal/workload"
)

func main() {
	wl := flag.String("workload", "mpeg_play", "workload name")
	refs := flag.Int("refs", 2_000_000, "references to simulate per run")
	suite := flag.Bool("suite", false, "run the whole suite under both OSes (Table 4)")
	metricsFile := flag.String("metrics", "", "write run manifest and metrics as JSONL to this file")
	serveAddr := flag.String("serve", "", "serve live observability endpoints on this address (e.g. :6060)")
	spansFile := flag.String("spans", "", "write execution spans as Chrome trace-event JSON to this file (Perfetto-loadable)")
	profSpan := flag.String("prof-span", "", "capture a CPU profile bracketed by the first span with this name (e.g. suite.Mach)")
	profSpanOut := flag.String("prof-span-out", "", "CPU profile output path for -prof-span (default span_<name>.pprof)")
	flag.Parse()

	ctx, stopSignals := lifecycle.Notify(context.Background(), "monster", nil)
	defer stopSignals()

	start := time.Now()
	var reg *telemetry.Registry
	var tr *telemetry.Tracer
	if *metricsFile != "" || *serveAddr != "" {
		reg = telemetry.NewRegistry()
	}
	spanTr, drainSpans, err := spans.Setup(ctx, "monster", *spansFile, *profSpan, *profSpanOut, reg)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer drainSpans()
	man := &telemetry.Manifest{
		Command:   "monster",
		Args:      os.Args[1:],
		Start:     start.Format(time.RFC3339),
		GoVersion: runtime.Version(),
		Labels:    map[string]string{"workload": *wl, "suite": fmt.Sprint(*suite)},
	}
	if *serveAddr != "" {
		tr = telemetry.NewTracer(telemetry.DefaultTracerDepth)
		srv := obs.New(obs.Config{
			Registry: reg,
			Tracer:   tr,
			Manifest: man,
			KindName: machine.KindName,
			CompName: machine.CompName,
			Spans:    spanTr,
		})
		bound, err := srv.Start(*serveAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "monster: serve:", err)
			os.Exit(1)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "monster: observability plane on http://%s/\n", bound)
	}

	// Cancellation is checked between measurements: each row that was
	// fully measured before the interrupt is printed, then the metrics
	// snapshot below still covers everything printed.
	interrupted := false
	lane := spanTr.Lane("main")
	if *suite {
		for _, v := range []osmodel.Variant{osmodel.Ultrix, osmodel.Mach} {
			span := lane.Start("suite." + v.String())
			rows, err := monitor.MeasureRows(ctx, monitor.Suite(v, workload.All(), *refs, machine.DECstation3100()), reg, tr)
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
		spec, err := workload.ByName(*wl)
		if err != nil {
			fmt.Fprintln(os.Stderr, "monster:", err)
			os.Exit(1)
		}
		span := lane.Start("measure")
		rows, err := monitor.MeasureRows(ctx, monitor.Conditions(spec, *refs, machine.DECstation3100()), reg, tr)
		span.End()
		for _, row := range rows {
			printRow(row)
		}
		interrupted = err != nil
	}
	if interrupted {
		fmt.Fprintln(os.Stderr, "monster: interrupted; rows above are complete measurements")
	}

	if *metricsFile != "" {
		f, err := os.Create(*metricsFile)
		if err == nil {
			err = telemetry.WriteJSONL(f, man, reg.Snapshot())
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "monster:", err)
			os.Exit(1)
		}
	}
	if interrupted {
		drainSpans() // os.Exit skips defers; the trace still lands
		os.Exit(lifecycle.InterruptExit)
	}
}

func printRow(r monitor.Row) {
	fmt.Printf("%-11s %-7s %s\n", r.Workload, r.OS, r.Breakdown)
	if r.Gen.Instrs > 0 {
		fmt.Printf("%-11s %-7s time split: app %.0f%% kernel %.0f%% bsd %.0f%% x %.0f%% (%d calls)\n",
			"", "", r.Gen.AppPct(), r.Gen.KernelPct(), r.Gen.BSDPct(), r.Gen.XPct(), r.Gen.Calls)
	}
}
