package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"onchip/internal/report"
	"onchip/internal/tsdb"
)

// runTsdb implements `memalloc tsdb <ls|export|trend>`: the CLI over
// the durable time-series store that runs with -tsdb persist. `trend`
// is the longitudinal replacement for pairwise `memalloc compare`: it
// fits a regression line per metric across N stored runs and exits
// non-zero on sustained drift, so CI gates on the fleet, not a pair.
func runTsdb(args []string) int {
	if len(args) == 0 {
		fmt.Fprintln(os.Stderr, `usage: memalloc tsdb ls [-dir DIR] [-run ID]
       memalloc tsdb export [-dir DIR] [-run ID] [-res raw|10s|1m] [-from MS] [-to MS] [-format json|csv] <metric>
       memalloc tsdb trend [-dir DIR] [-last N] [-threshold F] [-min-r2 F] [-match SUBSTR] [-include-wallclock]`)
		return 2
	}
	switch args[0] {
	case "ls":
		return runTsdbLs(args[1:])
	case "export":
		return runTsdbExport(args[1:])
	case "trend":
		return runTsdbTrend(args[1:])
	}
	fmt.Fprintf(os.Stderr, "memalloc: unknown tsdb subcommand %q (want ls, export or trend)\n", args[0])
	return 2
}

// runTsdbLs lists the stored runs, or one run's metrics with -run.
func runTsdbLs(args []string) int {
	fs := flag.NewFlagSet("memalloc tsdb ls", flag.ExitOnError)
	dir := fs.String("dir", "tsdb", "time-series store root directory")
	run := fs.String("run", "", "list this run's metrics instead of the run catalog")
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, `usage: memalloc tsdb ls [-dir DIR] [-run ID]

Lists the runs stored under the tsdb root (written by running with
-tsdb DIR), or with -run, one run's stored metrics.`)
		fs.PrintDefaults()
	}
	fs.Parse(args)
	db := tsdb.Open(*dir)
	if *run != "" {
		metrics, err := db.Metrics(*run)
		if err != nil {
			fmt.Fprintln(os.Stderr, "memalloc:", err)
			return 2
		}
		t := report.NewTable("Stored metrics: "+*run, "Metric", "Kind", "Class")
		for _, m := range metrics {
			t.Row(m.Name, m.Kind, m.Class)
		}
		fmt.Print(t.String())
		return 0
	}
	runs, err := db.Runs()
	if err != nil {
		fmt.Fprintln(os.Stderr, "memalloc:", err)
		return 2
	}
	if len(runs) == 0 {
		fmt.Printf("no stored runs under %s (run with -tsdb %s to persist series)\n", *dir, *dir)
		return 0
	}
	t := report.NewTable("Stored runs: "+*dir, "Run", "Command", "Start", "Metrics")
	for _, r := range runs {
		n := ""
		if metrics, err := db.Metrics(r.RunID); err == nil {
			n = fmt.Sprint(len(metrics))
		}
		t.Row(r.RunID, r.Command, r.Start, n)
	}
	fmt.Print(t.String())
	return 0
}

// runTsdbExport dumps one metric's stored series, reproducing after
// process exit exactly what /query serves live.
func runTsdbExport(args []string) int {
	fs := flag.NewFlagSet("memalloc tsdb export", flag.ExitOnError)
	dir := fs.String("dir", "tsdb", "time-series store root directory")
	run := fs.String("run", "", "run to export (default: the newest stored run)")
	resName := fs.String("res", "raw", "resolution tier: raw, 10s or 1m")
	from := fs.Int64("from", 0, "keep points at or after this unix millisecond")
	to := fs.Int64("to", 0, "keep points at or before this unix millisecond (0 = unbounded)")
	format := fs.String("format", "json", "output format: json or csv")
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, `usage: memalloc tsdb export [-dir DIR] [-run ID] [-res raw|10s|1m] [-from MS] [-to MS] [-format json|csv] <metric>

Writes one stored series to stdout. JSON output matches the /query
endpoint; CSV has a unix_ms,count,min,max,sum,mean header row.`)
		fs.PrintDefaults()
	}
	fs.Parse(args)
	if fs.NArg() != 1 {
		fs.Usage()
		return 2
	}
	res, err := tsdb.ParseRes(*resName)
	if err != nil {
		fmt.Fprintln(os.Stderr, "memalloc:", err)
		return 2
	}
	db := tsdb.Open(*dir)
	runID := *run
	if runID == "" {
		runs, err := db.Runs()
		if err != nil || len(runs) == 0 {
			fmt.Fprintf(os.Stderr, "memalloc: no stored runs under %s\n", *dir)
			return 2
		}
		runID = runs[len(runs)-1].RunID
	}
	series, err := db.Query(runID, fs.Arg(0), res, *from, *to)
	if err != nil {
		fmt.Fprintln(os.Stderr, "memalloc:", err)
		return 2
	}
	switch *format {
	case "json":
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		enc.Encode(series)
	case "csv":
		fmt.Println("unix_ms,count,min,max,sum,mean")
		for _, p := range series.Points {
			fmt.Printf("%d,%d,%g,%g,%g,%g\n", p.UnixMs, p.Count, p.Min, p.Max, p.Sum, p.Mean())
		}
	default:
		fmt.Fprintf(os.Stderr, "memalloc: unknown format %q (want json or csv)\n", *format)
		return 2
	}
	if series.Truncated {
		fmt.Fprintln(os.Stderr, "memalloc: warning: a shard ended in a torn block (crashed run); series is the clean prefix")
	}
	return 0
}

// runTsdbTrend fits per-metric regression lines across stored runs and
// gates on sustained drift.
func runTsdbTrend(args []string) int {
	fs := flag.NewFlagSet("memalloc tsdb trend", flag.ExitOnError)
	dir := fs.String("dir", "tsdb", "time-series store root directory")
	last := fs.Int("last", 0, "fit over only the newest N runs (0 = all)")
	threshold := fs.Float64("threshold", 0.01, "relative per-run slope beyond which a metric counts as drifting")
	minR2 := fs.Float64("min-r2", 0.5, "minimum R^2 for a drift to count as sustained rather than noise")
	match := fs.String("match", "", "only fit metrics containing this substring")
	wallclock := fs.Bool("include-wallclock", false, "also fit wall-clock-class metrics such as the span.*_us timings (skipped by default, like memalloc compare; arrangement-class metrics are never fitted)")
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, `usage: memalloc tsdb trend [-dir DIR] [-last N] [-threshold F] [-min-r2 F] [-match SUBSTR] [-include-wallclock]

Fits a least-squares line through each metric's per-run scalar (final
value for counters, run mean for gauges and histograms) across the
stored runs, oldest to newest. Only result-class metrics are fitted
(plus wall-clock ones with -include-wallclock); arrangement metrics such
as tracecache.* never are. Exits 0 when no metric shows sustained
drift, 1 when any does (relative slope > threshold with R^2 >= min-r2
over at least 3 runs), 2 on usage or read errors -- the longitudinal
successor to pairwise "memalloc compare" for CI gating.`)
		fs.PrintDefaults()
	}
	fs.Parse(args)
	if fs.NArg() != 0 {
		fs.Usage()
		return 2
	}
	trends, err := tsdb.Open(*dir).TrendAll(tsdb.TrendOptions{
		LastN:            *last,
		Match:            *match,
		IncludeWallClock: *wallclock,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "memalloc:", err)
		return 2
	}
	if len(trends) == 0 {
		fmt.Println("no metric stored in every selected run; nothing to fit")
		return 0
	}
	drifting := 0
	t := report.NewTable(
		fmt.Sprintf("Trend over %d runs (threshold %.3g%%/run, min R^2 %.2g)",
			len(trends[0].Runs), 100**threshold, *minR2),
		"Metric", "Kind", "Per-run slope", "Rel/run", "R^2", "Drift")
	for _, tr := range trends {
		mark := ""
		if tr.Drifting(*threshold, *minR2) {
			drifting++
			mark = "DRIFTING"
		}
		t.Row(tr.Metric, tr.Kind,
			fmt.Sprintf("%+.6g", tr.Slope),
			fmt.Sprintf("%+.3f%%", 100*tr.Rel*signOf(tr.Slope)),
			fmt.Sprintf("%.3f", tr.R2), mark)
	}
	fmt.Print(t.String())
	if drifting > 0 {
		fmt.Printf("\n%d metric(s) show sustained drift beyond %.3g%%/run\n", drifting, 100**threshold)
		return 1
	}
	fmt.Printf("\nno sustained drift across %d runs\n", len(trends[0].Runs))
	return 0
}

func signOf(x float64) float64 {
	if x < 0 {
		return -1
	}
	return 1
}
