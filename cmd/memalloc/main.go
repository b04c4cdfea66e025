// Command memalloc reproduces the tables and figures of Nagle, Uhlig,
// Mudge & Sechrest, "Optimal Allocation of On-chip Memory for
// Multiple-API Operating Systems" (ISCA 1994).
//
// Usage:
//
//	memalloc [-refs N] list
//	memalloc [flags] <experiment> [<experiment> ...]
//	memalloc [flags] all
//
// Experiments are named after the paper's artifacts (table1, table3,
// table4, table6, table7, fig3..fig10) plus the methodology checks
// (paths, sampling). -refs controls the simulated references per
// workload/OS run; larger is slower and less noisy.
//
// Design-space flag (allocation experiments table6/table7):
//
//	-space PRESET     "table5" (default) is the paper's grid, priced
//	                  exhaustively; "big" is the >=1M-triple production
//	                  space, searched by the Pareto/branch-and-bound
//	                  engine for the top 10 -- the simulators still
//	                  sweep only the Table 5 grid, and off-grid
//	                  configurations are priced by a power-law miss
//	                  model fitted to the sweep output
//
// Observability flags (all off by default; the default output is
// byte-identical to an uninstrumented run). -metrics, -spans, -prof-span
// and -prof-span-out are the flags every simulation binary shares
// (internal/obs); each writes its file when the run ends, interrupted
// or not:
//
//	-metrics FILE   write a JSONL run manifest plus every collected
//	                metric (one JSON object per line; arrangement and
//	                wall-clock metrics, such as the span.*_us timings,
//	                name their class) to FILE; "memalloc compare"
//	                diffs two such files
//	-trace FILE     capture the machine's stall-event window (a
//	                Monster-style logic-analyzer ring) and dump it as
//	                JSONL to FILE
//	-progress       stream live progress lines to stderr: timing-
//	                machine measurements and workload sweeps as they
//	                finish
//	-spans FILE     record hierarchical execution spans (per-workload
//	                generation phases, per-worker sweep jobs and search)
//	                and write them as Chrome trace-event JSON to FILE on
//	                exit; load the file in Perfetto (ui.perfetto.dev)
//	                or chrome://tracing
//	-prof-span NAME capture a CPU profile bracketed exactly by the first
//	                span named NAME (-prof-span-out sets the .pprof path)
//
// Performance flag (never changes experiment output):
//
//	-trace-cache DIR  cache generated workload reference streams under
//	                  DIR (compressed, content-addressed, checksummed);
//	                  a warm run replays the recorded stream instead of
//	                  regenerating it, a corrupt entry falls back to
//	                  regeneration
//
// Failures (see DESIGN.md "Failure policy"): a workload sweep that
// fails -- an error, or a panic recovered on its goroutine -- fails its
// experiment with an error naming the workload, and memalloc exits 1
// after running the rest. SIGINT/SIGTERM cancels the run gracefully:
// telemetry flushes, partial results are written, and the process
// exits with status 130. A second signal aborts immediately.
//
// Regression comparison (see EXPERIMENTS.md "Run files"):
//
//	memalloc compare [-threshold F] <a.jsonl> <b.jsonl>
//	                diff the result-class metrics of two -metrics
//	                files; non-zero exit on regression
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"time"

	"onchip/internal/experiments"
	"onchip/internal/lifecycle"
	"onchip/internal/machine"
	"onchip/internal/obs"
	"onchip/internal/telemetry"
	"onchip/internal/tracecache"
)

func main() {
	os.Exit(run())
}

func run() int {
	var of obs.Flags
	of.Register(flag.CommandLine)
	refs := flag.Int("refs", 0, "simulated references per workload run (0 = experiment default)")
	spacePreset := flag.String("space", "table5", "design space for the allocation experiments: table5 (the paper's grid, priced exhaustively) or big (>=1M triples, searched pruned; off-grid configurations priced by the power-law miss model)")
	traceFile := flag.String("trace", "", "write the machine stall-event window as JSONL to this file")
	progress := flag.Bool("progress", false, "stream live progress lines to stderr")
	traceCacheDir := flag.String("trace-cache", "", "cache generated workload reference streams (compressed, content-addressed) under this directory; warm runs replay instead of regenerating")
	flag.Usage = usage
	flag.Parse()

	args := flag.Args()
	if len(args) == 0 {
		usage()
		return 2
	}
	switch args[0] {
	case "list":
		if len(args) > 1 {
			fmt.Fprintf(os.Stderr, "memalloc: \"list\" takes no further arguments (got %q)\n", args[1:])
			return 2
		}
		for _, id := range experiments.IDs() {
			fmt.Printf("  %-9s %s\n", id, experiments.Title(id))
		}
		return 0
	case "compare":
		return runCompare(args[1:])
	}
	ids, code := resolveExperiments(args)
	if code >= 0 {
		return code
	}
	opt := experiments.Options{Refs: *refs, SpacePreset: *spacePreset}
	if err := opt.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, "memalloc:", err)
		return 2
	}

	// Shutdown contract: the first SIGINT/SIGTERM cancels ctx --
	// telemetry is flushed, and the -metrics/-trace files are still
	// written below; a second signal aborts immediately.
	ctx, stopSignals := lifecycle.Notify(context.Background(), "memalloc", nil)
	defer stopSignals()

	sess, err := of.Start(ctx, obs.Binary{
		Name:   "memalloc",
		Labels: map[string]string{"experiments": fmt.Sprint(ids)},
		Ring:   *traceFile != "",
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	defer sess.Close()
	opt.Metrics, opt.Tracer, opt.Spans, opt.Context = sess.Registry, sess.Events, sess.Spans, ctx
	if *traceCacheDir != "" {
		tc, err := tracecache.Open(*traceCacheDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "memalloc:", err)
			return sess.Exit(1)
		}
		tc.Describe(opt.Metrics)
		tc.SetLogWriter(os.Stderr) // corrupt entries log their content address
		opt.TraceCache = tc
	}
	if *progress {
		opt.Progress = os.Stderr
	}

	failed := false
	interrupted := false
	mainLane := opt.Spans.Lane("main")
	for _, id := range ids {
		t0 := time.Now()
		expSpan := mainLane.Start("experiment." + id)
		res, err := experiments.Run(id, opt)
		expSpan.End()
		if err != nil {
			if errors.Is(err, context.Canceled) {
				interrupted = true
				fmt.Fprintf(os.Stderr, "memalloc: %s interrupted\n", id)
				break
			}
			fmt.Fprintln(os.Stderr, "memalloc:", err)
			failed = true
			continue
		}
		fmt.Printf("=== %s: %s (%.1fs)\n\n%s\n", res.ID, res.Title, time.Since(t0).Seconds(), res.Text)
		for _, n := range res.Notes {
			fmt.Printf("  note: %s\n", n)
		}
		fmt.Println()
	}

	// Partial results still land on disk after an interrupt: the metric
	// snapshot reflects everything flushed before cancellation, and the
	// trace file holds the captured event window.
	if *traceFile != "" {
		if err := writeTrace(*traceFile, opt.Tracer); err != nil {
			fmt.Fprintln(os.Stderr, "memalloc:", err)
			failed = true
		}
	}
	switch {
	case interrupted:
		return sess.Exit(lifecycle.InterruptExit)
	case failed:
		return sess.Exit(1)
	}
	return sess.Exit(0)
}

func writeTrace(path string, tr *telemetry.Tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := machine.WriteTrace(f, tr); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// resolveExperiments expands and validates the experiment arguments.
// It returns the ids and -1, or a nil list with the exit code to
// return.
func resolveExperiments(args []string) ([]string, int) {
	if args[0] == "all" {
		if len(args) > 1 {
			fmt.Fprintf(os.Stderr, "memalloc: \"all\" takes no further arguments (got %q)\n", args[1:])
			return nil, 2
		}
		return experiments.IDs(), -1
	}
	// Validate every id up front so a typo after valid ids fails fast,
	// names the offender, and runs nothing.
	for _, id := range args {
		if experiments.Title(id) == "" {
			fmt.Fprintf(os.Stderr, "memalloc: unknown experiment %q (run \"memalloc list\" for the catalog)\n", id)
			return nil, 2
		}
	}
	return args, -1
}

// runCompare implements `memalloc compare`: diff two -metrics snapshots
// and exit non-zero when any metric moved beyond the threshold, so CI
// can gate on simulator regressions.
func runCompare(args []string) int {
	fs := flag.NewFlagSet("memalloc compare", flag.ExitOnError)
	threshold := fs.Float64("threshold", 0.01, "relative change beyond which a metric is flagged")
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, `usage: memalloc compare [-threshold F] <a.jsonl> <b.jsonl>

Diffs two -metrics files, from any of the simulation binaries. Exits 0
when every result-class counter, gauge, histogram and the derived CPI
agree within the threshold, 1 when any regressed or is missing from
one run, 2 on usage or read errors (so CI can tell a regression from a
missing or unreadable file). Arrangement metrics (pool width,
trace-cache and advisor traffic) and wall-clock metrics (span timings)
carry their class in the file and are never compared; a metric line
without a class is a result metric.`)
		fs.PrintDefaults()
	}
	fs.Parse(args)
	if fs.NArg() != 2 {
		fs.Usage()
		return 2
	}
	// A NaN threshold would pass any drift and a negative one flag
	// every metric.
	if !(*threshold >= 0) || math.IsInf(*threshold, 1) {
		fmt.Fprintf(os.Stderr, "memalloc compare: -threshold must be a finite non-negative number (got %v)\n", *threshold)
		return 2
	}
	var runs [2]obs.Run
	for i := range runs {
		r, err := obs.ReadRunFile(fs.Arg(i))
		if err != nil {
			fmt.Fprintln(os.Stderr, "memalloc:", err)
			return 2
		}
		runs[i] = r
	}
	deltas := obs.Compare(runs[0], runs[1], *threshold)
	if len(deltas) == 0 {
		fmt.Printf("%s and %s agree: no metric moved more than %.3g%%\n",
			fs.Arg(0), fs.Arg(1), 100**threshold)
		return 0
	}
	fmt.Print(obs.FormatDeltas(deltas))
	fmt.Printf("\n%d metric(s) beyond the %.3g%% threshold\n", len(deltas), 100**threshold)
	return 1
}

func usage() {
	fmt.Fprintf(os.Stderr, `usage: memalloc [flags] list | all | <experiment>...
       memalloc compare [-threshold F] <a.jsonl> <b.jsonl>

Reproduces the evaluation of "Optimal Allocation of On-chip Memory for
Multiple-API Operating Systems" (ISCA 1994). Run "memalloc list" for the
experiment catalog. "compare" diffs the result-class metrics of two
-metrics files and exits non-zero on regression.

Failures: a failed workload sweep fails its experiment with an error
naming the workload (exit status 1). SIGINT/SIGTERM shuts down
gracefully -- telemetry flushes and partial results are written (exit
status 130 marks an interrupted run).
`)
	flag.PrintDefaults()
}
