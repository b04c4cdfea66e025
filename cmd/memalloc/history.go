package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"onchip/internal/experiments"
	"onchip/internal/lifecycle"
	"onchip/internal/obs"
	"onchip/internal/spans"
	"onchip/internal/telemetry"
	"onchip/internal/tracecache"
)

// runHistory implements `memalloc history`: run experiments with
// metrics forced on and persist the end-of-run snapshot as
// BENCH_<runid>.json, building the run-over-run record that
// `memalloc compare` diffs.
func runHistory(args []string, globalRefs int) int {
	fs := flag.NewFlagSet("memalloc history", flag.ExitOnError)
	refs := fs.Int("refs", globalRefs, "simulated references per workload run (0 = experiment default)")
	dir := fs.String("dir", ".", "directory for the snapshot file")
	out := fs.String("o", "", "exact output path (overrides -dir and the BENCH_<runid>.json name)")
	traceCacheDir := fs.String("trace-cache", "", "cache generated workload reference streams under this directory (warm runs replay instead of regenerating)")
	shards := fs.Int("shards", 0, "set shards per sweep simulator group (power of two; 0 = automatic; never changes results)")
	spacePreset := fs.String("space", "table5", "design space for the allocation experiments: table5 (the paper's grid, priced exhaustively) or big (>=1M triples, searched pruned; power-law miss model off-grid)")
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, `usage: memalloc history [-refs N] [-dir DIR | -o FILE] [-trace-cache DIR] [-shards N] [-space P] <experiment>... | all

Runs the experiments with metrics collection on and persists the
end-of-run telemetry snapshot as BENCH_<runid>.json, for later
regression checks with "memalloc compare". -trace-cache and -shards
speed the sweeps up without changing any result-class metric, so
"memalloc compare -threshold 0" passes between cold and warm, or
serial and sharded, snapshots.`)
		fs.PrintDefaults()
	}
	fs.Parse(args)
	ids, code := resolveExperiments(fs.Args())
	if code >= 0 {
		return code
	}

	ctx, stopSignals := lifecycle.Notify(context.Background(), "memalloc history", nil)
	defer stopSignals()

	start := time.Now()
	man := &telemetry.Manifest{
		Command:   "memalloc history",
		Args:      args,
		Start:     start.Format(time.RFC3339),
		GoVersion: runtime.Version(),
		Labels:    map[string]string{"experiments": fmt.Sprint(ids)},
	}
	reg := telemetry.NewRegistry()
	spanTr, drainSpans, err := spans.Setup(ctx, "memalloc history", "", "", "", reg)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	defer drainSpans()
	opt := experiments.Options{
		Refs: *refs, Metrics: reg, Spans: spanTr, Context: ctx, Shards: *shards,
		SpacePreset: *spacePreset,
	}
	if *traceCacheDir != "" {
		tc, err := tracecache.Open(*traceCacheDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "memalloc:", err)
			return 1
		}
		tc.Describe(reg)
		opt.TraceCache = tc
	}
	for _, id := range ids {
		t0 := time.Now()
		res, err := experiments.Run(id, opt)
		if err != nil {
			if errors.Is(err, context.Canceled) {
				// A partial snapshot would gate CI on half a run; drop it.
				fmt.Fprintf(os.Stderr, "memalloc: history interrupted during %s; no snapshot written\n", id)
				return lifecycle.InterruptExit
			}
			fmt.Fprintln(os.Stderr, "memalloc:", err)
			return 1
		}
		fmt.Fprintf(os.Stderr, "memalloc: history: %s done (%.1fs)\n", res.ID, time.Since(t0).Seconds())
	}

	path := *out
	if path == "" {
		path = filepath.Join(*dir, obs.RunFileName(obs.RunID("memalloc", start)))
	}
	if err := obs.WriteRunFile(path, obs.Run{Manifest: man, Metrics: reg.Snapshot()}); err != nil {
		fmt.Fprintln(os.Stderr, "memalloc:", err)
		return 1
	}
	fmt.Println(path)
	return 0
}

// runCompare implements `memalloc compare`: diff two persisted run
// snapshots and exit non-zero when any metric moved beyond the
// threshold, so CI can gate on simulator regressions.
func runCompare(args []string) int {
	fs := flag.NewFlagSet("memalloc compare", flag.ExitOnError)
	threshold := fs.Float64("threshold", 0.01, "relative change beyond which a metric is flagged")
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, `usage: memalloc compare [-threshold F] <a.json> <b.json>

Diffs two run snapshots written by "memalloc history" (or -metrics
converted runs). Exits 0 when every result-class counter, gauge,
histogram and the derived CPI agree within the threshold, 1 when any
regressed or is missing from one run, 2 on usage or read errors (so CI
can tell a regression from a missing or unreadable run file).
Arrangement metrics (pool width, shard count, trace-cache and advisor
traffic) and wall-clock metrics (span timings) carry their class in
the snapshot and are never compared. Snapshots from before metric
classes are refused; re-record them.`)
		fs.PrintDefaults()
	}
	fs.Parse(args)
	if fs.NArg() != 2 {
		fs.Usage()
		return 2
	}
	a, err := readRunFile(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "memalloc:", err)
		return 2
	}
	b, err := readRunFile(fs.Arg(1))
	if err != nil {
		fmt.Fprintln(os.Stderr, "memalloc:", err)
		return 2
	}
	deltas := obs.Compare(a, b, *threshold)
	if len(deltas) == 0 {
		fmt.Printf("%s and %s agree: no metric moved more than %.3g%%\n",
			fs.Arg(0), fs.Arg(1), 100**threshold)
		return 0
	}
	fmt.Print(obs.FormatDeltas(deltas))
	fmt.Printf("\n%d metric(s) beyond the %.3g%% threshold\n", len(deltas), 100**threshold)
	return 1
}

// readRunFile loads a snapshot, turning a bare open error on a missing
// file into a message that names the path and lists the run files that
// DO exist next to it -- the usual failure is a typoed BENCH_<runid>
// name, so show the alternatives instead of an errno.
func readRunFile(path string) (obs.Run, error) {
	run, err := obs.ReadRunFile(path)
	if err == nil || !errors.Is(err, fs.ErrNotExist) {
		return run, err
	}
	dir := filepath.Dir(path)
	candidates, _ := filepath.Glob(filepath.Join(dir, "BENCH_*.json"))
	msg := fmt.Sprintf("run file not found: %s", path)
	if len(candidates) > 0 {
		msg += fmt.Sprintf(" (run files in %s: %v)", dir, candidates)
	} else {
		msg += fmt.Sprintf(" (no BENCH_*.json run files in %s; create one with \"memalloc history\")", dir)
	}
	return run, errors.New(msg)
}

// resolveExperiments expands and validates experiment arguments shared
// by the main run path and the history subcommand. It returns the ids
// and -1, or a nil list with the exit code to return.
func resolveExperiments(args []string) ([]string, int) {
	if len(args) == 0 {
		fmt.Fprintln(os.Stderr, "memalloc: no experiments given (run \"memalloc list\" for the catalog)")
		return nil, 2
	}
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
