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
// byte-identical to an uninstrumented run):
//
//	-metrics FILE   write a JSONL run manifest plus every collected
//	                metric (one JSON object per line; arrangement and
//	                wall-clock metrics, such as the span.*_us timings,
//	                name their class) to FILE
//	-trace FILE     capture the machine's stall-event window (a
//	                Monster-style logic-analyzer ring) and dump it as
//	                JSONL to FILE
//	-progress       stream live progress lines to stderr: measurements
//	                as they finish, sweep and search progress with ETA
//	-pprof ADDR     serve net/http/pprof on ADDR (e.g. localhost:6060)
//	                for the duration of the run
//	-serve ADDR     serve the live observability plane on ADDR for the
//	                duration of the run: GET /metrics (Prometheus),
//	                /snapshot (JSON), /events (SSE tail of the stall-
//	                event ring), /sweep (enumeration progress) and
//	                /spans (execution-span summary)
//	-spans FILE     record hierarchical execution spans (per-workload
//	                generation phases, per-worker sweep jobs and search)
//	                and write them as Chrome trace-event JSON to FILE on
//	                exit; load the file in Perfetto (ui.perfetto.dev)
//	                or chrome://tracing. With -serve, GET /spans reports
//	                the live summary.
//	-prof-span NAME capture a CPU profile bracketed exactly by the first
//	                span named NAME (-prof-span-out sets the .pprof path)
//
// Performance flags (neither ever changes experiment output):
//
//	-trace-cache DIR  cache generated workload reference streams under
//	                  DIR (compressed, content-addressed, checksummed);
//	                  a warm run replays the recorded stream instead of
//	                  regenerating it, a corrupt entry falls back to
//	                  regeneration
//	-shards N         set shards per sweep simulator group (power of
//	                  two, 0 = automatic from the worker count)
//
// Fault tolerance (see DESIGN.md "Fault tolerance"):
//
//	-fault-seed N, -fault-panic-prob P, -fault-retries N
//	                  deterministically inject sweep-worker panics and
//	                  control how often a failed workload sweep is
//	                  retried before being excluded from the model
//
// SIGINT/SIGTERM cancels the run gracefully: telemetry flushes, partial
// results are written, and the process exits with status 130. A second
// signal aborts immediately.
//
// Run history (see EXPERIMENTS.md "Live monitoring"):
//
//	memalloc history [-refs N] [-o FILE] <experiment>...
//	                persist the end-of-run metric snapshot as
//	                BENCH_<runid>.json
//	memalloc compare [-threshold F] <a.json> <b.json>
//	                diff the result-class metrics of two snapshots;
//	                non-zero exit on regression
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof"
	"os"
	"runtime"
	"time"

	"onchip/internal/experiments"
	"onchip/internal/faultinject"
	"onchip/internal/lifecycle"
	"onchip/internal/machine"
	"onchip/internal/obs"
	"onchip/internal/spans"
	"onchip/internal/telemetry"
	"onchip/internal/tracecache"
)

func main() {
	os.Exit(run())
}

func run() int {
	refs := flag.Int("refs", 0, "simulated references per workload run (0 = experiment default)")
	spacePreset := flag.String("space", "table5", "design space for the allocation experiments: table5 (the paper's grid, priced exhaustively) or big (>=1M triples, searched pruned; off-grid configurations priced by the power-law miss model)")
	metricsFile := flag.String("metrics", "", "write run manifest and metrics (span timings included) as JSONL to this file")
	traceFile := flag.String("trace", "", "write the machine stall-event window as JSONL to this file")
	progress := flag.Bool("progress", false, "stream live progress lines to stderr")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
	serveAddr := flag.String("serve", "", "serve live observability endpoints on this address (e.g. :6060)")
	spansFile := flag.String("spans", "", "write the run's execution spans as Chrome trace-event JSON to this file (load in Perfetto or chrome://tracing)")
	profSpan := flag.String("prof-span", "", "capture a CPU profile bracketed by the first span with this name (e.g. sweep.model, search.enumerate)")
	profSpanOut := flag.String("prof-span-out", "", "CPU profile output path for -prof-span (default span_<name>.pprof)")
	traceCacheDir := flag.String("trace-cache", "", "cache generated workload reference streams (compressed, content-addressed) under this directory; warm runs replay instead of regenerating")
	shards := flag.Int("shards", 0, "set shards per sweep simulator group (power of two; 0 = automatic from the worker count; never changes results)")
	faultSeed := flag.Int64("fault-seed", 1, "fault-injection PRNG seed (deterministic schedule)")
	faultPanicProb := flag.Float64("fault-panic-prob", 0, "probability a sweep worker panics, per workload attempt (testing the recovery path)")
	faultRetries := flag.Int("fault-retries", 2, "times a failed workload sweep is retried before being excluded from the model")
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
	case "history":
		return runHistory(args[1:], *refs)
	case "compare":
		return runCompare(args[1:])
	}
	ids, code := resolveExperiments(args)
	if code >= 0 {
		return code
	}

	// Shutdown contract: the first SIGINT/SIGTERM cancels ctx --
	// telemetry is flushed, and the -metrics/-trace files are still
	// written below; a second signal aborts immediately.
	ctx, stopSignals := lifecycle.Notify(context.Background(), "memalloc", nil)
	defer stopSignals()

	if *pprofAddr != "" {
		go func() {
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				fmt.Fprintln(os.Stderr, "memalloc: pprof:", err)
			}
		}()
		fmt.Fprintf(os.Stderr, "memalloc: pprof listening on http://%s/debug/pprof/\n", *pprofAddr)
	}

	opt := experiments.Options{Refs: *refs, Context: ctx}
	opt.SpacePreset = *spacePreset
	opt.FaultInjector = faultinject.New(faultinject.Config{Seed: *faultSeed, PanicProb: *faultPanicProb})
	opt.FaultRetries = *faultRetries
	opt.Shards = *shards
	if *metricsFile != "" || *serveAddr != "" {
		opt.Metrics = telemetry.NewRegistry()
		opt.FaultInjector.Describe(opt.Metrics, "faults")
	}
	if *traceCacheDir != "" {
		tc, err := tracecache.Open(*traceCacheDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "memalloc:", err)
			return 1
		}
		tc.Describe(opt.Metrics)
		tc.SetLogWriter(os.Stderr) // corrupt entries log their content address
		opt.TraceCache = tc
	}
	if *traceFile != "" || *serveAddr != "" {
		opt.Tracer = telemetry.NewTracer(telemetry.DefaultTracerDepth)
	}
	if *progress {
		opt.Progress = os.Stderr
	}
	spanTr, drainSpans, err := spans.Setup(ctx, "memalloc", *spansFile, *profSpan, *profSpanOut, opt.Metrics)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	defer drainSpans()
	opt.Spans = spanTr

	start := time.Now()
	man := &telemetry.Manifest{
		Command:   "memalloc",
		Args:      os.Args[1:],
		Start:     start.Format(time.RFC3339),
		GoVersion: runtime.Version(),
		Labels:    map[string]string{"experiments": fmt.Sprint(ids)},
	}
	if *serveAddr != "" {
		srv := obs.New(obs.Config{
			Registry: opt.Metrics,
			Tracer:   opt.Tracer,
			Manifest: man,
			KindName: machine.KindName,
			CompName: machine.CompName,
			Spans:    spanTr,
		})
		bound, err := srv.Start(*serveAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "memalloc: serve:", err)
			return 1
		}
		fmt.Fprintf(os.Stderr, "memalloc: observability plane on http://%s/\n", bound)
		defer srv.Close()
		opt.SweepObserver = srv.ObserveSweep
	}
	failed := false
	interrupted := false
	mainLane := spanTr.Lane("main")
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
	if *metricsFile != "" {
		if err := writeMetrics(*metricsFile, man, opt.Metrics.Snapshot()); err != nil {
			fmt.Fprintln(os.Stderr, "memalloc:", err)
			failed = true
		}
	}
	if *traceFile != "" {
		if err := writeTrace(*traceFile, opt.Tracer); err != nil {
			fmt.Fprintln(os.Stderr, "memalloc:", err)
			failed = true
		}
	}
	if interrupted {
		return lifecycle.InterruptExit
	}
	if failed {
		return 1
	}
	return 0
}

func writeMetrics(path string, m *telemetry.Manifest, metrics []telemetry.Metric) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := telemetry.WriteJSONL(f, m, metrics); err != nil {
		f.Close()
		return err
	}
	return f.Close()
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

func usage() {
	fmt.Fprintf(os.Stderr, `usage: memalloc [flags] list | all | <experiment>...
       memalloc history [-refs N] [-dir DIR | -o FILE] <experiment>... | all
       memalloc compare [-threshold F] <a.json> <b.json>

Reproduces the evaluation of "Optimal Allocation of On-chip Memory for
Multiple-API Operating Systems" (ISCA 1994). Run "memalloc list" for the
experiment catalog. "history" persists an end-of-run metric snapshot as
BENCH_<runid>.json; "compare" diffs the result-class metrics of two
snapshots and exits non-zero on regression.

Fault tolerance: SIGINT/SIGTERM shuts down gracefully -- telemetry
flushes and partial results are written (exit status 130 marks an
interrupted run). The -fault-* flags deterministically inject
sweep-worker faults to exercise the recovery paths.
`)
	flag.PrintDefaults()
}
