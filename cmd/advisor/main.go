// Command advisor serves ranked on-chip memory allocations over HTTP:
// POST /advise with an area budget, OS personality (Mach or Ultrix),
// workload mix and reference count, and it answers the Table 6/7-style
// question -- the optimal TLB/I-cache/D-cache split under that budget
// -- as deterministic JSON.
//
// The daemon hardens the request lifecycle end to end (DESIGN.md
// section 13):
//
//   - every computation runs under -timeout via context cancellation
//     threaded through the sweep and search layers (504 on expiry)
//   - one request table, keyed by the FNV-64a request signature,
//     decides each request under one lock: identical requests join
//     the running computation, a bounded LRU (-cache-entries) answers
//     repeats byte-identically, and once -workers running plus -queue
//     waiting computations are unfinished, a new one sheds with 429 +
//     Retry-After
//   - a negative -workers, -queue, -timeout, -drain-timeout,
//     -cache-entries or -max-refs exits 2 before the daemon listens;
//     0 selects the flag's default
//   - a failed computation answers 503 with an error naming the
//     workload; a corrupt -trace-cache entry is evicted and its stream
//     regenerated, so it costs time, not the answer
//   - worker panics answer 500 without taking the daemon down
//   - GET /healthz reports liveness, GET /readyz readiness (503 while
//     draining); GET /obs/metrics and /obs/snapshot expose the
//     daemon's metric registry
//   - SIGINT/SIGTERM drains gracefully: admission stops, in-flight
//     work finishes up to -drain-timeout, aborted requests are
//     checkpointed to -drain-checkpoint, and the process exits 130;
//     a second signal aborts immediately (128+signal)
//
// The HTTP server itself is the hardened obs configuration: header,
// read, write and idle timeouts plus header and body size limits.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"time"

	"onchip/internal/advisor"
	"onchip/internal/lifecycle"
	"onchip/internal/obs"
	"onchip/internal/telemetry"
	"onchip/internal/tracecache"
)

func main() {
	os.Exit(run())
}

func run() int {
	addr := flag.String("addr", "localhost:8091", "listen address")
	workers := flag.Int("workers", 2, "concurrent sweep computations (0 = 2)")
	queue := flag.Int("queue", 0, "admission queue depth beyond the workers (0 = 2x workers); a full queue sheds with 429")
	timeout := flag.Duration("timeout", 2*time.Minute, "per-request computation deadline, 504 on expiry (0 = 2m)")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "graceful-drain wait for in-flight work on SIGINT/SIGTERM (0 = 30s)")
	drainCheckpoint := flag.String("drain-checkpoint", "", "write aborted in-flight requests to this JSON file when the drain deadline hits")
	cacheEntries := flag.Int("cache-entries", 64, "bounded LRU of rendered responses, byte-identical repeats (0 = 64)")
	maxRefs := flag.Int("max-refs", 50_000_000, "largest per-workload reference count one request may demand (0 = 50000000)")
	traceCacheDir := flag.String("trace-cache", "", "trace-cache directory (warm runs replay recorded reference streams; corrupt entries fall back to regeneration)")
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "advisor: unexpected arguments %q\n", flag.Args())
		return 2
	}
	for _, f := range []struct {
		name     string
		negative bool
	}{
		{"workers", *workers < 0}, {"queue", *queue < 0},
		{"timeout", *timeout < 0}, {"drain-timeout", *drainTimeout < 0},
		{"cache-entries", *cacheEntries < 0}, {"max-refs", *maxRefs < 0},
	} {
		if f.negative {
			fmt.Fprintf(os.Stderr, "advisor: -%s must not be negative (got %s)\n", f.name, flag.Lookup(f.name).Value)
			return 2
		}
	}

	// First signal cancels ctx (drain begins); a second signal aborts
	// via lifecycle with 128+signal.
	ctx, stopSignals := lifecycle.Notify(context.Background(), "advisor", nil)
	defer stopSignals()

	reg := telemetry.NewRegistry()
	cfg := advisor.Config{
		Workers:        *workers,
		QueueDepth:     *queue,
		RequestTimeout: *timeout,
		DrainTimeout:   *drainTimeout,
		CheckpointPath: *drainCheckpoint,
		CacheEntries:   *cacheEntries,
		MaxRefs:        *maxRefs,
		Metrics:        reg,
		Logw:           os.Stderr,
	}
	if *traceCacheDir != "" {
		tc, err := tracecache.Open(*traceCacheDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "advisor:", err)
			return 1
		}
		tc.Describe(reg)
		tc.SetLogWriter(os.Stderr)
		cfg.TraceCache = tc
	}
	// Jobs run under the server's own base context, not the signal
	// context: the first signal must stop admission and let in-flight
	// work finish (Drain below), not cancel it outright.
	srv := advisor.New(cfg)

	mux := http.NewServeMux()
	mux.Handle("/", srv.Handler())
	mux.Handle("/obs/", http.StripPrefix("/obs", obs.Handler(reg)))
	httpSrv := obs.NewHTTPServer(mux)

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "advisor:", err)
		return 1
	}
	fmt.Fprintf(os.Stderr, "advisor: listening on http://%s/ (POST /advise; /healthz /readyz /obs/metrics)\n", ln.Addr())
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	select {
	case err := <-serveErr:
		fmt.Fprintln(os.Stderr, "advisor: serve:", err)
		return 1
	case <-ctx.Done():
	}

	// Graceful drain: the listener stays open so late requests get a
	// clean 503 + Retry-After while in-flight work finishes; then the
	// HTTP server shuts down and the process exits with the
	// signal-shutdown status.
	if err := srv.Drain(); err != nil {
		fmt.Fprintln(os.Stderr, "advisor:", err)
	}
	shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutCtx); err != nil {
		fmt.Fprintln(os.Stderr, "advisor: shutdown:", err)
	}
	return lifecycle.InterruptExit
}
