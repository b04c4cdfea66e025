// Command tracegen generates and inspects binary memory-reference
// traces from the OS/workload behavioral model -- the reproduction's
// stand-in for the paper's Monster-captured DECstation traces.
//
// Usage:
//
//	tracegen -workload mpeg_play -os Mach -refs 1000000 -o trace.octr
//	tracegen -stat trace.octr
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"

	"onchip/internal/lifecycle"
	"onchip/internal/obs"
	"onchip/internal/osmodel"
	"onchip/internal/spans"
	"onchip/internal/telemetry"
	"onchip/internal/trace"
	"onchip/internal/workload"
)

func main() {
	os.Exit(run())
}

func run() int {
	var of obs.Flags
	of.Register(flag.CommandLine)
	wl := flag.String("workload", "mpeg_play", "workload name (see -list)")
	osName := flag.String("os", "Mach", "operating system: Ultrix or Mach")
	refs := flag.Int("refs", 1_000_000, "references to generate")
	out := flag.String("o", "", "output trace file (default stdout summary only)")
	stat := flag.String("stat", "", "inspect an existing trace file instead of generating")
	skipCorrupt := flag.Bool("skip-corrupt", false, "with -stat: skip corrupt records (counted) instead of aborting")
	list := flag.Bool("list", false, "list workload names")
	flag.Parse()

	if *list {
		for _, n := range workload.Names() {
			fmt.Println(n)
		}
		return 0
	}
	if *stat != "" {
		if err := statFile(*stat, *skipCorrupt); err != nil {
			fmt.Fprintln(os.Stderr, "tracegen:", err)
			return 1
		}
		return 0
	}

	spec, err := workload.ByName(*wl)
	var v osmodel.Variant
	if err == nil {
		v, err = variant(*osName)
	}
	if err == nil && *refs < 1 {
		err = fmt.Errorf("-refs must be at least 1 (got %d)", *refs)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "tracegen:", err)
		return 1
	}

	ctx, stopSignals := lifecycle.Notify(context.Background(), "tracegen", nil)
	defer stopSignals()
	sess, err := of.Start(ctx, obs.Binary{
		Name:   "tracegen",
		Labels: map[string]string{"workload": *wl, "os": *osName},
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	defer sess.Close()
	// The metrics snapshot is still written after an interrupt: it
	// covers exactly the records that made it into the (valid) partial
	// trace file.
	switch err := generate(ctx, spec, v, *refs, *out, sess.Registry, sess.Spans.Lane("main")); {
	case errors.Is(err, context.Canceled):
		return sess.Exit(lifecycle.InterruptExit)
	case err != nil:
		fmt.Fprintln(os.Stderr, "tracegen:", err)
		return sess.Exit(1)
	}
	return sess.Exit(0)
}

func variant(name string) (osmodel.Variant, error) {
	switch name {
	case "Ultrix", "ultrix":
		return osmodel.Ultrix, nil
	case "Mach", "mach":
		return osmodel.Mach, nil
	}
	return 0, fmt.Errorf("unknown OS %q (want Ultrix or Mach)", name)
}

// genChunk is how many references each System.Run slice generates
// between cancellation checks; Run continues from where the previous
// slice stopped, so chunking does not change the generated stream.
const genChunk = 1 << 20

func generate(ctx context.Context, spec osmodel.WorkloadSpec, v osmodel.Variant, refs int, out string, reg *telemetry.Registry, lane *spans.Lane) error {
	var counter trace.Counter
	// The record count publishes pull-style; the per-service-class OS
	// counters come from SetMetrics below.
	reg.CounterFunc("tracegen.references", "trace records generated",
		func() uint64 { return counter.Total })

	sinks := trace.Tee{&counter}
	var f *os.File
	var w *trace.Writer
	var err error
	if out != "" {
		if f, err = os.Create(out); err != nil {
			return err
		}
		defer f.Close() // error paths; the success path checks Close below
		if w, err = trace.NewWriter(f); err != nil {
			return err
		}
		sinks = append(sinks, w)
	}
	sys := osmodel.NewSystem(v, spec)
	sys.SetMetrics(reg)
	var gen osmodel.GenStats
	interrupted := false
	span := lane.Start("generate")
	for done := 0; done < refs; {
		if ctx.Err() != nil {
			interrupted = true
			break
		}
		n := refs - done
		if n > genChunk {
			n = genChunk
		}
		chunk := lane.Start("generate.chunk")
		gen = sys.Run(n, sinks)
		chunk.End()
		done += n
	}
	span.End()
	// Flush even on interrupt so the partial trace file is well-formed
	// and replayable (the header is written up front; records are
	// fixed-width, so any flushed prefix parses cleanly).
	if w != nil {
		if err := w.Flush(); err != nil {
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	if interrupted {
		fmt.Fprintf(os.Stderr, "tracegen: interrupted after %d of %d refs; partial trace is valid\n",
			counter.Total, refs)
		return ctx.Err()
	}
	fmt.Printf("%s under %s: %d refs (%d ifetch, %d load, %d store), %d instrs, %d OS calls\n",
		spec.Name, v, counter.Total,
		counter.ByKind[trace.IFetch], counter.ByKind[trace.Load], counter.ByKind[trace.Store],
		gen.Instrs, gen.Calls)
	fmt.Printf("time split: app %.0f%%, kernel %.0f%%, bsd %.0f%%, x %.0f%%\n",
		gen.AppPct(), gen.KernelPct(), gen.BSDPct(), gen.XPct())
	return nil
}

func statFile(path string, skipCorrupt bool) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	r, err := trace.NewReader(f)
	if err != nil {
		return err
	}
	r.SkipCorrupt = skipCorrupt
	var c trace.Counter
	n, err := r.Drain(&c)
	if err != nil {
		var ce *trace.CorruptError
		if errors.As(err, &ce) {
			return fmt.Errorf("%w (rerun with -skip-corrupt to skip bad records)", ce)
		}
		return err
	}
	fmt.Printf("%s: %d records (%d ifetch, %d load, %d store; %d user, %d kernel)\n",
		path, n, c.ByKind[trace.IFetch], c.ByKind[trace.Load], c.ByKind[trace.Store],
		c.ByMode[trace.User], c.ByMode[trace.Kernel])
	if skipped := r.Corrupt(); skipped > 0 {
		fmt.Printf("  skipped %d corrupt record(s)\n", skipped)
	}
	return nil
}
