// Command tapeworm runs kernel-based TLB simulation: one workload run
// drives any number of alternative TLB configurations simultaneously
// from the hardware TLB's miss events, the method behind the paper's
// Figures 7 and 8.
//
// Usage:
//
//	tapeworm -workload video_play -os Mach -refs 2000000
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"onchip/internal/area"
	"onchip/internal/lifecycle"
	"onchip/internal/machine"
	"onchip/internal/obs"
	"onchip/internal/osmodel"
	"onchip/internal/spans"
	"onchip/internal/tapeworm"
	"onchip/internal/telemetry"
	"onchip/internal/tlb"
	"onchip/internal/trace"
	"onchip/internal/workload"
)

// genChunk is how many references each System.Generate slice produces
// between cancellation checks; generation resumes where the previous
// slice stopped, so chunking does not change the reference stream.
const genChunk = 1 << 20

// generateCtx runs sys.Generate in genChunk slices, polling ctx between
// slices. It reports whether the full n references were generated.
func generateCtx(ctx context.Context, sys *osmodel.System, n int, sink trace.Sink) bool {
	for done := 0; done < n; {
		if ctx.Err() != nil {
			return false
		}
		c := n - done
		if c > genChunk {
			c = genChunk
		}
		sys.Generate(c, sink)
		done += c
	}
	return true
}

func main() {
	wl := flag.String("workload", "video_play", "workload name")
	osName := flag.String("os", "Mach", "operating system: Ultrix or Mach")
	refs := flag.Int("refs", 2_000_000, "references to simulate")
	metricsFile := flag.String("metrics", "", "write run manifest and metrics as JSONL to this file")
	serveAddr := flag.String("serve", "", "serve live observability endpoints on this address (e.g. :6060)")
	spansFile := flag.String("spans", "", "write execution spans as Chrome trace-event JSON to this file (Perfetto-loadable)")
	profSpan := flag.String("prof-span", "", "capture a CPU profile bracketed by the first span with this name (e.g. generate.measure)")
	profSpanOut := flag.String("prof-span-out", "", "CPU profile output path for -prof-span (default span_<name>.pprof)")
	flag.Parse()

	spec, err := workload.ByName(*wl)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tapeworm:", err)
		os.Exit(1)
	}
	var v osmodel.Variant
	switch *osName {
	case "Ultrix", "ultrix":
		v = osmodel.Ultrix
	case "Mach", "mach":
		v = osmodel.Mach
	default:
		fmt.Fprintf(os.Stderr, "tapeworm: unknown OS %q\n", *osName)
		os.Exit(1)
	}

	// The Table 5 TLB design space plus the small fully-associative
	// sizes of Figure 7.
	var configs []tlb.Config
	for _, n := range []int{32, 64, 128, 256, 512} {
		configs = append(configs, tlb.Config{TLBConfig: area.TLBConfig{Entries: n, Assoc: area.FullyAssociative}})
	}
	for _, a := range []int{1, 2, 4, 8} {
		for _, n := range []int{64, 128, 256, 512} {
			configs = append(configs, tlb.Config{TLBConfig: area.TLBConfig{Entries: n, Assoc: a}})
		}
	}

	ctx, stopSignals := lifecycle.Notify(context.Background(), "tapeworm", nil)
	defer stopSignals()

	start := time.Now()
	hw := tlb.NewManaged(tlb.R2000(), tlb.DefaultCosts())
	var reg *telemetry.Registry
	if *metricsFile != "" || *serveAddr != "" {
		reg = telemetry.NewRegistry()
		hw.Describe(reg, "tapeworm.hw_tlb")
	}
	spanTr, drainSpans, err := spans.Setup(ctx, "tapeworm", *spansFile, *profSpan, *profSpanOut, reg)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer drainSpans()
	man := &telemetry.Manifest{
		Command:   "tapeworm",
		Args:      os.Args[1:],
		Start:     start.Format(time.RFC3339),
		GoVersion: runtime.Version(),
		Labels:    map[string]string{"workload": spec.Name, "os": v.String()},
	}
	if *serveAddr != "" {
		srv := obs.New(obs.Config{Registry: reg, Manifest: man, Spans: spanTr})
		bound, err := srv.Start(*serveAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "tapeworm: serve:", err)
			os.Exit(1)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "tapeworm: observability plane on http://%s/\n", bound)
	}
	tw := tapeworm.Attach(hw, configs...)
	instrC := reg.Counter("tapeworm.instructions", "instructions in the measured window")
	reg.Counter("tapeworm.configs", "TLB configurations simulated simultaneously").
		Add(uint64(len(configs)))
	var instrs uint64
	measuring := false
	sink := trace.SinkFunc(func(r trace.Ref) {
		if r.Kind == trace.IFetch {
			instrs++
			if measuring {
				instrC.Inc() // live view of the measured window only
			}
		}
		hw.Translate(r.Addr, r.ASID)
	})
	sys := osmodel.NewSystem(v, spec)
	lane := spanTr.Lane("main")
	warm := lane.Start("generate.warmup")
	interrupted := !generateCtx(ctx, sys, *refs/3, sink) // warm-up
	warm.End()
	if !interrupted {
		hw.ResetService()
		tw.ResetServices()
		instrs = 0
		measuring = true
		meas := lane.Start("generate.measure")
		interrupted = !generateCtx(ctx, sys, *refs, sink)
		meas.End()
	}
	if instrs == 0 {
		// Interrupted before the measured window opened: there is
		// nothing meaningful to scale or print.
		fmt.Fprintln(os.Stderr, "tapeworm: interrupted during warm-up; no measurements")
		drainSpans() // os.Exit skips defers; the trace still lands
		os.Exit(lifecycle.InterruptExit)
	}
	if interrupted {
		fmt.Fprintf(os.Stderr, "tapeworm: interrupted; results below cover the %d instructions measured so far\n", instrs)
	}

	scale := float64(spec.FullRunInstrs) / float64(instrs)
	fmt.Printf("%s under %v: %d instructions simulated, scaled x%.0f to the full run\n\n",
		spec.Name, v, instrs, scale)
	fmt.Printf("%-28s %10s %10s %10s %12s\n", "TLB", "user", "kernel", "other", "seconds")
	for _, r := range tw.Results() {
		secs := float64(r.Service.TotalCycles()) * scale / machine.ClockHz
		fmt.Printf("%-28s %10d %10d %10d %12.2f\n",
			r.Config.TLBConfig.String(),
			r.Service.Count[tlb.UserMiss], r.Service.Count[tlb.KernelMiss], r.Service.Count[tlb.OtherMiss],
			secs)
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
			fmt.Fprintln(os.Stderr, "tapeworm:", err)
			os.Exit(1)
		}
	}
	if interrupted {
		drainSpans() // os.Exit skips defers; the trace still lands
		os.Exit(lifecycle.InterruptExit)
	}
}
