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

	"onchip/internal/area"
	"onchip/internal/lifecycle"
	"onchip/internal/machine"
	"onchip/internal/obs"
	"onchip/internal/osmodel"
	"onchip/internal/tapeworm"
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
	os.Exit(run())
}

func run() int {
	var of obs.Flags
	of.Register(flag.CommandLine)
	wl := flag.String("workload", "video_play", "workload name")
	osName := flag.String("os", "Mach", "operating system: Ultrix or Mach")
	refs := flag.Int("refs", 2_000_000, "references to simulate")
	flag.Parse()

	spec, err := workload.ByName(*wl)
	if err == nil && *refs < 1 {
		err = fmt.Errorf("-refs must be at least 1 (got %d)", *refs)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "tapeworm:", err)
		return 1
	}
	var v osmodel.Variant
	switch *osName {
	case "Ultrix", "ultrix":
		v = osmodel.Ultrix
	case "Mach", "mach":
		v = osmodel.Mach
	default:
		fmt.Fprintf(os.Stderr, "tapeworm: unknown OS %q\n", *osName)
		return 1
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
	sess, err := of.Start(ctx, obs.Binary{
		Name:   "tapeworm",
		Labels: map[string]string{"workload": spec.Name, "os": v.String()},
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	defer sess.Close()
	reg := sess.Registry

	hw := tlb.NewManaged(tlb.R2000(), tlb.DefaultCosts())
	hw.Describe(reg, "tapeworm.hw_tlb")
	tw := tapeworm.Attach(hw, configs...)
	instrC := reg.Counter("tapeworm.instructions", "instructions in the measured window")
	reg.Counter("tapeworm.configs", "TLB configurations simulated simultaneously").
		Add(uint64(len(configs)))
	var instrs uint64
	measuring := false
	sink := trace.SinkFunc(func(r trace.Ref) {
		if r.Kind == trace.IFetch {
			instrs++
		}
		hw.Translate(r.Addr, r.ASID)
	})
	sys := osmodel.NewSystem(v, spec)
	lane := sess.Spans.Lane("main")
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
		instrC.Add(instrs)
	}
	if !measuring || instrs == 0 {
		// Interrupted before the measured window opened: the counts so
		// far are the warm-up's, with nothing meaningful to scale or
		// print.
		fmt.Fprintln(os.Stderr, "tapeworm: interrupted during warm-up; no measurements")
		return sess.Exit(lifecycle.InterruptExit)
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
	if interrupted {
		return sess.Exit(lifecycle.InterruptExit)
	}
	return sess.Exit(0)
}
