// Command dinero is a classic trace-driven memory-system simulator in
// the style of DineroIII/cache2000: it replays a binary trace file
// (produced by cmd/tracegen) against a configurable cache/TLB/write-
// buffer hierarchy and prints miss statistics and the CPI breakdown.
//
// Usage:
//
//	tracegen -workload mpeg_play -os Mach -refs 2000000 -o mpeg.octr
//	dinero -i mpeg.octr -isize 8192 -iline 4 -iassoc 1 \
//	       -dsize 8192 -dline 4 -dassoc 2 -tlb 64 -tlbassoc 0
//
// Associativity 0 means fully associative. -unified merges the two
// caches into one (sized by the -i flags).
//
// Robustness: -skip-corrupt steps over malformed trace records
// (counted and reported) instead of aborting; a read error ends the run
// with exit status 1; and SIGINT/SIGTERM stops the replay at the next
// record boundary, with statistics and metrics covering the replayed
// prefix (exit 130).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"

	"onchip/internal/area"
	"onchip/internal/cache"
	"onchip/internal/lifecycle"
	"onchip/internal/machine"
	"onchip/internal/obs"
	"onchip/internal/tlb"
	"onchip/internal/trace"
	"onchip/internal/wbuf"
)

func main() {
	os.Exit(run())
}

func run() int {
	var of obs.Flags
	of.Register(flag.CommandLine)
	in := flag.String("i", "", "input trace file (required)")
	isize := flag.Int("isize", 8192, "I-cache capacity in bytes")
	iline := flag.Int("iline", 4, "I-cache line size in words")
	iassoc := flag.Int("iassoc", 1, "I-cache associativity (0 = fully associative)")
	dsize := flag.Int("dsize", 8192, "D-cache capacity in bytes")
	dline := flag.Int("dline", 4, "D-cache line size in words")
	dassoc := flag.Int("dassoc", 1, "D-cache associativity (0 = fully associative)")
	dwb := flag.Bool("dwriteback", false, "write-back D-cache (default write-through)")
	unified := flag.Bool("unified", false, "single unified cache (uses the -i flags)")
	tlbEntries := flag.Int("tlb", 64, "TLB entries")
	tlbAssoc := flag.Int("tlbassoc", 0, "TLB associativity (0 = fully associative)")
	wbEntries := flag.Int("wb", 4, "write buffer entries")
	skipCorrupt := flag.Bool("skip-corrupt", false, "skip corrupt trace records (counted and reported) instead of aborting")
	flag.Parse()

	if *in == "" {
		flag.Usage()
		return 2
	}
	cfg := machine.Config{
		ICache:  cache.Config{CacheConfig: area.CacheConfig{CapacityBytes: *isize, LineWords: *iline, Assoc: *iassoc}},
		DCache:  cache.Config{CacheConfig: area.CacheConfig{CapacityBytes: *dsize, LineWords: *dline, Assoc: *dassoc}, WriteBack: *dwb},
		TLB:     tlb.Config{TLBConfig: area.TLBConfig{Entries: *tlbEntries, Assoc: *tlbAssoc}},
		WB:      wbuf.Config{Entries: *wbEntries, WriteCycles: 5},
		Unified: *unified,
	}
	// Check the machine before the session starts, so a bad cache, TLB
	// or write-buffer argument writes no -metrics file.
	m, err := machine.NewE(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dinero:", err)
		return 2
	}

	ctx, stopSignals := lifecycle.Notify(context.Background(), "dinero", nil)
	defer stopSignals()

	f, err := os.Open(*in)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dinero:", err)
		return 1
	}
	defer f.Close()

	r, err := trace.NewReader(f)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dinero:", err)
		return 1
	}
	r.SkipCorrupt = *skipCorrupt

	sess, err := of.Start(ctx, obs.Binary{
		Name:   "dinero",
		Labels: map[string]string{"trace": *in},
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	defer sess.Close()
	if reg := sess.Registry; reg != nil {
		corrupts := reg.Counter("trace.corrupt_records", "corrupt trace records encountered")
		r.OnCorrupt = func(*trace.CorruptError) { corrupts.Inc() }
		cfg.Metrics = reg
		m = machine.New(cfg) // the configuration was checked above
	}
	replaySpan := sess.Spans.Lane("main").Start("trace.replay")
	n, err := r.DrainContext(ctx, m)
	replaySpan.End()
	// Flush even on a failed or interrupted replay: the counters are
	// exact for the prefix of the trace that was replayed.
	m.FlushMetrics()
	interrupted := errors.Is(err, context.Canceled)
	if err != nil && !interrupted {
		var ce *trace.CorruptError
		if errors.As(err, &ce) {
			fmt.Fprintf(os.Stderr, "dinero: %v (rerun with -skip-corrupt to skip bad records)\n", ce)
		} else {
			fmt.Fprintln(os.Stderr, "dinero:", err)
		}
		return sess.Exit(1)
	}
	if interrupted {
		fmt.Fprintf(os.Stderr, "dinero: interrupted; statistics cover the first %d references\n", n)
	}
	if c := r.Corrupt(); c > 0 {
		fmt.Fprintf(os.Stderr, "dinero: skipped %d corrupt record(s)\n", c)
	}

	fmt.Printf("trace: %s (%d references, %d instructions)\n\n", *in, n, m.Instructions())
	printCache := "I-cache"
	if *unified {
		printCache = "unified cache"
	}
	is := m.ICache().Stats()
	fmt.Printf("%-14s %v\n", printCache+":", cfg.ICache.CacheConfig)
	fmt.Printf("  accesses %12d   misses %10d   miss ratio %.4f\n", is.Accesses(), is.Misses(), is.MissRatio())
	if !*unified {
		ds := m.DCache().Stats()
		fmt.Printf("%-14s %v (write-back: %v)\n", "D-cache:", cfg.DCache.CacheConfig, *dwb)
		fmt.Printf("  accesses %12d   misses %10d   miss ratio %.4f   writebacks %d\n",
			ds.Accesses(), ds.Misses(), ds.MissRatio(), ds.Writebacks)
	}
	ts := m.TLB().TLB().Stats()
	svc := m.TLB().Service()
	fmt.Printf("%-14s %v\n", "TLB:", cfg.TLB.TLBConfig)
	fmt.Printf("  probes   %12d   misses %10d   miss ratio %.5f\n", ts.Probes, ts.Misses, ts.MissRatio())
	fmt.Printf("  service: user %d, kernel %d, first-touch %d (%.0f cycles total)\n",
		svc.Count[tlb.UserMiss], svc.Count[tlb.KernelMiss], svc.Count[tlb.OtherMiss], float64(svc.TotalCycles()))
	fmt.Printf("\n%v\n", m.Breakdown())
	fmt.Printf("simulated time at %.2f MHz: %.3f s\n", machine.ClockHz/1e6, m.Breakdown().Seconds())
	if interrupted {
		return sess.Exit(lifecycle.InterruptExit)
	}
	return sess.Exit(0)
}
