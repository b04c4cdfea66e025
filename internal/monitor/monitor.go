// Package monitor is the reproduction's analogue of Monster, the
// DAS 9200 logic-analyzer setup the paper attached to a DECstation 3100:
// it runs a workload on a simulated machine and attributes every stall
// cycle to its cause (TLB, I-cache, D-cache, write buffer, other),
// producing the rows of the paper's Tables 3 and 4.
//
// Monster's defining property is that it observes the machine
// non-invasively at the CPU pins; here the observed "pins" are the
// trace.Ref stream between the OS model and the machine timing model.
package monitor

import (
	"context"
	"runtime"
	"sync"

	"onchip/internal/machine"
	"onchip/internal/osmodel"
	"onchip/internal/telemetry"
	"onchip/internal/trace"
)

// Row is one measurement: a workload under one measurement condition.
type Row struct {
	Workload  string
	OS        string
	Breakdown machine.Breakdown
	Gen       osmodel.GenStats
}

// Measure runs the workload under the OS variant for approximately refs
// references on a machine built from cfg, and returns the stall
// breakdown. The config's OtherCPI and server-ASID predicate are filled
// in from the spec and OS model. When cfg.Metrics is set, the machine
// and the OS model register their telemetry there; when cfg.Tracer is
// set, the machine's stall events land in that ring.
func Measure(v osmodel.Variant, spec osmodel.WorkloadSpec, refs int, cfg machine.Config) Row {
	cfg.OtherCPI = spec.OtherCPI
	cfg.IsServerASID = osmodel.IsServerASID
	m := machine.New(cfg)
	sys := osmodel.NewSystem(v, spec)
	sys.SetMetrics(cfg.Metrics)
	gen := sys.Run(refs, m)
	m.FlushMetrics()
	return Row{Workload: spec.Name, OS: v.String(), Breakdown: m.Breakdown(), Gen: gen}
}

// MeasureUserOnly reproduces the paper's "None" measurement condition
// (Table 3, row 1): a pixie-style user-only simulation that sees just
// the application task's user-mode references, missing all
// operating-system activity and all interference from other address
// spaces. The workload still runs under Ultrix; the monitor simply
// cannot see beyond the task, exactly like a pixie-generated trace.
func MeasureUserOnly(spec osmodel.WorkloadSpec, refs int, cfg machine.Config) Row {
	cfg.OtherCPI = spec.OtherCPI
	m := machine.New(cfg)
	sys := osmodel.NewSystem(osmodel.Ultrix, spec)
	filter := trace.Filter{
		Keep: func(r trace.Ref) bool {
			return r.Mode == trace.User && !osmodel.IsServerASID(r.ASID)
		},
		Next: m,
	}
	gen := sys.Run(refs, filter)
	m.FlushMetrics()
	return Row{Workload: spec.Name, OS: "None", Breakdown: m.Breakdown(), Gen: gen}
}

// MeasureSuite runs every workload under the variant and returns the
// rows plus an average row (the paper's Table 4 "Average").
func MeasureSuite(v osmodel.Variant, specs []osmodel.WorkloadSpec, refsEach int, cfg machine.Config) []Row {
	rows, _ := MeasureSuiteContext(context.Background(), v, specs, refsEach, cfg)
	return rows
}

// MeasureSuiteContext is MeasureSuite with cancellation. The rows are
// independent runs, measured concurrently by min(runtime.NumCPU(),
// len(specs)) workers that claim them in spec order and poll the
// context before each claim; a claimed row always finishes. On
// cancellation the rows measured so far -- a prefix of specs -- are
// returned (no average row -- a partial mean would be misleading)
// together with ctx.Err().
//
// Each row records into a registry and tracer of its own when cfg
// carries them, and is folded into cfg's (Registry.Absorb,
// Tracer.Absorb) as soon as it and every row before it have finished,
// so cfg's instruments end exactly as a serial run over them would
// leave them, and a live view of them advances one whole row at a
// time.
func MeasureSuiteContext(ctx context.Context, v osmodel.Variant, specs []osmodel.WorkloadSpec, refsEach int, cfg machine.Config) ([]Row, error) {
	return measureSuite(ctx, v, specs, refsEach, cfg, runtime.NumCPU())
}

// measureSuite is MeasureSuiteContext on at most workers goroutines.
func measureSuite(ctx context.Context, v osmodel.Variant, specs []osmodel.WorkloadSpec, refsEach int, cfg machine.Config, workers int) ([]Row, error) {
	rows := make([]Row, len(specs), len(specs)+1)
	type private struct {
		reg  *telemetry.Registry
		tr   *telemetry.Tracer
		done bool
	}
	own := make([]private, len(specs))
	var (
		mu       sync.Mutex
		claimed  int                 // rows handed to a worker
		folded   int                 // rows folded into cfg's instruments
		free     []*telemetry.Tracer // private rings no unfolded row holds
		panicked any                 // first worker panic, re-raised below
	)
	// claim hands out the next row with its private instruments, or -1
	// once the suite is done, cancelled or failed.
	claim := func() (int, machine.Config) {
		mu.Lock()
		defer mu.Unlock()
		if claimed == len(specs) || panicked != nil || ctx.Err() != nil {
			return -1, cfg
		}
		i, c := claimed, cfg
		claimed++
		if cfg.Metrics != nil {
			own[i].reg = telemetry.NewRegistry()
			c.Metrics = own[i].reg
		}
		if cfg.Tracer != nil {
			if n := len(free); n > 0 {
				own[i].tr, free = free[n-1], free[:n-1]
			} else {
				own[i].tr = telemetry.NewTracer(cfg.Tracer.Depth())
			}
			c.Tracer = own[i].tr
		}
		return i, c
	}
	// finish marks row i measured and folds every row whose
	// predecessors have all finished, in spec order.
	finish := func(i int) {
		mu.Lock()
		defer mu.Unlock()
		own[i].done = true
		for ; folded < claimed && own[folded].done; folded++ {
			p := &own[folded]
			cfg.Metrics.Absorb(p.reg)
			if p.tr != nil {
				cfg.Tracer.Absorb(p.tr)
				p.tr.Reset()
				free = append(free, p.tr)
			}
		}
	}

	var wg sync.WaitGroup
	for range max(1, min(workers, len(specs))) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					mu.Lock()
					if panicked == nil {
						panicked = p
					}
					mu.Unlock()
				}
			}()
			for {
				i, c := claim()
				if i < 0 {
					return
				}
				rows[i] = Measure(v, specs[i], refsEach, c)
				finish(i)
			}
		}()
	}
	wg.Wait()
	if panicked != nil {
		panic(panicked)
	}
	if claimed < len(specs) {
		return rows[:claimed], ctx.Err()
	}

	var avg machine.Breakdown
	for _, r := range rows {
		avg.CPI += r.Breakdown.CPI
		avg.Instrs += r.Breakdown.Instrs
		for c := range r.Breakdown.Comp {
			avg.Comp[c] += r.Breakdown.Comp[c]
		}
	}
	n := float64(len(specs))
	if n > 0 {
		avg.CPI /= n
		for c := range avg.Comp {
			avg.Comp[c] /= n
		}
		rows = append(rows, Row{Workload: "Average", OS: v.String(), Breakdown: avg})
	}
	return rows, nil
}
