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

	"onchip/internal/cache"
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
	// DCache is the D-cache simulator's statistics at the end of the
	// run (the unified array's, on a unified machine).
	DCache cache.Stats
}

// RowSpec declares one row: the labels it is reported under, the
// machine it runs on -- the configuration is used exactly as declared,
// except that its Metrics and Tracer belong to the runner -- and the
// reference source that drives it.
type RowSpec struct {
	Workload, OS string
	Config       machine.Config
	// Source drives the row's references into sink and returns the
	// generation statistics. The runner calls it on the worker that
	// measures the row, so every row builds its own OS model; reg is
	// the row's registry (nil with metrics off).
	Source func(sink trace.Sink, reg *telemetry.Registry) osmodel.GenStats
}

// Workload declares one row of the paper's Table 4: spec under v for
// refs references on a system of its own (adjusted by each setup, OS
// telemetry on), run on cfg charging spec's interlock density to
// application code but not to the OS model's servers.
func Workload(v osmodel.Variant, spec osmodel.WorkloadSpec, refs int, cfg machine.Config, setup ...func(*osmodel.System)) RowSpec {
	cfg.OtherCPI = spec.OtherCPI
	cfg.IsServerASID = osmodel.IsServerASID
	return RowSpec{Workload: spec.Name, OS: v.String(), Config: cfg,
		Source: func(sink trace.Sink, reg *telemetry.Registry) osmodel.GenStats {
			sys := osmodel.NewSystem(v, spec)
			for _, f := range setup {
				f(sys)
			}
			sys.SetMetrics(reg)
			return sys.Run(refs, sink)
		}}
}

// Multi declares a row that time-slices the workloads of the
// multiprogrammed system build returns, for refs references in all, on
// cfg as declared, OS telemetry on. It reports no generation
// statistics.
func Multi(label string, cfg machine.Config, refs int, build func() *osmodel.Multi) RowSpec {
	return RowSpec{Workload: label, Config: cfg, Source: func(sink trace.Sink, reg *telemetry.Registry) osmodel.GenStats {
		m := build()
		m.SetMetrics(reg)
		m.Generate(refs, sink)
		return osmodel.GenStats{}
	}}
}

// Suite declares the Workload rows of specs under v on cfg, in order.
func Suite(v osmodel.Variant, specs []osmodel.WorkloadSpec, refs int, cfg machine.Config) []RowSpec {
	decl := make([]RowSpec, len(specs))
	for i, spec := range specs {
		decl[i] = Workload(v, spec, refs, cfg)
	}
	return decl
}

// Conditions declares the paper's three measurement conditions for spec
// on cfg (Table 3): a pixie-style user-only simulation ("None"), then
// Monster-style monitoring under Ultrix and under Mach. The user-only
// row sees just the application task's user-mode references of an
// Ultrix run, missing all OS activity and all interference from other
// address spaces, like a pixie-generated trace; it records no OS-model
// telemetry.
func Conditions(spec osmodel.WorkloadSpec, refs int, cfg machine.Config) []RowSpec {
	none := cfg
	none.OtherCPI = spec.OtherCPI
	userOnly := func(sink trace.Sink, _ *telemetry.Registry) osmodel.GenStats {
		return osmodel.NewSystem(osmodel.Ultrix, spec).Run(refs, trace.Filter{
			Keep: func(r trace.Ref) bool {
				return r.Mode == trace.User && !osmodel.IsServerASID(r.ASID)
			},
			Next: sink,
		})
	}
	return []RowSpec{
		{Workload: spec.Name, OS: "None", Config: none, Source: userOnly},
		Workload(osmodel.Ultrix, spec, refs, cfg),
		Workload(osmodel.Mach, spec, refs, cfg),
	}
}

// measure runs one row on the calling goroutine, recording into its
// configuration's Metrics and Tracer.
func measure(r RowSpec) Row {
	m := machine.New(r.Config)
	gen := r.Source(m, r.Config.Metrics)
	m.FlushMetrics()
	return Row{Workload: r.Workload, OS: r.OS, Breakdown: m.Breakdown(), Gen: gen, DCache: m.DCache().Stats()}
}

// Measure runs the row Workload declares on the calling goroutine,
// recording the machine's and the OS model's telemetry into cfg.Metrics
// and the stall events into cfg.Tracer when they are set.
func Measure(v osmodel.Variant, spec osmodel.WorkloadSpec, refs int, cfg machine.Config) Row {
	return measure(Workload(v, spec, refs, cfg))
}

// Average is the paper's Table 4 "Average" row over rows, which must not
// be empty: the mean breakdown, summed in row order (instructions are
// summed, not averaged), under the first row's OS.
func Average(rows []Row) Row {
	var avg machine.Breakdown
	for _, r := range rows {
		avg.CPI += r.Breakdown.CPI
		avg.Instrs += r.Breakdown.Instrs
		for c := range r.Breakdown.Comp {
			avg.Comp[c] += r.Breakdown.Comp[c]
		}
	}
	n := float64(len(rows))
	avg.CPI /= n
	for c := range avg.Comp {
		avg.Comp[c] /= n
	}
	return Row{Workload: "Average", OS: rows[0].OS, Breakdown: avg}
}

// MeasureRows measures the declared rows, independent runs, on
// min(runtime.NumCPU(), len(rows)) workers that claim them in order and
// poll the context before each claim; a claimed row always finishes.
// It returns the rows in order, or on cancellation the prefix measured
// so far with ctx.Err(). A row's panic is re-raised on the caller's
// goroutine.
//
// With reg (tr) set, each row records into a registry (ring) of its own,
// folded into reg (tr) by Registry.Absorb (Tracer.Absorb) once it and
// every row before it have finished, so they end exactly as a serial
// run would leave them.
func MeasureRows(ctx context.Context, rows []RowSpec, reg *telemetry.Registry, tr *telemetry.Tracer) ([]Row, error) {
	return measureRows(ctx, rows, reg, tr, runtime.NumCPU())
}

// measureRows is MeasureRows on at most workers goroutines.
func measureRows(ctx context.Context, decl []RowSpec, reg *telemetry.Registry, tr *telemetry.Tracer, workers int) ([]Row, error) {
	rows := make([]Row, len(decl))
	type private struct {
		reg  *telemetry.Registry
		tr   *telemetry.Tracer
		done bool
	}
	own := make([]private, len(decl))
	var (
		mu       sync.Mutex
		claimed  int                 // rows handed to a worker
		folded   int                 // rows folded into reg and tr
		free     []*telemetry.Tracer // private rings no unfolded row holds
		panicked any                 // first worker panic, re-raised below
	)
	// claim hands out the next row with its private instruments, or -1
	// once the rows are done, cancelled or failed.
	claim := func() (int, RowSpec) {
		mu.Lock()
		defer mu.Unlock()
		if claimed == len(decl) || panicked != nil || ctx.Err() != nil {
			return -1, RowSpec{}
		}
		i := claimed
		r := decl[i]
		claimed++
		r.Config.Metrics, r.Config.Tracer = nil, nil
		if reg != nil {
			own[i].reg = telemetry.NewRegistry()
			r.Config.Metrics = own[i].reg
		}
		if tr != nil {
			if n := len(free); n > 0 {
				own[i].tr, free = free[n-1], free[:n-1]
			} else {
				own[i].tr = telemetry.NewTracer(tr.Depth())
			}
			r.Config.Tracer = own[i].tr
		}
		return i, r
	}
	// finish marks row i measured and folds every row whose
	// predecessors have all finished, in order.
	finish := func(i int) {
		mu.Lock()
		defer mu.Unlock()
		own[i].done = true
		for ; folded < claimed && own[folded].done; folded++ {
			p := &own[folded]
			reg.Absorb(p.reg)
			if p.tr != nil {
				tr.Absorb(p.tr)
				p.tr.Reset()
				free = append(free, p.tr)
			}
		}
	}

	var wg sync.WaitGroup
	for range max(1, min(workers, len(decl))) {
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
				i, r := claim()
				if i < 0 {
					return
				}
				rows[i] = measure(r)
				finish(i)
			}
		}()
	}
	wg.Wait()
	if panicked != nil {
		panic(panicked)
	}
	if claimed < len(decl) {
		return rows[:claimed], ctx.Err()
	}
	return rows, nil
}
