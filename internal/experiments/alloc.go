package experiments

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"onchip/internal/area"
	"onchip/internal/cache"
	"onchip/internal/cheetah"
	"onchip/internal/faultinject"
	"onchip/internal/osmodel"
	"onchip/internal/report"
	"onchip/internal/search"
	"onchip/internal/search/missmodel"
	"onchip/internal/spans"
	"onchip/internal/tapeworm"
	"onchip/internal/telemetry"
	"onchip/internal/tlb"
	"onchip/internal/trace"
	"onchip/internal/tracecache"
	"onchip/internal/workload"
)

func init() {
	register("table6", "Table 6: the ten best area allocations under 250,000 rbes (Mach)", table6)
	register("table7", "Table 7: best allocations with caches restricted to 1-/2-way associativity", table7)
}

// buildMeasuredModel sweeps the design space under the given OS
// variant and workload suite with the simulators and assembles the
// measured performance model the search ranks with: single-pass
// stack-simulation sweeps for both cache streams (Cheetah-style for
// the I-stream, the write-policy-aware generalization for the
// D-stream) and Tapeworm for the TLBs, all fed by ONE generation of
// each workload's reference stream through a fused sweep engine (see
// sweepengine.go) instead of the original generate-three-times,
// simulate-each-config-directly arrangement. The miss counts -- and
// therefore the tables -- are bit-identical to the multi-pass form;
// only the work to produce them shrank. Tables 6/7 pass Mach and the
// full Table 2 suite; the advisor service passes whatever (OS,
// workload-mix) a request names.
func buildMeasuredModel(v osmodel.Variant, specs []osmodel.WorkloadSpec, space search.Space, refsEach int, opt Options) (*search.Measured, []string, error) {
	cacheCfgs := space.CacheConfigs()
	tlbCfgs := space.TLBConfigs()
	var tlbConfigs []tlb.Config
	for _, c := range tlbCfgs {
		tlbConfigs = append(tlbConfigs, tlb.Config{TLBConfig: c})
	}
	opt.progressf("sweep: %d workloads x (%d cache + %d TLB) configs, %d refs each",
		len(specs), len(cacheCfgs), len(tlbCfgs), refsEach)

	iMiss := make(map[area.CacheConfig]uint64)
	dMiss := make(map[area.CacheConfig]uint64)
	tlbCycles := make(map[area.TLBConfig]uint64)
	var instrs uint64
	var workloadsDone int
	var failed []string

	// Register the sweep's instruments up front so a live /metrics
	// scrape sees the series (at zero) from the first second of the
	// model-building phase, not only after the first workload lands.
	opt.Metrics.GaugeFunc("sweep.workloads_total", "workloads in the model-building sweep",
		func() float64 { return float64(len(specs)) })
	wlDone := opt.Metrics.Counter("sweep.workloads_done", "workload sweeps completed")
	wlFailed := opt.Metrics.Counter("sweep.workloads_failed", "workload sweeps abandoned after panics")
	wlRetried := opt.Metrics.Counter("sweep.workloads_retried", "workload sweep retries after a panic")
	sweepInstrs := opt.Metrics.Counter("sweep.instructions", "instructions simulated by the I-stream sweeps")
	refsStreamed := opt.Metrics.Counter("sweep.references", "references generated for the model-building sweeps so far")
	stageModel := opt.Metrics.Gauge("sweep.stage_seconds.model",
		"wall-clock seconds generating references and running the fused cache sweeps, summed across workloads")
	stageTapeworm := tapewormStageGauge(opt)

	ctx := opt.ctx()
	// One pool serves every workload sweep. Each engine spreads its
	// (group, set-shard) units across all of the pool's workers, so when
	// most workloads have finished the stragglers absorb the freed
	// workers instead of stranding cores on a per-workload allowance --
	// the old NumCPU/len(specs) split idled most of the machine through
	// the tail of the sweep.
	groups := 2 * cheetah.GroupCount(cacheCfgs)
	workers := sweepWorkers(0)
	shards := opt.Shards
	if shards <= 0 {
		shards = autoShards(workers, groups)
	}
	opt.Metrics.Gauge("sweep.workers",
		"simulation workers in the shared sweep pool").Set(float64(workers))
	opt.Metrics.Gauge("sweep.shards",
		"set shards per simulator group (each group clamps to its set count)").Set(float64(shards))
	pool := newGroupPool(workers, opt.Spans, "sweep")
	defer pool.close()

	// sweepWorkload runs one workload's sweep, reporting any panic
	// (injected or real) as an error so one bad run degrades to a
	// footnote instead of killing the whole sweep.
	//
	// One generation feeds every simulator. The standalone sweeps each
	// consumed a window of the same deterministic stream (the system's
	// RNG never sees the sinks): the cache sweeps saw [0, E) where E is
	// the first iteration boundary at or past refsEach, and tapeworm
	// warmed up on [0, E1) (E1 the first boundary at or past refsEach/3)
	// then measured [E1, E2) (E2 the first boundary at or past
	// E1+refsEach). Since Generate always stops at the first boundary at
	// or past its cumulative target, three phased calls reproduce all
	// three windows from a single stream: phase 1 runs to E1 with both
	// sinks attached, the TLB service counters reset there, phase 2 runs
	// to E with both sinks, and phase 3 runs the tapeworm-only tail to
	// E2. Every simulator sees byte-for-byte the stream it saw before.
	// A warm trace cache short-circuits all of that generation: the
	// recorded stream carries the two phase boundaries as segment marks,
	// so a replay reproduces the exact three windows without running the
	// OS model at all. A corrupt entry is discarded mid-replay -- the
	// simulators have then seen a partial stream, so the whole attempt
	// (fresh engine included) falls back to live generation, which also
	// re-records the entry.
	sweepWorkload := func(spec osmodel.WorkloadSpec) (engine *sweepEngine, results []tapeworm.Result, modelSec, tailSec float64, err error) {
		defer func() {
			if v := recover(); v != nil {
				if site, ok := faultinject.IsInjectedPanic(v); ok {
					err = fmt.Errorf("injected panic at %s", site)
				} else {
					err = fmt.Errorf("panic: %v", v)
				}
			}
		}()
		opt.FaultInjector.MaybePanic("sweep/" + spec.Name)

		// The workload's generation phases record on one lane per
		// workload; the enclosing span also re-levels the lane stack if a
		// panic below leaves phase spans open, so a retry starts clean.
		lane := opt.Spans.Lane("workload/" + spec.Name)
		wl := lane.Start("sweep.workload")
		defer wl.End()

		attempt := func(entry *tracecache.Entry, rec *tracecache.Writer) (engine *sweepEngine, results []tapeworm.Result, modelSec, tailSec float64, err error) {
			engine = newSweepEngine(cacheCfgs, 8, enginePar{pool: pool, shards: shards})
			defer engine.close()
			hw := tlb.NewManaged(tlb.R2000(), tlb.DefaultCosts())
			tw := tapeworm.Attach(hw, tlbConfigs...)
			tsink := &tlbOnly{hw: hw}
			both := meterRefs(trace.Tee{engine, tsink}, refsStreamed)
			tail := meterRefs(trace.Sink(tsink), refsStreamed)
			reset := func() {
				hw.ResetService()
				tw.ResetServices()
				tsink.instrs = 0
			}
			if entry != nil {
				modelSec, tailSec, err = replayPhases(ctx, entry, both, tail, reset, lane)
			} else {
				sys := osmodel.NewSystem(v, spec)
				modelSec, tailSec, err = generatePhases(ctx, sys, refsEach, both, tail, reset, rec, lane)
			}
			flushMeter(both)
			flushMeter(tail)
			stageModel.Add(modelSec)
			stageTapeworm.Add(tailSec)
			if err != nil {
				return nil, nil, modelSec, tailSec, err
			}
			return engine, tw.Results(), modelSec, tailSec, nil
		}

		if opt.TraceCache == nil {
			return attempt(nil, nil)
		}
		key := sweepTraceKey(v, spec, refsEach)
		if entry := opt.TraceCache.OpenEntry(key); entry != nil {
			engine, results, modelSec, tailSec, err = attempt(entry, nil)
			entry.Close()
			if err == nil || !errors.Is(err, tracecache.ErrCorrupt) {
				return
			}
			opt.progressf("sweep: %s cached trace unusable, regenerating: %v", spec.Name, err)
			// Drop the bad entry now (logged with its content address)
			// so no concurrent run trips over it before the
			// regeneration below re-records it.
			opt.TraceCache.Evict(key)
		}
		rec, werr := opt.TraceCache.NewWriter(key)
		if werr != nil {
			opt.progressf("sweep: %s trace recording disabled: %v", spec.Name, werr)
			return attempt(nil, nil)
		}
		defer rec.Abort() // no-op once committed
		engine, results, modelSec, tailSec, err = attempt(nil, rec)
		if err == nil {
			if cerr := rec.Commit(); cerr != nil {
				opt.progressf("sweep: %s trace not cached: %v", spec.Name, cerr)
			}
		}
		return
	}

	// The per-workload sweeps are independent; run them concurrently
	// and merge the counts under a lock. Each simulator is deterministic
	// and the merged sums are order-independent, so parallel runs give
	// bit-identical models.
	var mu sync.Mutex
	var wg sync.WaitGroup
	for _, spec := range specs {
		wg.Add(1)
		go func(spec osmodel.WorkloadSpec) {
			defer wg.Done()
			var engine *sweepEngine
			var results []tapeworm.Result
			var modelSec, tailSec float64
			var err error
			for attempt := 0; ; attempt++ {
				if ctx.Err() != nil {
					return
				}
				engine, results, modelSec, tailSec, err = sweepWorkload(spec)
				if err == nil || errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
					break
				}
				opt.progressf("sweep: %s attempt %d failed: %v", spec.Name, attempt+1, err)
				if attempt >= opt.FaultRetries {
					break
				}
				wlRetried.Inc()
			}
			if ctx.Err() != nil {
				return
			}

			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				failed = append(failed, fmt.Sprintf("%s (%v)", spec.Name, err))
				wlFailed.Inc()
				opt.progressf("sweep: %s FAILED, excluded from the model: %v", spec.Name, err)
				return
			}
			for _, c := range cacheCfgs {
				iMiss[c] += engine.iMisses(c)
				dMiss[c] += engine.dReadMisses(c)
			}
			instrs += engine.instrs
			for i, c := range tlbCfgs {
				s := results[i].Service
				tlbCycles[c] += s.Cycles[tlb.UserMiss] + s.Cycles[tlb.KernelMiss]
			}
			workloadsDone++
			opt.progressf("sweep: %s done (%d/%d workloads) [model %.2fs, tapeworm tail %.2fs]",
				spec.Name, workloadsDone, len(specs), modelSec, tailSec)
			wlDone.Inc()
			sweepInstrs.Add(engine.instrs)
		}(spec)
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, failed, err
	}
	sort.Strings(failed) // deterministic footer regardless of finish order
	if workloadsDone == 0 {
		return nil, failed, fmt.Errorf("every workload sweep failed: %v", failed)
	}

	// The paper's Table 6/7 totals are 1.0 plus the TLB, I-cache and
	// D-cache contributions computed from miss ratios and fixed miss
	// penalties (its best CPI of 1.333 leaves no room for the ~0.3 of
	// write-buffer and interlock stalls of Table 4, so those
	// configuration-independent components are evidently excluded).
	m := search.NewMeasured(1)
	n := float64(instrs)
	for _, c := range cacheCfgs {
		m.IC[c] = float64(iMiss[c]) * float64(cache.MissPenalty(c.LineWords)) / n
		m.DC[c] = float64(dMiss[c]) * float64(cache.MissPenalty(c.LineWords)) / n
	}
	for _, c := range tlbCfgs {
		m.TLB[c] = float64(tlbCycles[c]) / n
	}
	return m, failed, nil
}

// sweepTraceKey content-addresses one workload's generated stream for
// the trace cache. The Model fingerprint folds in every spec
// parameter, so tuning a workload mix re-keys its entries even at an
// unchanged seed.
func sweepTraceKey(v osmodel.Variant, spec osmodel.WorkloadSpec, refs int) tracecache.Key {
	return tracecache.Key{
		Workload: spec.Name,
		OS:       v.String(),
		Seed:     spec.Seed,
		Refs:     refs,
		Model:    fmt.Sprintf("%+v", spec),
	}
}

// generatePhases drives the three-phase generation plan (see the
// window-reproduction comment in buildMeasuredModel) into the sweep
// sinks: phases 1-2 feed both (cache engine + TLB), phase 3 feeds only
// tail. reset runs at the warm-up boundary E1. A non-nil rec records
// the stream with the two phase boundaries as segment marks, so
// replayPhases can reproduce the exact windows later.
func generatePhases(ctx context.Context, sys *osmodel.System, refsEach int, both, tail trace.Sink, reset func(), rec *tracecache.Writer, lane *spans.Lane) (modelSec, tailSec float64, err error) {
	if rec != nil {
		both = trace.Tee{both, rec}
		tail = trace.Tee{tail, rec}
	}
	start := time.Now()
	// Phase 1: to the tapeworm warm-up boundary E1.
	warm := lane.Start("generate.warmup")
	e1 := sys.Generate(refsEach/3, both)
	warm.End()
	if ctx.Err() != nil {
		return time.Since(start).Seconds(), 0, ctx.Err()
	}
	if rec != nil {
		rec.EndSegment()
	}
	reset()
	// Phase 2: to the cache sweeps' boundary E (e1 can already be past
	// it when iterations are long; Generate must only be asked for a
	// positive count).
	measure := lane.Start("generate.measure")
	total := e1
	if refsEach > total {
		total += sys.Generate(refsEach-total, both)
	}
	measure.End()
	if ctx.Err() != nil {
		return time.Since(start).Seconds(), 0, ctx.Err()
	}
	if rec != nil {
		rec.EndSegment()
	}
	modelSec = time.Since(start).Seconds()

	// Phase 3: tapeworm-only tail to its measurement boundary E2.
	start = time.Now()
	tw3 := lane.Start("tapeworm.tail")
	if n := e1 + refsEach - total; n > 0 {
		sys.Generate(n, tail)
	}
	tw3.End()
	return modelSec, time.Since(start).Seconds(), ctx.Err()
}

// replayPhases reproduces the three-phase plan from a cached trace
// entry: one recorded segment per phase, reset at the first boundary.
// Any error matching tracecache.ErrCorrupt means the sinks saw a
// partial stream and the caller must regenerate from scratch.
func replayPhases(ctx context.Context, entry *tracecache.Entry, both, tail trace.Sink, reset func(), lane *spans.Lane) (modelSec, tailSec float64, err error) {
	segment := func(name string, sink trace.Sink, wantLast bool) error {
		span := lane.Start(name)
		_, last, err := entry.ReplaySegment(ctx, sink)
		span.End()
		if err != nil {
			return err
		}
		if last != wantLast {
			return fmt.Errorf("%w: segment layout does not match the sweep's phase plan", tracecache.ErrCorrupt)
		}
		return nil
	}
	start := time.Now()
	if err := segment("replay.warmup", both, false); err != nil {
		return time.Since(start).Seconds(), 0, err
	}
	reset()
	if err := segment("replay.measure", both, false); err != nil {
		return time.Since(start).Seconds(), 0, err
	}
	modelSec = time.Since(start).Seconds()
	start = time.Now()
	err = segment("replay.tail", tail, true)
	return modelSec, time.Since(start).Seconds(), err
}

// meterRefs threads a sweep sink through a batched reference counter:
// roughly one atomic add per 64K references lands in the shared
// counter, so a live /metrics scrape watches the sweep advance at
// negligible hot-path cost. Callers flush (flushMeter) when the stream
// ends so the final partial batch is published too. With metrics off
// (nil counter) the sink passes through untouched.
func meterRefs(next trace.Sink, c *telemetry.Counter) trace.Sink {
	if c == nil {
		return next
	}
	return &refMeter{next: next, batch: trace.Batched(next), c: c}
}

type refMeter struct {
	next  trace.Sink
	batch trace.BatchSink
	c     *telemetry.Counter
	n     uint64 // references seen but not yet published
}

const refMeterBatch = 1 << 16

// Ref implements trace.Sink.
func (m *refMeter) Ref(r trace.Ref) {
	m.next.Ref(r)
	m.bump(1)
}

// Refs implements trace.BatchSink, preserving the generator's batching
// through the meter.
func (m *refMeter) Refs(refs []trace.Ref) {
	m.batch.Refs(refs)
	m.bump(uint64(len(refs)))
}

func (m *refMeter) bump(n uint64) {
	if m.n += n; m.n >= refMeterBatch {
		m.c.Add(m.n)
		m.n = 0
	}
}

// Flush publishes the pending partial batch. Without it the counter
// permanently undercounted by up to refMeterBatch-1 references per
// stream (the batching always held back the tail).
func (m *refMeter) Flush() {
	if m.n > 0 {
		m.c.Add(m.n)
		m.n = 0
	}
}

// flushMeter flushes s when it is a metered sink (with metrics off,
// meterRefs hands the sink back unwrapped and there is nothing to do).
func flushMeter(s trace.Sink) {
	if m, ok := s.(*refMeter); ok {
		m.Flush()
	}
}

// allocTableDepth is how many ranked rows the allocation tables report
// (the paper's Table 6/7 depth). It is also the pruned strategy's
// top-K: the engine only guarantees byte-identity for the first K rows,
// so K and the table depth must agree.
const allocTableDepth = 10

// searchPlan is the one rule for how a space is searched, shared by
// the experiments and the advisor. The measured grid (Table 5 shaped)
// is enumerated exhaustively over the measured model, which also yields
// the full ranking's tail and feasible count. When big is set, the
// search widens to the big preset, searched pruned to the top k with
// off-grid configurations priced by the power-law extension of the
// measured model: an exhaustive scan of its millions of triples costs
// seconds and hundreds of MB for the same top rows.
func searchPlan(big bool, grid search.Space, measured *search.Measured, k int) (search.Space, search.PerfModel, []search.Option) {
	if !big {
		return grid, measured, nil
	}
	space := search.Big()
	space.MaxCacheAssoc = grid.MaxCacheAssoc
	return space, missmodel.FromMeasured(measured), []search.Option{search.WithPruning(k)}
}

func runAllocation(opt Options, grid search.Space, title string, extraNotes []string) (Result, error) {
	big, err := opt.bigSpace()
	if err != nil {
		return Result{}, err
	}
	refs := opt.refs(defaultSweepRefs)
	// Experiments run on the caller's goroutine, so the phase spans
	// share its lane and nest under whatever span the caller has open
	// (the binaries open "experiment.<id>").
	lane := opt.Spans.Lane("main")
	modelSpan := lane.Start("sweep.model")
	measured, failedWorkloads, err := buildMeasuredModel(osmodel.Mach, workload.All(), grid, refs, opt)
	modelSpan.End()
	if err != nil {
		return Result{}, fmt.Errorf("model-building sweep: %w", err)
	}
	space, model, searchOpts := searchPlan(big, grid, measured, allocTableDepth)
	searchOpts = append(searchOpts, search.WithContext(opt.ctx()))
	var pstats search.PruneStats
	if big {
		searchOpts = append(searchOpts, search.WithPruneStats(&pstats))
		opt.progressf("search: big preset, %d of %d triples on the measured grid; off-grid priced by the power-law fit",
			grid.Triples(), space.Triples())
	}
	if opt.Progress != nil || opt.SweepObserver != nil {
		searchOpts = append(searchOpts, search.WithProgress(0, func(p search.Progress) {
			if opt.Progress != nil {
				opt.progressf("search: %s", p)
			}
			if opt.SweepObserver != nil {
				opt.SweepObserver(p)
			}
		}))
	}
	searchStart := time.Now()
	searchSpan := lane.Start("search.enumerate")
	allocs, err := search.EnumerateE(space, area.Default(), area.BudgetRBE, model, searchOpts...)
	searchSpan.End()
	opt.Metrics.Gauge("sweep.stage_seconds.search",
		"wall-clock seconds enumerating and pricing allocations").Add(time.Since(searchStart).Seconds())
	if err != nil {
		return Result{}, fmt.Errorf("enumeration: %w", err)
	}
	priced := opt.Metrics.Counter("search.configs_priced", "TLB x I-cache x D-cache combinations priced")
	if big {
		priced.Add(uint64(pstats.Priced))
		opt.Metrics.Gauge("search.pruned_frontier_triples",
			"triples removed by the per-axis Pareto-K frontier reduction").Set(float64(pstats.PrunedFrontier))
		opt.Metrics.Gauge("search.pruned_total_triples",
			"triples dismissed without pricing (frontier + budget + CPI bound)").Set(float64(pstats.Pruned()))
		opt.Metrics.Gauge("search.bound_budget_triples",
			"triples skipped by the monotone area budget bound").Set(float64(pstats.PrunedBudget))
		opt.Metrics.Gauge("search.bound_cpi_triples",
			"triples skipped by the optimistic CPI lower bound").Set(float64(pstats.PrunedBound))
	} else {
		priced.Add(uint64(space.Triples()))
	}
	opt.Metrics.Counter("search.configs_kept", "allocations within the area budget").Add(uint64(len(allocs)))
	t := report.NewTable(title,
		"Rank", "TLB", "I-cache", "D-cache", "Total rbe", "Total CPI")
	top := search.Top(allocs, allocTableDepth)
	for i, a := range top {
		allocRow(t, i+1, a)
	}
	// Like the paper's Table 7, show how far behind a poorly chosen
	// configuration falls (its example was rank 1529 of the restricted
	// space). The big preset's pruned search materializes only the top
	// of the ranking, so it has no tail row.
	if len(allocs) > 100 {
		tail := len(allocs) * 3 / 4
		allocRow(t, tail+1, allocs[tail])
	}
	var notes []string
	if big {
		notes = append(notes, fmt.Sprintf(
			"pruned search: top %d of %d composed triples; %d priced, %d pruned (%d frontier, %d budget, %d CPI bound)",
			len(allocs), pstats.Composed, pstats.Priced,
			pstats.Pruned(), pstats.PrunedFrontier, pstats.PrunedBudget, pstats.PrunedBound))
		extended := model.(*missmodel.Extended)
		onGrid := 0
		for _, a := range top {
			if extended.Measured(a.TLB, a.ICache, a.DCache) {
				onGrid++
			}
		}
		notes = append(notes, fmt.Sprintf(
			"big preset: %d of the %d reported rows lie on the measured Table 5 grid; the rest are power-law modeled",
			onGrid, len(top)))
	} else {
		notes = append(notes, fmt.Sprintf(
			"%d feasible allocations under the %d-rbe budget", len(allocs), area.BudgetRBE))
	}
	notes = append(notes, extraNotes...)
	if len(failedWorkloads) > 0 {
		notes = append(notes, fmt.Sprintf(
			"DEGRADED: %d workload sweep(s) failed and are excluded from the model: %s",
			len(failedWorkloads), strings.Join(failedWorkloads, "; ")))
	}
	return Result{Text: t.String(), Notes: notes}, nil
}

func allocRow(t *report.Table, rank int, a search.Allocation) {
	t.Row(rank, a.TLB.String(), a.ICache.String(), a.DCache.String(),
		fmt.Sprintf("%.0f", a.AreaRBE), fmt.Sprintf("%.3f", a.CPI))
}

func table6(opt Options) (Result, error) {
	return runAllocation(opt, search.Table5(),
		"Ten best area allocations under 250,000 rbes (Mach measurements)",
		[]string{
			"paper: every top-10 configuration uses a 512-entry TLB; the best uses only ~163k rbes",
			"shape to check: large set-associative TLBs dominate, and the I-cache gets 2-4x the D-cache's capacity",
		})
}

func table7(opt Options) (Result, error) {
	space := search.Table5()
	space.MaxCacheAssoc = 2
	return runAllocation(opt, space,
		"Best allocations with caches restricted to 1- or 2-way associativity",
		[]string{
			"paper: the restriction raises the best CPI from 1.333 to 1.428; TLBs stay large and I-caches 2-4x the D-cache",
		})
}
