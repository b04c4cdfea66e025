package experiments

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"onchip/internal/area"
	"onchip/internal/cache"
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
//
// Any workload sweep that fails -- a returned error, or a panic
// recovered on its slot's goroutine -- fails the whole model: the
// error names the first failed workload in spec order, so the message
// does not depend on which sweep finished first.
func buildMeasuredModel(v osmodel.Variant, specs []osmodel.WorkloadSpec, space search.Space, refsEach int, opt Options) (*search.Measured, error) {
	cacheCfgs := space.CacheConfigs()
	plan := sweepPlan{icache: cacheCfgs, dcache: cacheCfgs, tlbs: space.TLBConfigs()}
	recs, err := sweepSuite(v, specs, plan, refsEach, opt, runtime.NumCPU())
	if err != nil {
		return nil, err
	}
	tot := plan.sum(recs)
	// The paper's Table 6/7 totals are 1.0 plus the TLB, I-cache and
	// D-cache contributions computed from miss ratios and fixed miss
	// penalties (its best CPI of 1.333 leaves no room for the ~0.3 of
	// write-buffer and interlock stalls of Table 4, so those
	// configuration-independent components are evidently excluded).
	m := search.NewMeasured(1)
	n := float64(tot.instrs)
	for i, c := range cacheCfgs {
		penalty := float64(cache.MissPenalty(c.LineWords))
		m.IC[c] = float64(tot.iMiss[i]) * penalty / n
		m.DC[c] = float64(tot.dMiss[i]) * penalty / n
	}
	for i, c := range plan.tlbs {
		s := tot.tlb[i].Service
		m.TLB[c] = float64(s.Cycles[tlb.UserMiss]+s.Cycles[tlb.KernelMiss]) / n
	}
	return m, nil
}

// sweepPlan is what a suite sweep prices: I-stream and D-stream cache
// configurations and TLBs. Any of the three lists may be empty; the
// sweep feeds only the simulators its plan prices.
type sweepPlan struct {
	icache, dcache []area.CacheConfig
	tlbs           []area.TLBConfig
}

// workloadSweep is one workload's sweep record.
type workloadSweep struct {
	// iMiss and dMiss are the I-stream misses and D-stream read misses
	// of each configuration, indexed like the plan's icache and dcache.
	iMiss, dMiss []uint64
	// tlb is the Tapeworm result of each of the plan's TLBs.
	tlb []tapeworm.Result
	// instrs and loads count the instructions and cached loads of the
	// cache window; loads is zero when the plan prices no D-cache.
	instrs, loads uint64
	// tlbInstrs counts the instructions of Tapeworm's measured window.
	tlbInstrs uint64
}

// sum adds the records of a sweep over the plan into suite totals.
// Every count is a uint64, so the totals do not depend on the order of
// the records.
func (p sweepPlan) sum(recs []workloadSweep) workloadSweep {
	tot := workloadSweep{
		iMiss: make([]uint64, len(p.icache)),
		dMiss: make([]uint64, len(p.dcache)),
		tlb:   make([]tapeworm.Result, len(p.tlbs)),
	}
	for _, r := range recs {
		for i, n := range r.iMiss {
			tot.iMiss[i] += n
		}
		for i, n := range r.dMiss {
			tot.dMiss[i] += n
		}
		for i, res := range r.tlb {
			tot.tlb[i].Config = res.Config
			s := &tot.tlb[i].Service
			for k := range s.Cycles {
				s.Count[k] += res.Service.Count[k]
				s.Cycles[k] += res.Service.Cycles[k]
			}
		}
		tot.instrs += r.instrs
		tot.loads += r.loads
		tot.tlbInstrs += r.tlbInstrs
	}
	return tot
}

// sweepSuite prices the plan against each workload's reference stream
// over a pool of the given width and returns one record per workload,
// in spec order. At most min(workers, workloads) workload sweeps run
// at once, each on a slot that owns one engine and resets it between
// workloads; workers <= 0 sweeps the workloads one at a time on a
// serial engine. It is the one path by which an experiment prices a
// generated stream against caches or TLBs.
func sweepSuite(v osmodel.Variant, specs []osmodel.WorkloadSpec, plan sweepPlan, refsEach int, opt Options, workers int) ([]workloadSweep, error) {
	caches := len(plan.icache)+len(plan.dcache) > 0
	var tlbConfigs []tlb.Config
	for _, c := range plan.tlbs {
		tlbConfigs = append(tlbConfigs, tlb.Config{TLBConfig: c})
	}
	opt.progressf("sweep: %d workloads x (%d I-cache + %d D-cache + %d TLB) configs, %d refs each",
		len(specs), len(plan.icache), len(plan.dcache), len(plan.tlbs), refsEach)

	recs := make([]workloadSweep, len(specs))
	var workloadsDone int

	opt.Metrics.GaugeFunc("sweep.workloads_total", "workloads in the model-building sweep",
		func() float64 { return float64(len(specs)) })
	wlDone := opt.Metrics.Counter("sweep.workloads_done", "workload sweeps completed")
	sweepInstrs := opt.Metrics.Counter("sweep.instructions", "instructions simulated by the I-stream sweeps")

	ctx := opt.ctx()
	// One pool serves every workload sweep. Each engine spreads its
	// simulator units across all of the pool's workers, so when most
	// workloads have finished the stragglers absorb the freed workers
	// instead of stranding cores on a per-workload allowance -- the old
	// NumCPU/len(specs) split idled most of the machine through the tail
	// of the sweep. More workload sweeps than workers add no throughput,
	// only simulator state, so min(workers, workloads) slots each own
	// one engine and take the workloads in spec order. A plan without
	// caches runs no engine, so it needs no pool.
	width := 0
	if caches {
		width = max(workers, 0)
	}
	opt.Metrics.In(telemetry.Arrangement).Gauge("sweep.workers",
		"simulation workers in the shared sweep pool").Set(float64(width))
	var pool *groupPool
	if width > 0 {
		pool = newGroupPool(width, opt.Spans, "sweep")
		defer pool.close()
	}
	slots := max(1, min(workers, len(specs)))

	// sweepWorkload runs one workload's sweep on a slot's engine,
	// reporting a panic as an error: it runs on the slot's goroutine,
	// where an unrecovered panic would take down the process -- and
	// with it a serving advisor, whose job-level recover sits on a
	// different goroutine.
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
	// A plan without TLBs stops after phase 2, the end of the cache
	// window.
	//
	// A warm trace cache short-circuits all of that generation: the
	// recorded stream carries the two phase boundaries as segment marks,
	// so a replay reproduces the exact three windows without running the
	// OS model at all. A corrupt entry is discarded mid-replay -- the
	// simulators have then seen a partial stream, so the whole attempt
	// (engine reset included) falls back to live generation, which also
	// re-records the entry. Only plans that price TLBs use the cache: an
	// entry always holds the three phases.
	sweepWorkload := func(spec osmodel.WorkloadSpec, slot **sweepEngine) (rec workloadSweep, err error) {
		defer func() {
			if v := recover(); v != nil {
				err = fmt.Errorf("panic: %v", v)
			}
		}()

		// The workload's generation phases record on one lane per
		// workload; the enclosing span also re-levels the lane stack if a
		// panic below leaves phase spans open.
		lane := opt.Spans.Lane("workload/" + spec.Name)
		wl := lane.Start("sweep.workload")
		defer wl.End()

		attempt := func(entry *tracecache.Entry, w *tracecache.Writer) (rec workloadSweep, err error) {
			// The slot's engine is built on first use, inside this
			// workload's recover like any other failure, and reset before
			// every later stream: the next workload's, or the
			// regeneration after a corrupt replay.
			var sinks trace.Tee
			var engine *sweepEngine
			if caches {
				if *slot == nil {
					*slot = newSweepEngine(plan.icache, plan.dcache, pool)
				} else {
					(*slot).reset()
				}
				engine = *slot
				sinks = append(sinks, engine)
			}
			var tw *tapeworm.Tapeworm
			var tsink *tlbOnly
			var tail trace.Sink
			reset := func() {}
			if len(tlbConfigs) > 0 {
				hw := tlb.NewManaged(tlb.R2000(), tlb.DefaultCosts())
				tw = tapeworm.Attach(hw, tlbConfigs...)
				tsink = &tlbOnly{hw: hw}
				sinks = append(sinks, tsink)
				tail = tsink
				reset = func() {
					hw.ResetService()
					tw.ResetServices()
					tsink.instrs = 0
				}
			}
			if entry != nil {
				err = replayPhases(ctx, entry, sinks, tail, reset, lane)
			} else {
				err = generatePhases(ctx, osmodel.NewSystem(v, spec), refsEach, sinks, tail, reset, w, lane)
			}
			if err != nil {
				return rec, err
			}
			if engine != nil {
				engine.flush()
				rec.iMiss = make([]uint64, len(plan.icache))
				for i, c := range plan.icache {
					rec.iMiss[i] = engine.iMisses(c)
				}
				rec.dMiss = make([]uint64, len(plan.dcache))
				for i, c := range plan.dcache {
					rec.dMiss[i] = engine.dReadMisses(c)
				}
				rec.instrs, rec.loads = engine.instrs, engine.d.Reads()
			}
			if tw != nil {
				rec.tlb, rec.tlbInstrs = tw.Results(), tsink.instrs
			}
			return rec, nil
		}

		if opt.TraceCache == nil || len(tlbConfigs) == 0 {
			return attempt(nil, nil)
		}
		key := sweepTraceKey(v, spec, refsEach)
		if entry := opt.TraceCache.OpenEntry(key); entry != nil {
			rec, err = attempt(entry, nil)
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
		w, werr := opt.TraceCache.NewWriter(key)
		if werr != nil {
			opt.progressf("sweep: %s trace recording disabled: %v", spec.Name, werr)
			return attempt(nil, nil)
		}
		defer w.Abort() // no-op once committed
		rec, err = attempt(nil, w)
		if err == nil {
			if cerr := w.Commit(); cerr != nil {
				opt.progressf("sweep: %s trace not cached: %v", spec.Name, cerr)
			}
		}
		return
	}

	// The per-workload sweeps are independent; the slots run them
	// concurrently, each record landing in its workload's place. Each
	// simulator is deterministic, so parallel runs give bit-identical
	// records.
	var mu sync.Mutex
	var wg sync.WaitGroup
	var claimed atomic.Int64
	errs := make([]error, len(specs))
	for range slots {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var engine *sweepEngine
			for ctx.Err() == nil {
				w := int(claimed.Add(1) - 1)
				if w >= len(specs) {
					return
				}
				spec := specs[w]
				rec, err := sweepWorkload(spec, &engine)
				if err != nil {
					errs[w] = err
					opt.progressf("sweep: %s failed: %v", spec.Name, err)
					continue
				}
				recs[w] = rec

				mu.Lock()
				workloadsDone++
				opt.progressf("sweep: %s done (%d/%d workloads)", spec.Name, workloadsDone, len(specs))
				wlDone.Inc()
				sweepInstrs.Add(rec.instrs)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	for w, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("workload %s: %w", specs[w].Name, err)
		}
	}
	return recs, nil
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
// window-reproduction comment in sweepSuite) into the sweep sinks:
// phases 1-2 feed both (cache engine and TLB, or either alone), phase
// 3 feeds only tail, and a nil tail (no TLB) skips it. reset runs at
// the warm-up boundary E1. A non-nil rec records the stream with the
// two phase boundaries as segment marks, so replayPhases can reproduce
// the exact windows later.
func generatePhases(ctx context.Context, sys *osmodel.System, refsEach int, both, tail trace.Sink, reset func(), rec *tracecache.Writer, lane *spans.Lane) error {
	if rec != nil {
		both = trace.Tee{both, rec}
		tail = trace.Tee{tail, rec}
	}
	// Phase 1: to the tapeworm warm-up boundary E1.
	warm := lane.Start("generate.warmup")
	e1 := sys.Generate(refsEach/3, both)
	warm.End()
	if ctx.Err() != nil {
		return ctx.Err()
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
		return ctx.Err()
	}
	if rec != nil {
		rec.EndSegment()
	}

	if tail == nil {
		return nil
	}

	// Phase 3: tapeworm-only tail to its measurement boundary E2.
	tw3 := lane.Start("tapeworm.tail")
	if n := e1 + refsEach - total; n > 0 {
		sys.Generate(n, tail)
	}
	tw3.End()
	return ctx.Err()
}

// replayPhases reproduces the three-phase plan from a cached trace
// entry: one recorded segment per phase, reset at the first boundary.
// Any error matching tracecache.ErrCorrupt means the sinks saw a
// partial stream and the caller must regenerate from scratch.
func replayPhases(ctx context.Context, entry *tracecache.Entry, both, tail trace.Sink, reset func(), lane *spans.Lane) error {
	segment := func(name string, sink trace.Sink, wantLast bool) error {
		span := lane.Start(name)
		_, last, err := entry.ReplaySegment(ctx, sink)
		span.End()
		if err != nil {
			return err
		}
		if last != wantLast {
			return entry.Reject("segment layout does not match the sweep's phase plan")
		}
		return nil
	}
	if err := segment("replay.warmup", both, false); err != nil {
		return err
	}
	reset()
	if err := segment("replay.measure", both, false); err != nil {
		return err
	}
	return segment("replay.tail", tail, true)
}

// allocTableDepth is how many ranked rows the allocation tables report
// (the paper's Table 6/7 depth): search.Rank's k, and with it the
// pruned strategy's top-K.
const allocTableDepth = 10

// searchPlan is the one rule for how a space is searched, shared by
// the experiments and the advisor. The measured grid (Table 5 shaped)
// is ranked exhaustively over the measured model, which also yields
// the feasible count and any row of the full ranking. When big is set, the
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
	measured, err := buildMeasuredModel(osmodel.Mach, workload.All(), grid, refs, opt)
	modelSpan.End()
	if err != nil {
		return Result{}, fmt.Errorf("model-building sweep: %w", err)
	}
	space, model, searchOpts := searchPlan(big, grid, measured, allocTableDepth)
	searchOpts = append(searchOpts, search.WithContext(opt.ctx()))
	var pstats search.PruneStats
	if big {
		searchOpts = append(searchOpts, search.WithPruneStats(&pstats))
	}
	searchSpan := lane.Start("search.enumerate")
	ranking, err := search.Rank(space, area.Default(), area.BudgetRBE, model, allocTableDepth, searchOpts...)
	// Like the paper's Table 7, show how far behind a poorly chosen
	// configuration falls (its example was rank 1529 of the restricted
	// space). The big preset's pruned search ranks only the top, so it
	// has no tail row.
	tailRank, tail := 0, search.Allocation{}
	if err == nil && ranking.Feasible > 100 {
		tailRank = ranking.Feasible*3/4 + 1
		tail, err = ranking.At(tailRank - 1)
	}
	searchSpan.End()
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
	opt.Metrics.Counter("search.configs_kept", "allocations within the area budget").Add(uint64(ranking.Feasible))
	t := report.NewTable(title,
		"Rank", "TLB", "I-cache", "D-cache", "Total rbe", "Total CPI")
	top := ranking.Top
	for i, a := range top {
		allocRow(t, i+1, a)
	}
	if tailRank > 0 {
		allocRow(t, tailRank, tail)
	}
	var notes []string
	if big {
		notes = append(notes, fmt.Sprintf(
			"pruned search: top %d of %d composed triples; %d priced, %d pruned (%d frontier, %d budget, %d CPI bound)",
			len(top), pstats.Composed, pstats.Priced,
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
			"%d feasible allocations under the %d-rbe budget", ranking.Feasible, area.BudgetRBE))
	}
	notes = append(notes, extraNotes...)
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
