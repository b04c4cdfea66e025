package experiments

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"onchip/internal/area"
	"onchip/internal/cache"
	"onchip/internal/osmodel"
	"onchip/internal/search"
	"onchip/internal/spans"
	"onchip/internal/tapeworm"
	"onchip/internal/telemetry"
	"onchip/internal/tlb"
	"onchip/internal/trace"
	"onchip/internal/tracecache"
	"onchip/internal/vm"
	"onchip/internal/workload"
)

// directICacheSweep is the I-stream cross-validation oracle: one LRU
// cache simulated directly per configuration over the instruction
// fetches.
type directICacheSweep struct {
	caches []*cache.Cache
	instrs uint64
}

func newDirectICacheSweep(configs []area.CacheConfig) *directICacheSweep {
	s := &directICacheSweep{}
	for _, c := range configs {
		s.caches = append(s.caches, cache.New(cache.Config{CacheConfig: c}))
	}
	return s
}

func (s *directICacheSweep) Ref(r trace.Ref) {
	if r.Kind != trace.IFetch {
		return
	}
	s.instrs++
	key := vm.CacheKey(r.Addr, r.ASID)
	for _, c := range s.caches {
		c.Access(key, false)
	}
}

// directDCacheSweep is the retired hot-path D-stream sweep, kept as the
// cross-validation oracle: one write-through, no-write-allocate LRU
// cache simulated directly per configuration.
type directDCacheSweep struct {
	configs []area.CacheConfig
	caches  []*cache.Cache
}

func newDirectDCacheSweep(configs []area.CacheConfig) *directDCacheSweep {
	s := &directDCacheSweep{configs: configs}
	for _, c := range configs {
		s.caches = append(s.caches, cache.New(cache.Config{CacheConfig: c}))
	}
	return s
}

func (s *directDCacheSweep) Ref(r trace.Ref) {
	if r.Kind == trace.IFetch || vm.SegmentOf(r.Addr) == vm.Kseg1 {
		return
	}
	key := vm.CacheKey(r.Addr, r.ASID)
	write := r.Kind == trace.Store
	for _, c := range s.caches {
		c.Access(key, write)
	}
}

// TestFusedSweepMatchesLegacyPasses is the end-to-end equivalence proof
// for the fused sweep: one generation through sweepSuite's engine and
// TLB sink, with the phased warm-up/measure plan, must reproduce
// exactly what three independent generations produce -- one direct
// cache simulation per configuration on each stream, delivered one
// reference at a time, and Tapeworm warmed up on a third of the
// references and then measured on the next refsEach.
func TestFusedSweepMatchesLegacyPasses(t *testing.T) {
	const refsEach = 90_000
	spec := workload.VideoPlay()
	var plan sweepPlan
	for _, size := range []int{2 << 10, 8 << 10, 32 << 10} {
		for _, line := range []int{4, 16} {
			for _, assoc := range []int{1, 2, 8} {
				plan.icache = append(plan.icache, area.CacheConfig{CapacityBytes: size, LineWords: line, Assoc: assoc})
			}
		}
	}
	plan.dcache = plan.icache
	plan.tlbs = []area.TLBConfig{{Entries: 64, Assoc: 2}, {Entries: 128, Assoc: area.FullyAssociative}}

	// Legacy: three generations, per-reference delivery.
	isweep := newDirectICacheSweep(plan.icache)
	osmodel.NewSystem(osmodel.Mach, spec).Generate(refsEach, isweep)
	dsweep := newDirectDCacheSweep(plan.dcache)
	osmodel.NewSystem(osmodel.Mach, spec).Generate(refsEach, dsweep)
	var tlbConfigs []tlb.Config
	for _, c := range plan.tlbs {
		tlbConfigs = append(tlbConfigs, tlb.Config{TLBConfig: c})
	}
	hw := tlb.NewManaged(tlb.R2000(), tlb.DefaultCosts())
	tw := tapeworm.Attach(hw, tlbConfigs...)
	tsink := &tlbOnly{hw: hw}
	sys := osmodel.NewSystem(osmodel.Mach, spec)
	sys.Generate(refsEach/3, tsink)
	hw.ResetService()
	tw.ResetServices()
	tsink.instrs = 0
	sys.Generate(refsEach, tsink)

	// Fused: one generation, batched, on a pool of simulator units.
	recs, err := sweepSuite(osmodel.Mach, []osmodel.WorkloadSpec{spec}, plan, refsEach, Options{}, 4)
	if err != nil {
		t.Fatal(err)
	}
	rec := recs[0]
	if rec.instrs != isweep.instrs {
		t.Errorf("instrs: fused %d, direct %d", rec.instrs, isweep.instrs)
	}
	if want := dsweep.caches[0].Stats().Reads; rec.loads != want {
		t.Errorf("cached loads: fused %d, direct %d", rec.loads, want)
	}
	for i, c := range plan.icache {
		if got, want := rec.iMiss[i], isweep.caches[i].Stats().ReadMisses; got != want {
			t.Errorf("%v: I-misses fused %d, direct %d", c, got, want)
		}
		if got, want := rec.dMiss[i], dsweep.caches[i].Stats().ReadMisses; got != want {
			t.Errorf("%v: D-read-misses fused %d, direct %d", c, got, want)
		}
	}
	if rec.tlbInstrs != tsink.instrs {
		t.Errorf("Tapeworm window instrs: fused %d, legacy %d", rec.tlbInstrs, tsink.instrs)
	}
	legacyTW := tw.Results()
	for i := range tlbConfigs {
		if a, b := rec.tlb[i].Service, legacyTW[i].Service; a != b {
			t.Errorf("%v: tapeworm service fused %+v, legacy %+v", plan.tlbs[i], a, b)
		}
	}
}

// TestSweepEngineParallelMatchesSerial pins the determinism claim of
// the group pool: any pool width, one engine per pool or two sharing
// one, traced by a live span tracer or not, produces the counts of the
// serial engine.
func TestSweepEngineParallelMatchesSerial(t *testing.T) {
	cacheCfgs := search.Table5().CacheConfigs()
	tracer := spans.New(0)
	tracer.SetMetrics(telemetry.NewRegistry())
	pool := func(workers int, tr *spans.Tracer, lanePrefix string) *groupPool {
		p := newGroupPool(workers, tr, lanePrefix)
		t.Cleanup(p.close)
		return p
	}
	shared := pool(3, nil, "")
	engine := func(p *groupPool) *sweepEngine { return newSweepEngine(cacheCfgs, cacheCfgs, p) }
	serial := engine(nil)
	variants := map[string]*sweepEngine{
		"traced-4":   engine(pool(4, tracer, "sweep/mab")),
		"pool-6":     engine(pool(6, nil, "")),
		"pool-4":     engine(pool(4, nil, "")),
		"pool-2":     engine(pool(2, nil, "")),
		"shared-3-a": engine(shared),
		"shared-3-b": engine(shared),
	}
	sinks := trace.Tee{serial}
	for _, e := range variants {
		sinks = append(sinks, e)
	}
	osmodel.NewSystem(osmodel.Mach, workload.MAB()).Generate(60_000, sinks)
	for name, parallel := range variants {
		for _, c := range cacheCfgs {
			if serial.iMisses(c) != parallel.iMisses(c) {
				t.Errorf("%s %v: I-misses serial %d, parallel %d", name, c, serial.iMisses(c), parallel.iMisses(c))
			}
			if serial.dReadMisses(c) != parallel.dReadMisses(c) {
				t.Errorf("%s %v: D-misses serial %d, parallel %d", name, c, serial.dReadMisses(c), parallel.dReadMisses(c))
			}
		}
		if serial.instrs != parallel.instrs {
			t.Errorf("%s: instrs serial %d, parallel %d", name, serial.instrs, parallel.instrs)
		}
	}
}

// TestSlotSweepMatchesSerial pins the suite sweep's schedule --
// min(workers, workloads) slots, each reusing one engine, and workers
// claiming units within each batch -- to serial engines: for every plan
// shape (caches and TLBs, I-stream only, D-stream only, TLBs only),
// widths 0, 1, 2 and 6 over the suite give, workload by workload,
// exactly the record of one fresh serial sweep of that workload alone.
// At widths 0 and 1 a single engine sweeps every workload in turn. A
// plan without TLBs leaves the trace cache alone. A slot whose engine
// has seen a corrupt cache entry's partial replay, after sweeping two
// workloads, must still give the uncached records.
func TestSlotSweepMatchesSerial(t *testing.T) {
	const refs = 30_000
	specs := workload.All()
	space := search.Table5()
	cacheCfgs := space.CacheConfigs()
	full := sweepPlan{icache: cacheCfgs, dcache: cacheCfgs, tlbs: space.TLBConfigs()}
	suite := func(specs []osmodel.WorkloadSpec, plan sweepPlan, opt Options, workers int) []workloadSweep {
		t.Helper()
		recs, err := sweepSuite(osmodel.Mach, specs, plan, refs, opt, workers)
		if err != nil {
			t.Fatal(err)
		}
		return recs
	}
	serial := func(plan sweepPlan) []workloadSweep {
		var want []workloadSweep
		for _, spec := range specs {
			want = append(want, suite([]osmodel.WorkloadSpec{spec}, plan, Options{}, 0)...)
		}
		return want
	}
	same := func(name string, got, want []workloadSweep) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: %d records, want %d", name, len(got), len(want))
		}
		for w := range want {
			if !reflect.DeepEqual(got[w], want[w]) {
				t.Errorf("%s: %s's record differs from its serial sweep's", name, specs[w].Name)
			}
		}
	}
	wants := map[string][]workloadSweep{}
	for _, shape := range []struct {
		name string
		plan sweepPlan
	}{
		{"caches and TLBs", full},
		{"I-stream", sweepPlan{icache: cacheCfgs}},
		{"D-stream", sweepPlan{dcache: cacheCfgs}},
		{"TLBs", sweepPlan{tlbs: full.tlbs}},
	} {
		want := serial(shape.plan)
		wants[shape.name] = want
		for _, workers := range []int{0, 1, 2, 6} {
			same(fmt.Sprintf("%s, width %d", shape.name, workers), suite(specs, shape.plan, Options{}, workers), want)
		}
	}
	// A one-stream plan, which translates only its own stream, prices it
	// exactly as the full plan does and counts the same instructions.
	want := wants["caches and TLBs"]
	for w, rec := range want {
		i, d := wants["I-stream"][w], wants["D-stream"][w]
		if !reflect.DeepEqual(i.iMiss, rec.iMiss) || i.instrs != rec.instrs {
			t.Errorf("%s: the I-stream plan's misses or instructions differ from the full plan's", specs[w].Name)
		}
		if !reflect.DeepEqual(d.dMiss, rec.dMiss) || d.instrs != rec.instrs || d.loads != rec.loads {
			t.Errorf("%s: the D-stream plan's misses, instructions or loads differ from the full plan's", specs[w].Name)
		}
	}

	cache, err := tracecache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	suite(specs[:1], sweepPlan{icache: cacheCfgs, dcache: cacheCfgs}, Options{TraceCache: cache}, 1)
	if entries, _ := filepath.Glob(filepath.Join(cache.Dir(), "*.octc")); len(entries) != 0 {
		t.Fatalf("a sweep without TLBs recorded %v", entries)
	}

	// Record the third workload's stream, then cut its entry short: the
	// warm-up and measure segments still replay whole into the reused
	// engine before the tail fails, so only a reset before the
	// regeneration keeps them out of the records.
	suite(specs[2:3], full, Options{TraceCache: cache}, 1)
	entries, err := filepath.Glob(filepath.Join(cache.Dir(), "*.octc"))
	if err != nil || len(entries) != 1 {
		t.Fatalf("recorded entries %v (%v), want one", entries, err)
	}
	data, err := os.ReadFile(entries[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(entries[0], data[:len(data)-8], 0o644); err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	cache.Describe(reg)
	same("width 1 over a corrupt entry", suite(specs, full, Options{TraceCache: cache, Metrics: reg}, 1), want)
	corrupt := -1.0
	for _, m := range reg.Snapshot() {
		if m.Name == "tracecache.corrupt" {
			corrupt = m.Value
		}
	}
	if corrupt != 1 {
		t.Errorf("tracecache.corrupt = %g, want 1", corrupt)
	}
}
