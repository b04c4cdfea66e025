package experiments

import (
	"fmt"
	"os"
	"path/filepath"
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

// unbatched hides a sink's batch capability, forcing the generator down
// the per-reference delivery path of the original sweep.
type unbatched struct{ s trace.Sink }

func (u unbatched) Ref(r trace.Ref) { u.s.Ref(r) }

// TestFusedSweepMatchesLegacyPasses is the end-to-end equivalence proof
// for the fused engine: one generation through sweepEngine + tlbOnly
// with the phased warm-up/measure plan must reproduce, exactly, what
// the original three independent generations produced -- single-pass
// I-stream sweep, direct per-configuration D-cache simulation, and the
// tapeworm warm-up-then-measure run.
func TestFusedSweepMatchesLegacyPasses(t *testing.T) {
	const refsEach = 90_000
	spec := workload.VideoPlay()
	var cacheCfgs []area.CacheConfig
	for _, size := range []int{2 << 10, 8 << 10, 32 << 10} {
		for _, line := range []int{4, 16} {
			for _, assoc := range []int{1, 2, 8} {
				cacheCfgs = append(cacheCfgs, area.CacheConfig{CapacityBytes: size, LineWords: line, Assoc: assoc})
			}
		}
	}
	tlbConfigs := []tlb.Config{
		{TLBConfig: area.TLBConfig{Entries: 64, Assoc: 2}},
		{TLBConfig: area.TLBConfig{Entries: 128, Assoc: area.FullyAssociative}},
	}

	// Legacy: three generations, per-reference delivery, direct D-sim.
	isweep := newICacheSweep(cacheCfgs, 8)
	osmodel.NewSystem(osmodel.Mach, spec).Generate(refsEach, unbatched{isweep})
	direct := newDirectDCacheSweep(cacheCfgs)
	osmodel.NewSystem(osmodel.Mach, spec).Generate(refsEach, unbatched{direct})
	legacyTW, _ := runTapeworm(osmodel.Mach, spec, refsEach, tlbConfigs)

	// Fused: one generation, batched, parallel simulator groups.
	pool := newGroupPool(4, nil, "")
	defer pool.close()
	engine := newSweepEngine(cacheCfgs, 8, pool)
	hw := tlb.NewManaged(tlb.R2000(), tlb.DefaultCosts())
	tw := tapeworm.Attach(hw, tlbConfigs...)
	tsink := &tlbOnly{hw: hw}
	sys := osmodel.NewSystem(osmodel.Mach, spec)
	tee := trace.Tee{engine, tsink}
	e1 := sys.Generate(refsEach/3, tee)
	hw.ResetService()
	tw.ResetServices()
	tsink.instrs = 0
	total := e1
	if refsEach > total {
		total += sys.Generate(refsEach-total, tee)
	}
	if n := e1 + refsEach - total; n > 0 {
		sys.Generate(n, tsink)
	}

	if engine.instrs != isweep.instrs {
		t.Errorf("instrs: fused %d, legacy %d", engine.instrs, isweep.instrs)
	}
	for i, c := range cacheCfgs {
		if got, want := engine.iMisses(c), isweep.misses(c); got != want {
			t.Errorf("%v: I-misses fused %d, legacy %d", c, got, want)
		}
		if got, want := engine.dReadMisses(c), direct.caches[i].Stats().ReadMisses; got != want {
			t.Errorf("%v: D-read-misses fused %d, direct %d", c, got, want)
		}
	}
	fusedTW := tw.Results()
	for i := range tlbConfigs {
		a, b := fusedTW[i].Service, legacyTW[i].Service
		if a != b {
			t.Errorf("%v: tapeworm service fused %+v, legacy %+v", tlbConfigs[i].TLBConfig, a, b)
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
	serial := newSweepEngine(cacheCfgs, 8, nil)
	variants := map[string]*sweepEngine{
		"traced-4":   newSweepEngine(cacheCfgs, 8, pool(4, tracer, "sweep/mab")),
		"pool-6":     newSweepEngine(cacheCfgs, 8, pool(6, nil, "")),
		"pool-4":     newSweepEngine(cacheCfgs, 8, pool(4, nil, "")),
		"pool-2":     newSweepEngine(cacheCfgs, 8, pool(2, nil, "")),
		"shared-3-a": newSweepEngine(cacheCfgs, 8, shared),
		"shared-3-b": newSweepEngine(cacheCfgs, 8, shared),
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

// TestRefMeterFlush pins the undercount fix: the meter used to publish
// only whole 64K batches, silently dropping the tail of every stream.
func TestRefMeterFlush(t *testing.T) {
	reg := telemetry.NewRegistry()
	c := reg.Counter("test.refs", "")
	m := meterRefs(trace.Discard, c)
	const n = 100_000 // 1 full batch + 34,464 trailing refs
	for i := 0; i < n; i++ {
		m.Ref(trace.Ref{})
	}
	flushMeter(m)
	if c.Value() != n {
		t.Errorf("scalar path: counter %d, want %d", c.Value(), n)
	}

	c2 := reg.Counter("test.refs.batch", "")
	mb := meterRefs(trace.Discard, c2).(*refMeter)
	batch := make([]trace.Ref, 1000)
	for i := 0; i < 70; i++ {
		mb.Refs(batch)
	}
	flushMeter(mb)
	if c2.Value() != 70_000 {
		t.Errorf("batch path: counter %d, want 70000", c2.Value())
	}

	// Metrics off: the sink passes through unwrapped, flush is a no-op.
	if _, metered := meterRefs(trace.Discard, nil).(*refMeter); metered {
		t.Error("nil counter: expected the sink back unwrapped")
	}
	flushMeter(trace.Discard)
}

// TestSlotSweepMatchesSerial pins the suite sweep's schedule --
// min(workers, workloads) slots, each reusing one engine, and workers
// claiming units within each batch -- to serial engines: pool widths 1,
// 2 and 6 over the suite give exactly the totals of one fresh serial
// engine per workload. At width 1 a single engine sweeps every
// workload in turn. A slot whose engine has seen a corrupt cache
// entry's partial replay, after sweeping two workloads, must still
// give the uncached totals.
func TestSlotSweepMatchesSerial(t *testing.T) {
	const refs = 30_000
	specs := workload.All()
	space := search.Table5()
	suite := func(specs []osmodel.WorkloadSpec, opt Options, workers int) *sweepTotals {
		t.Helper()
		tot, err := sweepSuite(osmodel.Mach, specs, space, refs, opt, workers)
		if err != nil {
			t.Fatal(err)
		}
		return tot
	}
	want := &sweepTotals{
		iMiss:     map[area.CacheConfig]uint64{},
		dMiss:     map[area.CacheConfig]uint64{},
		tlbCycles: map[area.TLBConfig]uint64{},
	}
	for _, spec := range specs {
		one := suite([]osmodel.WorkloadSpec{spec}, Options{}, 0)
		for c, n := range one.iMiss {
			want.iMiss[c] += n
		}
		for c, n := range one.dMiss {
			want.dMiss[c] += n
		}
		for c, n := range one.tlbCycles {
			want.tlbCycles[c] += n
		}
		want.instrs += one.instrs
	}
	same := func(name string, got *sweepTotals) {
		t.Helper()
		if got.instrs != want.instrs {
			t.Errorf("%s: instrs %d, serial %d", name, got.instrs, want.instrs)
		}
		for _, c := range space.CacheConfigs() {
			if got.iMiss[c] != want.iMiss[c] || got.dMiss[c] != want.dMiss[c] {
				t.Errorf("%s %v: I/D misses %d/%d, serial %d/%d", name, c, got.iMiss[c], got.dMiss[c], want.iMiss[c], want.dMiss[c])
			}
		}
		for _, c := range space.TLBConfigs() {
			if got.tlbCycles[c] != want.tlbCycles[c] {
				t.Errorf("%s %v: TLB cycles %d, serial %d", name, c, got.tlbCycles[c], want.tlbCycles[c])
			}
		}
	}
	for _, workers := range []int{1, 2, 6} {
		same(fmt.Sprintf("width %d", workers), suite(specs, Options{}, workers))
	}

	// Record the third workload's stream, then cut its entry short: the
	// warm-up and measure segments still replay whole into the reused
	// engine before the tail fails, so only a reset before the
	// regeneration keeps them out of the totals.
	cache, err := tracecache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	suite(specs[2:3], Options{TraceCache: cache}, 1)
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
	same("width 1 over a corrupt entry", suite(specs, Options{TraceCache: cache, Metrics: reg}, 1))
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
