package monitor

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"onchip/internal/area"
	"onchip/internal/cache"
	"onchip/internal/machine"
	"onchip/internal/osmodel"
	"onchip/internal/telemetry"
	"onchip/internal/trace"
	"onchip/internal/workload"
)

// suiteRun is everything a suite leaves behind: its rows and the
// caller's registry and event ring.
type suiteRun struct {
	rows    []Row
	metrics []telemetry.Metric
	events  []telemetry.Event
	total   uint64
}

func instrumented(depth int) machine.Config {
	cfg := machine.DECstation3100()
	cfg.Metrics, cfg.Tracer = telemetry.NewRegistry(), telemetry.NewTracer(depth)
	return cfg
}

func runOf(rows []Row, cfg machine.Config) suiteRun {
	return suiteRun{rows, cfg.Metrics.Snapshot(), cfg.Tracer.Events(), cfg.Tracer.Total()}
}

// serialSuite is the reference: Measure over the specs one after the
// other, all into one shared registry and ring, then the average row.
// perRow reports the fewest events one row recorded.
func serialSuite(v osmodel.Variant, specs []osmodel.WorkloadSpec, refs, depth int) (run suiteRun, perRow uint64) {
	cfg := instrumented(depth)
	var rows []Row
	var avg machine.Breakdown
	perRow = ^uint64(0)
	for _, s := range specs {
		before := cfg.Tracer.Total()
		r := Measure(v, s, refs, cfg)
		perRow = min(perRow, cfg.Tracer.Total()-before)
		rows = append(rows, r)
		avg.CPI += r.Breakdown.CPI
		avg.Instrs += r.Breakdown.Instrs
		for c := range r.Breakdown.Comp {
			avg.Comp[c] += r.Breakdown.Comp[c]
		}
	}
	n := float64(len(specs))
	avg.CPI /= n
	for c := range avg.Comp {
		avg.Comp[c] /= n
	}
	rows = append(rows, Row{Workload: "Average", OS: v.String(), Breakdown: avg})
	return runOf(rows, cfg), perRow
}

// The concurrent suite must leave exactly what a serial loop of Measure
// over one shared registry and ring leaves: the same rows (average
// included), the same registry snapshot and the same event window, Seq
// numbers included, at every width -- with a ring shallower than one
// row's events, so every fold evicts, and one deeper than the whole
// suite's, so the window is the whole run. A context cancelled before
// the call claims no row.
func TestSuiteMatchesSerial(t *testing.T) {
	const refs = 20_000
	specs := workload.All()
	const shallow = 1000
	want, perRow := serialSuite(osmodel.Mach, specs, refs, shallow)
	if perRow <= shallow {
		t.Fatalf("a row recorded only %d events; the shallow ring (%d) must be smaller than one row's", perRow, shallow)
	}
	deep := int(want.total) + 1
	wantDeep, _ := serialSuite(osmodel.Mach, specs, refs, deep)
	if uint64(len(wantDeep.events)) != wantDeep.total {
		t.Fatalf("the deep ring holds %d of %d events; it must hold the whole suite", len(wantDeep.events), wantDeep.total)
	}

	for _, tc := range []struct {
		depth int
		want  suiteRun
	}{{shallow, want}, {deep, wantDeep}} {
		for _, width := range []int{1, 2, 6} {
			cfg := instrumented(tc.depth)
			rows, err := measureRows(context.Background(), Suite(osmodel.Mach, specs, refs, cfg), cfg.Metrics, cfg.Tracer, width)
			if err != nil {
				t.Fatalf("depth %d width %d: %v", tc.depth, width, err)
			}
			rows = append(rows, Average(rows))
			got := runOf(rows, cfg)
			if !reflect.DeepEqual(got.rows, tc.want.rows) {
				t.Errorf("depth %d width %d: rows differ from the serial loop's", tc.depth, width)
			}
			if !reflect.DeepEqual(got.metrics, tc.want.metrics) {
				t.Errorf("depth %d width %d: registry snapshot differs from the serial loop's", tc.depth, width)
			}
			if got.total != tc.want.total || !reflect.DeepEqual(got.events, tc.want.events) {
				t.Errorf("depth %d width %d: ring holds %d of %d events, want the serial %d of %d",
					tc.depth, width, len(got.events), got.total, len(tc.want.events), tc.want.total)
			}
		}
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cfg := instrumented(shallow)
	rows, err := measureRows(ctx, Suite(osmodel.Mach, specs, refs, cfg), cfg.Metrics, cfg.Tracer, 2)
	if len(rows) != 0 || !errors.Is(err, context.Canceled) {
		t.Errorf("pre-cancelled suite returned %d rows and %v, want none and context.Canceled", len(rows), err)
	}
	if cfg.Metrics.Snapshot() != nil || cfg.Tracer.Total() != 0 {
		t.Error("a pre-cancelled suite recorded telemetry")
	}
}

// A row that panics -- here an invalid spec, which osmodel.NewSystem
// refuses -- panics on the caller's goroutine, as the serial loop did,
// instead of taking the process down from a worker.
func TestSuitePanicReachesCaller(t *testing.T) {
	bad := workload.MAB()
	bad.ComputeInstrs = 0
	if bad.Validate() == nil {
		t.Fatal("the bad spec passes Validate")
	}
	defer func() {
		if recover() == nil {
			t.Error("a suite with an invalid spec did not panic")
		}
	}()
	measureRows(context.Background(), Suite(osmodel.Mach, []osmodel.WorkloadSpec{workload.MAB(), bad}, 10_000, machine.DECstation3100()), nil, nil, 2)
}

// rowCase is one row shape for TestRowsMatchSerial: its declaration for
// the runner, and the same run written out by hand against the machine
// and the OS model, recording into the given registry and ring.
type rowCase struct {
	decl   RowSpec
	serial func(reg *telemetry.Registry, tr *telemetry.Tracer) Row
}

// systemCase declares the System row of spec under Mach on cfg, and
// writes the reference run out by hand: cfg charged spec's interlock
// density outside the servers, a system adjusted by setup with its
// telemetry on, refs references.
func systemCase(spec osmodel.WorkloadSpec, refs int, cfg machine.Config, setup func(*osmodel.System)) rowCase {
	var setups []func(*osmodel.System)
	if setup != nil {
		setups = append(setups, setup)
	}
	return rowCase{
		decl: Workload(osmodel.Mach, spec, refs, cfg, setups...),
		serial: func(reg *telemetry.Registry, tr *telemetry.Tracer) Row {
			c := cfg
			c.OtherCPI, c.IsServerASID = spec.OtherCPI, osmodel.IsServerASID
			c.Metrics, c.Tracer = reg, tr
			m := machine.New(c)
			sys := osmodel.NewSystem(osmodel.Mach, spec)
			if setup != nil {
				setup(sys)
			}
			sys.SetMetrics(reg)
			gen := sys.Run(refs, m)
			m.FlushMetrics()
			return Row{Workload: spec.Name, OS: "Mach", Breakdown: m.Breakdown(), Gen: gen, DCache: m.DCache().Stats()}
		},
	}
}

// multiCase declares a time-sliced mpeg_play + mab row on cfg, as
// declared, for 2*refs references, and writes it out by hand with the
// OS model's telemetry on.
func multiCase(refs int, cfg machine.Config, build func(osmodel.Variant, ...osmodel.WorkloadSpec) *osmodel.Multi) rowCase {
	specs := []osmodel.WorkloadSpec{workload.MPEGPlay(), workload.MAB()}
	return rowCase{
		decl: Multi("multi", cfg, 2*refs, func() *osmodel.Multi { return build(osmodel.Mach, specs...) }),
		serial: func(reg *telemetry.Registry, tr *telemetry.Tracer) Row {
			c := cfg
			c.Metrics, c.Tracer = reg, tr
			m := machine.New(c)
			multi := build(osmodel.Mach, specs...)
			multi.SetMetrics(reg)
			multi.Generate(2*refs, m)
			m.FlushMetrics()
			return Row{Workload: "multi", Breakdown: m.Breakdown(), DCache: m.DCache().Stats()}
		},
	}
}

// Every row shape the experiments declare -- an L2, next-line prefetch,
// a write-back D-cache, a unified cache, an adjusted OS model, the
// user-only filter, time-sliced Multi sources, and no interlock density
// at all -- must leave exactly what running the same machines and OS
// models one after another by hand, into one shared registry and ring,
// leaves: the same rows (D-cache statistics included), the same
// registry snapshot and the same event window, Seq numbers included, at
// every width. The ring is shallower than one row's events, so every
// fold evicts.
func TestRowsMatchSerial(t *testing.T) {
	const refs, depth = 20_000, 1000
	small := func() machine.Config {
		cfg := machine.DECstation3100()
		cfg.ICache = cache.Config{CacheConfig: area.CacheConfig{CapacityBytes: 4 << 10, LineWords: 4, Assoc: 1}}
		cfg.DCache = cache.Config{CacheConfig: area.CacheConfig{CapacityBytes: 4 << 10, LineWords: 4, Assoc: 2}}
		return cfg
	}
	l2 := small()
	l2.L2 = &cache.Config{CacheConfig: area.CacheConfig{CapacityBytes: 64 << 10, LineWords: 8, Assoc: 4}, WriteAllocate: true}
	l2.L2HitCycles = 5
	prefetch := small()
	prefetch.IPrefetchNextLine = true
	writeBack := small()
	writeBack.DCache.WriteBack = true
	unified := small()
	unified.ICache.CapacityBytes = 8 << 10
	unified.Unified = true
	mab, mpeg := workload.MAB(), workload.MPEGPlay()
	mpegCfg := machine.DECstation3100()
	mpegCfg.OtherCPI, mpegCfg.IsServerASID = mpeg.OtherCPI, osmodel.IsServerASID
	noOther := machine.DECstation3100()
	noOther.IsServerASID = osmodel.IsServerASID

	userOnly := Conditions(mpeg, refs, machine.DECstation3100())[0]
	cases := []rowCase{
		systemCase(mab, refs, l2, nil),
		systemCase(mpeg, refs, prefetch, nil),
		systemCase(workload.IOzone(), refs, writeBack, nil),
		systemCase(mpeg, refs, unified, nil),
		systemCase(workload.VideoPlay(), refs, machine.DECstation3100(), func(s *osmodel.System) { s.SetOOLThreshold(0) }),
		{decl: userOnly, serial: func(reg *telemetry.Registry, tr *telemetry.Tracer) Row {
			c := machine.DECstation3100()
			c.OtherCPI = mpeg.OtherCPI
			c.Metrics, c.Tracer = reg, tr
			m := machine.New(c)
			gen := osmodel.NewSystem(osmodel.Ultrix, mpeg).Run(refs, trace.Filter{
				Keep: func(r trace.Ref) bool { return r.Mode == trace.User && !osmodel.IsServerASID(r.ASID) },
				Next: m,
			})
			m.FlushMetrics()
			return Row{Workload: mpeg.Name, OS: "None", Breakdown: m.Breakdown(), Gen: gen, DCache: m.DCache().Stats()}
		}},
		multiCase(refs, mpegCfg, osmodel.NewMulti),
		multiCase(refs, noOther, osmodel.NewMultiAPI),
	}

	wantCfg := instrumented(depth)
	var wantRows []Row
	decl := make([]RowSpec, len(cases))
	for i, c := range cases {
		wantRows = append(wantRows, c.serial(wantCfg.Metrics, wantCfg.Tracer))
		decl[i] = c.decl
	}
	want := runOf(wantRows, wantCfg)
	if want.total <= depth*uint64(len(cases)) {
		t.Fatalf("the rows recorded only %d events; each must overflow the %d-event ring", want.total, depth)
	}
	if want.rows[3].DCache.Writebacks != 0 || want.rows[2].DCache.Writebacks == 0 {
		t.Fatal("the write-back row must write lines back and the others must not")
	}

	for _, width := range []int{1, 2, len(cases)} {
		cfg := instrumented(depth)
		rows, err := measureRows(context.Background(), decl, cfg.Metrics, cfg.Tracer, width)
		if err != nil {
			t.Fatalf("width %d: %v", width, err)
		}
		got := runOf(rows, cfg)
		for i := range got.rows {
			if !reflect.DeepEqual(got.rows[i], want.rows[i]) {
				t.Errorf("width %d: row %d = %+v, want the serial %+v", width, i, got.rows[i], want.rows[i])
			}
		}
		if len(got.rows) != len(want.rows) {
			t.Errorf("width %d: %d rows, want %d", width, len(got.rows), len(want.rows))
		}
		if !reflect.DeepEqual(got.metrics, want.metrics) {
			t.Errorf("width %d: registry snapshot differs from the serial run's", width)
		}
		if got.total != want.total || !reflect.DeepEqual(got.events, want.events) {
			t.Errorf("width %d: ring holds %d of %d events, want the serial %d of %d",
				width, len(got.events), got.total, len(want.events), want.total)
		}
	}
}
