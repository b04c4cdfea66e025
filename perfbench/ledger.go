package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"onchip/internal/area"
	"onchip/internal/cache"
	"onchip/internal/cheetah"
	"onchip/internal/machine"
	"onchip/internal/osmodel"
	"onchip/internal/search"
	"onchip/internal/search/missmodel"
	"onchip/internal/spans"
	"onchip/internal/tapeworm"
	"onchip/internal/tlb"
	"onchip/internal/trace"
	"onchip/internal/tracecache"
	"onchip/internal/vm"
	"onchip/internal/workload"
)

// ledgerBatch is the generator's delivery batch (osmodel's emitter
// buffers 1024 references), so every layer is driven in the batch size
// it sees inside the pipeline.
const ledgerBatch = 1024

// streamSpec names one (OS, workload) stream a benchmark workload uses
// and the per-workload reference count its experiment simulates.
type streamSpec struct {
	os   osmodel.Variant
	spec osmodel.WorkloadSpec
	refs int
}

// workloadStreams lists the streams each benchmark workload generates:
// table6 sweeps the suite under Mach at the default 1,000,000 refs,
// stall-suite measures it under both OSes at 2,000,000, and advisor-mix
// sweeps every (OS, workload) its question script names at 100,000.
func workloadStreams(name string, seed int64) []streamSpec {
	var out []streamSpec
	switch name {
	case "table6":
		for _, s := range workload.All() {
			out = append(out, streamSpec{osmodel.Mach, s, 1_000_000})
		}
	case "stall-suite":
		for _, v := range []osmodel.Variant{osmodel.Ultrix, osmodel.Mach} {
			for _, s := range workload.All() {
				out = append(out, streamSpec{v, s, 2_000_000})
			}
		}
	case "advisor-mix":
		for _, q := range recordingQuestions(script(seed)) {
			v := osmodel.Mach
			if q.OS == "Ultrix" {
				v = osmodel.Ultrix
			}
			for _, w := range q.Workloads {
				s, err := workload.ByName(w)
				if err != nil {
					panic(err) // the script only names suite workloads
				}
				out = append(out, streamSpec{v, s, scriptRefs})
			}
		}
	}
	return out
}

// capture keeps a generated stream in memory.
type capture struct{ refs []trace.Ref }

func (c *capture) Ref(r trace.Ref)     { c.refs = append(c.refs, r) }
func (c *capture) Refs(rs []trace.Ref) { c.refs = append(c.refs, rs...) }

// generatePhased runs the sweep's three-phase generation plan: to the
// tapeworm warm-up boundary e1 (the first iteration boundary at or past
// refs/3), to the cache sweeps' boundary e (at or past refs), then the
// tapeworm-only tail to e1+refs. It returns the phase boundaries.
func generatePhased(sys *osmodel.System, refs int, sink trace.Sink) (e1, e, e2 int) {
	e1 = sys.Generate(refs/3, sink)
	e = e1
	if refs > e {
		e += sys.Generate(refs-e, sink)
	}
	e2 = e
	if n := e1 + refs - e; n > 0 {
		e2 += sys.Generate(n, sink)
	}
	return e1, e, e2
}

// layerCost accumulates one layer's host cost over the ledger.
type layerCost struct {
	dur           time.Duration
	refs          uint64
	bytes, allocs uint64
}

// ledger is the outside-in per-layer account of one workload's streams.
type ledger struct {
	tr    *spans.Tracer
	lane  *spans.Lane
	costs map[string]*layerCost
	order []string

	grid      search.Space
	cacheCfgs []area.CacheConfig
	tlbCfgs   []area.TLBConfig

	// Simulated statistics, summed over the streams.
	iMiss, dMiss map[area.CacheConfig]uint64
	tlbCycles    map[area.TLBConfig]uint64
	instrs       uint64
	iKeys, dKeys uint64
	groups       int
	missEvents   uint64
	tlbService   uint64
	machines     []machine.Breakdown
	machineOS    []string
	traceBytes   int64
	generated    uint64
}

func newLedger(tr *spans.Tracer) *ledger {
	grid := search.Table5()
	return &ledger{
		tr:        tr,
		lane:      tr.Lane("ledger"),
		costs:     map[string]*layerCost{},
		grid:      grid,
		cacheCfgs: grid.CacheConfigs(),
		tlbCfgs:   grid.TLBConfigs(),
		iMiss:     map[area.CacheConfig]uint64{},
		dMiss:     map[area.CacheConfig]uint64{},
		tlbCycles: map[area.TLBConfig]uint64{},
	}
}

// time runs one layer call under its own span, charging its wall time
// and heap allocations to the layer.
func (l *ledger) time(layer string, refs int, f func()) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	span := l.lane.Start(layer)
	start := time.Now()
	f()
	d := time.Since(start)
	span.End()
	runtime.ReadMemStats(&after)
	c := l.costs[layer]
	if c == nil {
		c = &layerCost{}
		l.costs[layer] = c
		l.order = append(l.order, layer)
	}
	c.dur += d
	c.refs += uint64(refs)
	c.bytes += after.TotalAlloc - before.TotalAlloc
	c.allocs += after.Mallocs - before.Mallocs
}

func (l *ledger) nsPerRef(layer string) float64 {
	c := l.costs[layer]
	if c == nil || c.refs == 0 {
		return 0
	}
	return float64(c.dur.Nanoseconds()) / float64(c.refs)
}

// batches calls f on successive generator-sized batches of refs.
func batches(refs []trace.Ref, f func([]trace.Ref)) {
	for lo := 0; lo < len(refs); lo += ledgerBatch {
		f(refs[lo:min(lo+ledgerBatch, len(refs))])
	}
}

// stream runs every layer over one (OS, workload) stream.
func (l *ledger) stream(s streamSpec, dir string) error {
	name := fmt.Sprintf("%s/%s", s.os, s.spec.Name)
	span := l.lane.Start("stream " + name)
	defer span.End()

	// The stream itself, generated once into memory (untimed).
	var c capture
	e1, e, e2 := generatePhased(osmodel.NewSystem(s.os, s.spec), s.refs, &c)
	refs := c.refs
	if len(refs) != e2 {
		return fmt.Errorf("%s: captured %d refs, generator reported %d", name, len(refs), e2)
	}
	l.generated += uint64(e2)

	// osmodel: the same generation into a counting sink.
	var count trace.Counter
	l.time("osmodel.generate", e2, func() {
		generatePhased(osmodel.NewSystem(s.os, s.spec), s.refs, &count)
	})
	if count.Total != uint64(e2) {
		return fmt.Errorf("%s: regeneration emitted %d refs, first generation %d", name, count.Total, e2)
	}

	// vm: the sweep engine's per-batch key translation over the cache
	// window [0, e), into reused buffers as the engine does.
	sweepRefs := refs[:e]
	var ikeys, dkeys []uint64
	l.time("vm.translate", e, func() {
		batches(sweepRefs, func(b []trace.Ref) {
			ikeys, dkeys = translate(b, ikeys[:0], dkeys[:0])
		})
	})
	// The translated keys, kept per batch for the simulators (untimed).
	var iBatches, dBatches [][]uint64
	batches(sweepRefs, func(b []trace.Ref) {
		ik, dk := translate(b, nil, nil)
		iBatches, dBatches = append(iBatches, ik), append(dBatches, dk)
		l.iKeys += uint64(len(ik))
		l.dKeys += uint64(len(dk))
		l.instrs += uint64(len(ik))
	})

	// cheetah: the I-stream and D-stream single-pass stack simulators.
	isweep := cheetah.NewSweep(l.cacheCfgs, 8)
	dsweep := cheetah.NewDataSweep(l.cacheCfgs)
	l.groups = isweep.Simulators() + dsweep.Simulators()
	l.time("cheetah.i", e, func() {
		for _, k := range iBatches {
			isweep.AccessKeys(k)
		}
	})
	l.time("cheetah.d", e, func() {
		for _, k := range dBatches {
			dsweep.AccessPacked(k)
		}
	})
	for _, cfg := range l.cacheCfgs {
		l.iMiss[cfg] += isweep.Misses(cfg)
		l.dMiss[cfg] += dsweep.ReadMisses(cfg)
	}

	// tapeworm: the managed R2000 TLB with every Table 5 TLB attached,
	// warmed on [0, e1) and measured on [e1, e2).
	var tlbConfigs []tlb.Config
	for _, cfg := range l.tlbCfgs {
		tlbConfigs = append(tlbConfigs, tlb.Config{TLBConfig: cfg})
	}
	hw := tlb.NewManaged(tlb.R2000(), tlb.DefaultCosts())
	tw := tapeworm.Attach(hw, tlbConfigs...)
	l.time("tapeworm.translate", e2, func() {
		for _, r := range refs[:e1] {
			hw.Translate(r.Addr, r.ASID)
		}
		hw.ResetService()
		tw.ResetServices()
		for _, r := range refs[e1:] {
			hw.Translate(r.Addr, r.ASID)
		}
	})
	l.missEvents += hw.Service().TotalMisses()
	for i, res := range tw.Results() {
		cyc := res.Service.Cycles[tlb.UserMiss] + res.Service.Cycles[tlb.KernelMiss]
		l.tlbCycles[l.tlbCfgs[i]] += cyc
		l.tlbService += res.Service.TotalCycles()
	}

	// machine: the DECstation 3100 timing model from empty caches over
	// the cache window, configured as the monitor configures it.
	cfg := machine.DECstation3100()
	cfg.OtherCPI = s.spec.OtherCPI
	cfg.IsServerASID = osmodel.IsServerASID
	m := machine.New(cfg)
	l.time("machine.ref", e, func() {
		for _, r := range sweepRefs {
			m.Ref(r)
		}
	})
	l.machines = append(l.machines, m.Breakdown())
	l.machineOS = append(l.machineOS, s.os.String())

	// tracecache: record the stream with the two phase marks, then
	// replay its three segments.
	tc, err := tracecache.Open(dir)
	if err != nil {
		return err
	}
	key := tracecache.Key{Workload: s.spec.Name, OS: s.os.String(), Seed: s.spec.Seed, Refs: s.refs, Model: fmt.Sprintf("%+v", s.spec)}
	w, err := tc.NewWriter(key)
	if err != nil {
		return err
	}
	l.time("tracecache.record", e2, func() {
		batches(refs[:e1], w.Refs)
		w.EndSegment()
		batches(refs[e1:e], w.Refs)
		w.EndSegment()
		batches(refs[e:], w.Refs)
		err = w.Commit()
	})
	if err != nil {
		return fmt.Errorf("%s: trace-cache commit: %w", name, err)
	}
	entry := tc.OpenEntry(key)
	if entry == nil {
		return fmt.Errorf("%s: recorded trace-cache entry did not open", name)
	}
	defer entry.Close()
	var replayed trace.Counter
	l.time("tracecache.replay", e2, func() {
		for last := false; !last && err == nil; {
			_, last, err = entry.ReplaySegment(context.Background(), &replayed)
		}
	})
	if err != nil {
		return fmt.Errorf("%s: trace-cache replay: %w", name, err)
	}
	if replayed.Total != uint64(e2) {
		return fmt.Errorf("%s: replayed %d refs, recorded %d", name, replayed.Total, e2)
	}
	l.traceBytes += dirBytes(dir)
	return os.RemoveAll(dir)
}

// translate appends one batch's I-stream cache keys and packed D-stream
// keys exactly as the fused sweep engine derives them.
func translate(b []trace.Ref, ikeys, dkeys []uint64) ([]uint64, []uint64) {
	for _, r := range b {
		if r.Kind == trace.IFetch {
			ikeys = append(ikeys, vm.CacheKey(r.Addr, r.ASID))
		} else if vm.SegmentOf(r.Addr) != vm.Kseg1 {
			dkeys = append(dkeys, cheetah.PackRef(vm.CacheKey(r.Addr, r.ASID), r.Kind == trace.Store))
		}
	}
	return ikeys, dkeys
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) int64 {
	var n int64
	filepath.WalkDir(dir, func(_ string, d os.DirEntry, err error) error {
		if err == nil && d.Type().IsRegular() {
			if info, err := d.Info(); err == nil {
				n += info.Size()
			}
		}
		return nil
	})
	return n
}

// model builds the measured performance model from the ledger's miss
// counts, as the model-building sweep does.
func (l *ledger) model() *search.Measured {
	m := search.NewMeasured(1)
	n := float64(l.instrs)
	for _, c := range l.cacheCfgs {
		m.IC[c] = float64(l.iMiss[c]) * float64(cache.MissPenalty(c.LineWords)) / n
		m.DC[c] = float64(l.dMiss[c]) * float64(cache.MissPenalty(c.LineWords)) / n
	}
	for _, c := range l.tlbCfgs {
		m.TLB[c] = float64(l.tlbCycles[c]) / n
	}
	return m
}

// searchLayers times the missmodel fit and both search strategies on
// the ledger's model, returning the exhaustive Table 5 top-10.
func (l *ledger) searchLayers(rep *report) ([]search.Allocation, error) {
	measured := l.model()
	var allocs []search.Allocation
	var err error
	l.time("search.table5", 0, func() {
		allocs, err = search.EnumerateE(l.grid, area.Default(), area.BudgetRBE, measured)
	})
	if err != nil {
		return nil, err
	}
	var ext *missmodel.Extended
	l.time("missmodel.fit", 0, func() { ext = missmodel.FromMeasured(measured) })
	var ps search.PruneStats
	big := search.Big()
	l.time("search.pruned", 0, func() {
		_, err = search.EnumerateE(big, area.Default(), area.BudgetRBE, ext,
			search.WithPruning(10), search.WithPruneStats(&ps))
	})
	if err != nil {
		return nil, err
	}
	ms := func(layer string) float64 { return float64(l.costs[layer].dur) / float64(time.Millisecond) }
	triples := l.grid.Triples()
	rep.add(metric{name: "search.table5_ms", value: ms("search.table5"), unit: "ms",
		note: fmt.Sprintf("host; exhaustive pricing of %d Table 5 triples", triples)})
	rep.add(metric{name: "search.table5_ns_per_triple", value: ms("search.table5") * 1e6 / float64(triples), unit: "ns/triple", note: "host"})
	rep.add(metric{name: "search.table5_feasible", value: float64(len(allocs)), unit: "count", note: "triples within the 250,000-rbe budget"})
	rep.add(metric{name: "search.pruned_ms", value: ms("search.pruned"), unit: "ms",
		note: fmt.Sprintf("host; pruned top-10 over the %d-triple big space", big.Triples())})
	ratio := 0.0
	if ps.Composed > 0 {
		ratio = float64(ps.Priced) / float64(ps.Composed)
	}
	rep.add(metric{name: "search.pruned_priced_ratio", value: ratio, unit: "ratio",
		note: fmt.Sprintf("%d priced of %d composed", ps.Priced, ps.Composed)})
	ic, dc, tl := ext.Slack()
	rep.add(metric{name: "missmodel.fit_us", value: ms("missmodel.fit") * 1000, unit: "us", note: "host; power-law fit of the measured model"})
	rep.add(metric{name: "missmodel.slack_ic", value: ic, unit: "ratio", note: "bound scale factor, I-cache classes"})
	rep.add(metric{name: "missmodel.slack_dc", value: dc, unit: "ratio", note: "bound scale factor, D-cache classes"})
	rep.add(metric{name: "missmodel.slack_tlb", value: tl, unit: "ratio", note: "bound scale factor, TLB classes"})
	return search.Top(allocs, 10), nil
}

// layerMetrics adds the per-reference layer costs and the simulated
// statistics.
func (l *ledger) layerMetrics(rep *report) {
	perKref := func(layer string) float64 {
		c := l.costs[layer]
		return 1000 * float64(c.allocs) / float64(c.refs)
	}
	add := func(name, layer, note string) {
		rep.add(metric{name: name, value: l.nsPerRef(layer), unit: "ns/ref", note: note})
	}
	add("osmodel.ns_per_ref", "osmodel.generate", "host; System.Generate into a counting sink")
	rep.add(metric{name: "osmodel.allocs_per_kref", value: perKref("osmodel.generate"), unit: "allocs/kref", note: "host; heap allocations per 1000 refs generated"})
	rep.add(metric{name: "osmodel.refs", value: float64(l.generated), unit: "count", note: "refs generated, all streams"})
	add("vm.ns_per_ref", "vm.translate", "host; cache-key translation per cache-window ref")
	add("cheetah.i_ns_per_ref", "cheetah.i", "host; Sweep.AccessKeys per cache-window ref")
	add("cheetah.d_ns_per_ref", "cheetah.d", "host; DataSweep.AccessPacked per cache-window ref")
	rep.add(metric{name: "cheetah.i_keys", value: float64(l.iKeys), unit: "count"})
	rep.add(metric{name: "cheetah.d_keys", value: float64(l.dKeys), unit: "count"})
	rep.add(metric{name: "cheetah.groups", value: float64(l.groups), unit: "count", note: "simulator groups (I + D) per stream"})
	var im, dm uint64
	for _, c := range l.cacheCfgs {
		im += l.iMiss[c]
		dm += l.dMiss[c]
	}
	rep.add(metric{name: "cheetah.i_misses", value: float64(im), unit: "count", note: "simulated; summed over the Table 5 cache configs"})
	rep.add(metric{name: "cheetah.d_read_misses", value: float64(dm), unit: "count", note: "simulated; summed over the Table 5 cache configs"})
	add("tapeworm.ns_per_ref", "tapeworm.translate", "host; Managed.Translate with Tapeworm attached")
	rep.add(metric{name: "tapeworm.miss_events", value: float64(l.missEvents), unit: "count", note: "R2000 misses delivered to Tapeworm after warm-up"})
	rep.add(metric{name: "tapeworm.service_cycles", value: float64(l.tlbService), unit: "cycles", note: "simulated; summed over the Table 5 TLBs after warm-up"})
	add("machine.ns_per_ref", "machine.ref", "host; Machine.Ref on DECstation 3100 parameters")
	var avg machine.Breakdown
	for _, b := range l.machines {
		avg.CPI += b.CPI
		for c := range b.Comp {
			avg.Comp[c] += b.Comp[c]
		}
	}
	n := float64(len(l.machines))
	rep.add(metric{name: "machine.cpi", value: avg.CPI / n, unit: "CPI", note: "simulated; mean over the streams, caches start empty"})
	rep.add(metric{name: "machine.cpi_tlb", value: avg.Comp[machine.CompTLB] / n, unit: "CPI", note: "simulated"})
	rep.add(metric{name: "machine.cpi_icache", value: avg.Comp[machine.CompICache] / n, unit: "CPI", note: "simulated"})
	rep.add(metric{name: "machine.cpi_dcache", value: avg.Comp[machine.CompDCache] / n, unit: "CPI", note: "simulated"})
	rep.add(metric{name: "machine.cpi_wb", value: avg.Comp[machine.CompWB] / n, unit: "CPI", note: "simulated"})
	add("tracecache.record_ns_per_ref", "tracecache.record", "host; Writer.Refs + Commit")
	add("tracecache.replay_ns_per_ref", "tracecache.replay", "host; Entry.ReplaySegment into a counting sink")
	rep.add(metric{name: "tracecache.bytes_per_ref", value: float64(l.traceBytes) / float64(l.generated), unit: "B/ref", note: "compressed entry size"})
	rep.add(metric{name: "tracecache.replay_vs_generate", value: l.nsPerRef("tracecache.replay") / l.nsPerRef("osmodel.generate"), unit: "ratio",
		note: "replay ns/ref / generation ns/ref, both into a counting sink"})
}

// machineAverages returns the mean machine CPI per OS, as Table 4's
// Average rows compute it.
func (l *ledger) machineAverages() map[string]float64 {
	sum, n := map[string]float64{}, map[string]float64{}
	for i, b := range l.machines {
		sum[l.machineOS[i]] += b.CPI
		n[l.machineOS[i]]++
	}
	for k := range sum {
		sum[k] /= n[k]
	}
	return sum
}

// layerTable renders the ledger's per-layer host costs and the time no
// layer accounts for (self time of the ledger's own stream and root
// spans: capture, key staging, model building).
func (l *ledger) layerTable() (string, float64) {
	var b strings.Builder
	fmt.Fprintf(&b, "%-20s %10s %12s %10s %12s\n", "layer", "ms", "refs", "ns/ref", "B/ref")
	var layers time.Duration
	for _, name := range l.order {
		c := l.costs[name]
		layers += c.dur
		nsRef, bRef := "-", "-"
		if c.refs > 0 {
			nsRef = fmt.Sprintf("%.2f", float64(c.dur.Nanoseconds())/float64(c.refs))
			bRef = fmt.Sprintf("%.3f", float64(c.bytes)/float64(c.refs))
		}
		fmt.Fprintf(&b, "%-20s %10.1f %12d %10s %12s\n", name, float64(c.dur)/float64(time.Millisecond), c.refs, nsRef, bRef)
	}
	var unattributed float64
	for _, p := range l.tr.Summarize().Phases {
		if p.Name == "ledger" || strings.HasPrefix(p.Name, "stream ") {
			unattributed += p.SelfSeconds * 1000
		}
	}
	fmt.Fprintf(&b, "%-20s %10.1f   (self time of the ledger and stream spans)\n", "unattributed", unattributed)
	return b.String(), unattributed
}
