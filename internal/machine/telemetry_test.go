package machine

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"onchip/internal/area"
	"onchip/internal/cache"
	"onchip/internal/telemetry"
	"onchip/internal/trace"
	"onchip/internal/vm"
)

// telemetryRefs is benchRefs with uncached kseg1 loads and stores mixed
// in, so every branch of the machine that charges or observes anything
// is taken. It ends with a kernel loop long enough to drain the write
// buffer and one last store, so the buffer's final depth is below its
// peak.
func telemetryRefs(n int) []trace.Ref {
	refs := benchRefs(n)
	for i := 0; i < len(refs); i += 61 {
		refs[i] = trace.Ref{Kind: trace.Load, Addr: vm.Kseg1Base + uint32(i%4096)&^3, Mode: trace.Kernel}
		if j := i + 30; j < len(refs) {
			refs[j] = trace.Ref{Kind: trace.Store, Addr: vm.Kseg1Base + uint32(j%1024)&^3, Mode: trace.Kernel}
		}
	}
	tail := refs[len(refs)-100:]
	for i := range tail {
		tail[i] = trace.Ref{Kind: trace.IFetch, Addr: 0x8000_0100, Mode: trace.Kernel}
	}
	tail[len(tail)-1] = trace.Ref{Kind: trace.Store, Addr: vm.Kseg1Base, Mode: trace.Kernel}
	return refs
}

// telemetryConfigs are the machine shapes the telemetry goldens cover:
// the DECstation (with an interlock density), small caches behind an
// L2 with next-line prefetch, a write-back D-cache small enough to
// evict dirty lines, and a unified cache.
func telemetryConfigs() []struct {
	name string
	cfg  Config
} {
	dec := DECstation3100()
	dec.OtherCPI = 0.25
	l2 := smallConfig()
	l2.L2 = &cache.Config{CacheConfig: area.CacheConfig{CapacityBytes: 16 << 10, LineWords: 8, Assoc: 2}, WriteAllocate: true}
	l2.IPrefetchNextLine = true
	wb := smallConfig()
	wb.DCache = cache.Config{CacheConfig: area.CacheConfig{CapacityBytes: 1 << 10, LineWords: 4, Assoc: 1}, WriteBack: true}
	uni := smallConfig()
	uni.Unified = true
	return []struct {
		name string
		cfg  Config
	}{{"decstation", dec}, {"l2-prefetch", l2}, {"writeback", wb}, {"unified", uni}}
}

// snapshotJSONL renders a registry snapshot as the -metrics sink writes
// it, without the manifest line, followed by a summary of the tracer:
// the events it ever recorded and an FNV-64a hash of its window as
// -trace writes it.
func snapshotJSONL(t *testing.T, reg *telemetry.Registry, tr *telemetry.Tracer) string {
	t.Helper()
	var b bytes.Buffer
	if err := telemetry.WriteJSONL(&b, nil, reg.Snapshot()); err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	if err := WriteTrace(h, tr); err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&b, "events %d window fnv64a %016x\n", tr.Total(), h.Sum64())
	return b.String()
}

// Telemetry must observe the machine, never perturb it: the same stream
// with and without instrumentation must produce identical timing, and
// the registry's counters must agree with the machine's own breakdown.
// The whole snapshot, and the stall-event window, are pinned to goldens
// (testdata/telemetry_*.golden) recorded when the machine still observed
// every stall, miss and store into its instruments as it happened;
// publishing the machine's own tallies once at FlushMetrics must leave
// exactly that, and a second FlushMetrics must add nothing.
func TestTelemetryIsNonInvasive(t *testing.T) {
	refs := telemetryRefs(200_000)
	for _, tc := range telemetryConfigs() {
		plain := New(tc.cfg)
		cfg := tc.cfg
		reg := telemetry.NewRegistry()
		tr := telemetry.NewTracer(1024)
		cfg.Metrics = reg
		cfg.Tracer = tr
		instrumented := New(cfg)

		for _, r := range refs {
			plain.Ref(r)
			instrumented.Ref(r)
		}
		// End of the run loop: publish what the machine tallied, as the
		// real run loops do.
		instrumented.FlushMetrics()

		if plain.Cycles() != instrumented.Cycles() || plain.Instructions() != instrumented.Instructions() {
			t.Fatalf("%s: instrumentation changed timing: cycles %d vs %d, instrs %d vs %d", tc.name,
				plain.Cycles(), instrumented.Cycles(), plain.Instructions(), instrumented.Instructions())
		}
		if pb, ib := plain.Breakdown(), instrumented.Breakdown(); pb != ib {
			t.Fatalf("%s: instrumentation changed the breakdown: %v vs %v", tc.name, pb, ib)
		}

		snap := map[string]telemetry.Metric{}
		for _, m := range reg.Snapshot() {
			snap[m.Name] = m
		}
		for c, name := range map[Component]string{
			CompTLB:    "machine.stall_cycles.tlb",
			CompICache: "machine.stall_cycles.icache",
			CompDCache: "machine.stall_cycles.dcache",
			CompWB:     "machine.stall_cycles.wbuf",
		} {
			if got := uint64(snap[name].Value); got != instrumented.stalls[c] {
				t.Errorf("%s: %s = %d, want %d", tc.name, name, got, instrumented.stalls[c])
			}
		}
		if got := uint64(snap["machine.instructions"].Value); got != instrumented.Instructions() {
			t.Errorf("%s: machine.instructions = %d, want %d", tc.name, got, instrumented.Instructions())
		}
		ics := instrumented.ICache().Stats()
		if got := uint64(snap["machine.icache.read_misses"].Value); got != ics.ReadMisses {
			t.Errorf("%s: machine.icache.read_misses = %d, want %d", tc.name, got, ics.ReadMisses)
		}
		// Every demand I-cache read miss shows up in the miss-cost
		// histogram (a unified array also counts data misses, and
		// prefetches count as reads).
		if !cfg.Unified && !cfg.IPrefetchNextLine {
			if got := snap["machine.icache.miss_cost_cycles"].Count; got != ics.ReadMisses {
				t.Errorf("%s: icache miss-cost histogram count = %d, want %d", tc.name, got, ics.ReadMisses)
			}
		}
		if tr.Total() == 0 {
			t.Errorf("%s: tracer captured no events", tc.name)
		}

		want, err := os.ReadFile(filepath.Join("testdata", "telemetry_"+tc.name+".golden"))
		if err != nil {
			t.Fatal(err)
		}
		if got := snapshotJSONL(t, reg, tr); got != string(want) {
			t.Errorf("%s: registry snapshot differs from the per-event golden:\ngot:\n%s\nwant:\n%s", tc.name, got, want)
		}
		instrumented.FlushMetrics()
		if got := snapshotJSONL(t, reg, tr); got != string(want) {
			t.Errorf("%s: a second FlushMetrics changed the snapshot:\ngot:\n%s\nwant:\n%s", tc.name, got, want)
		}
	}
}

func TestWriteTraceJSONL(t *testing.T) {
	cfg := DECstation3100()
	tr := telemetry.NewTracer(256)
	cfg.Tracer = tr
	m := New(cfg)
	for _, r := range benchRefs(50_000) {
		m.Ref(r)
	}
	var buf bytes.Buffer
	if err := WriteTrace(&buf, tr); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != tr.Len() {
		t.Fatalf("dumped %d lines, tracer holds %d events", len(lines), tr.Len())
	}
	comps := map[string]bool{}
	for i, line := range lines {
		var obj struct {
			Type   string `json:"type"`
			Kind   string `json:"kind"`
			Comp   string `json:"comp"`
			Cycles uint32 `json:"cycles"`
		}
		if err := json.Unmarshal([]byte(line), &obj); err != nil {
			t.Fatalf("line %d invalid JSON: %v", i, err)
		}
		if obj.Type != "event" || obj.Cycles == 0 {
			t.Fatalf("line %d: unexpected event %+v", i, obj)
		}
		switch obj.Kind {
		case trace.IFetch.String(), trace.Load.String(), trace.Store.String():
		default:
			t.Fatalf("line %d: unknown kind %q", i, obj.Kind)
		}
		comps[obj.Comp] = true
	}
	// The window holds only the newest events (TLB misses cluster at
	// cold start and age out), but the steady-state stream keeps
	// missing in the I-cache.
	if !comps["icache"] {
		t.Errorf("expected icache events in the window, got %v", comps)
	}
}
