package report_test

import (
	"strings"
	"testing"

	"onchip/internal/telemetry"
)

// The JSONL metrics sink is part of the tool surface (users diff runs),
// so it must be byte-stable. This test pins one registry snapshot
// rendered through it against a golden string.
func goldenRegistry() *telemetry.Registry {
	reg := telemetry.NewRegistry()
	reg.Counter("machine.icache.reads", "load + fetch accesses").Add(123456)
	reg.Counter("machine.icache.read_misses", "load + fetch misses").Add(789)
	g := reg.Gauge("machine.wbuf.depth", "pending write-buffer entries")
	g.Set(3)
	g.Set(2)
	h := reg.Histogram("machine.dcache.miss_cost_cycles", "per-miss fill cost")
	for _, v := range []uint64{6, 6, 14} {
		h.Observe(v)
	}
	return reg
}

const goldenJSONL = `{"type":"manifest","command":"memalloc","args":["table6"],"start":"1994-04-18T09:00:00Z","go_version":"go0.0"}
{"name":"machine.dcache.miss_cost_cycles","type":"histogram","help":"per-miss fill cost","value":8.666666666666666,"count":3,"sum":26,"buckets":[{"lo":4,"hi":7,"count":2},{"lo":8,"hi":15,"count":1}]}
{"name":"machine.icache.read_misses","type":"counter","help":"load + fetch misses","value":789}
{"name":"machine.icache.reads","type":"counter","help":"load + fetch accesses","value":123456}
{"name":"machine.wbuf.depth","type":"gauge","help":"pending write-buffer entries","value":2,"max":3}
`

func TestWriteJSONLGolden(t *testing.T) {
	// The manifest is pinned (a real run stamps wall time and toolchain),
	// so the whole file is reproducible byte for byte.
	m := &telemetry.Manifest{
		Command:   "memalloc",
		Args:      []string{"table6"},
		Start:     "1994-04-18T09:00:00Z",
		GoVersion: "go0.0",
	}
	var b strings.Builder
	if err := telemetry.WriteJSONL(&b, m, goldenRegistry().Snapshot()); err != nil {
		t.Fatal(err)
	}
	if b.String() != goldenJSONL {
		t.Errorf("WriteJSONL output drifted from golden:\ngot:\n%q\nwant:\n%q", b.String(), goldenJSONL)
	}
}
