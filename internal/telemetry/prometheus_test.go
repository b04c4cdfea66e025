package telemetry

import (
	"strings"
	"testing"
)

func TestPromName(t *testing.T) {
	cases := []struct{ in, want string }{
		{"machine.stall_cycles.tlb", "machine_stall_cycles_tlb"},
		{"sweep.workloads_done", "sweep_workloads_done"},
		{"already_legal:name", "already_legal:name"},
		{"9starts.with-digit", "_starts_with_digit"}, // leading digit illegal
		{"weird chars!", "weird_chars_"},
		{"", ""},
	}
	for _, c := range cases {
		if got := PromName(c.in); got != c.want {
			t.Errorf("PromName(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

// TestWritePrometheusGolden pins the exposition format byte-for-byte:
// counter and gauge sample lines, the gauge's _max companion, and the
// histogram's cumulative buckets over the log2 upper edges with the
// +Inf terminator, _sum and _count.
func TestWritePrometheusGolden(t *testing.T) {
	r := NewRegistry()
	r.Counter("machine.cycles", "machine cycles").Add(1234)
	g := r.Gauge("sweep.depth", "")
	g.Set(7)
	g.Set(3)
	h := r.Histogram("tlb.miss_cost", "cycles per TLB miss")
	for _, v := range []uint64{0, 1, 1, 6, 7, 13, 400} {
		h.Observe(v)
	}

	var b strings.Builder
	if err := WritePrometheus(&b, r.Snapshot()); err != nil {
		t.Fatal(err)
	}
	want := `# HELP machine_cycles machine cycles
# TYPE machine_cycles counter
machine_cycles 1234
# TYPE sweep_depth gauge
sweep_depth 3
# TYPE sweep_depth_max gauge
sweep_depth_max 7
# HELP tlb_miss_cost cycles per TLB miss
# TYPE tlb_miss_cost histogram
tlb_miss_cost_bucket{le="0"} 1
tlb_miss_cost_bucket{le="1"} 3
tlb_miss_cost_bucket{le="7"} 5
tlb_miss_cost_bucket{le="15"} 6
tlb_miss_cost_bucket{le="511"} 7
tlb_miss_cost_bucket{le="+Inf"} 7
tlb_miss_cost_sum 428
tlb_miss_cost_count 7
`
	if got := b.String(); got != want {
		t.Errorf("exposition mismatch:\ngot:\n%s\nwant:\n%s", got, want)
	}
}
