package monitor

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"onchip/internal/machine"
	"onchip/internal/osmodel"
	"onchip/internal/telemetry"
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
			rows, err := measureSuite(context.Background(), osmodel.Mach, specs, refs, cfg, width)
			if err != nil {
				t.Fatalf("depth %d width %d: %v", tc.depth, width, err)
			}
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
	rows, err := measureSuite(ctx, osmodel.Mach, specs, refs, cfg, 2)
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
	measureSuite(context.Background(), osmodel.Mach, []osmodel.WorkloadSpec{workload.MAB(), bad}, 10_000, machine.DECstation3100(), 2)
}
