package telemetry

import (
	"reflect"
	"testing"
)

// recordBefore and recordRow are two runs' recordings over overlapping
// names: what a registry holds before a fold, and one row's own.
func recordBefore(r *Registry) {
	r.Counter("c.both", "").Add(3)
	r.Counter("c.before", "").Add(1)
	r.In(Arrangement).Counter("arr.both", "arrangement").Add(2)
	g := r.Gauge("g.both", "")
	g.Set(5)
	g.Set(3)
	r.Gauge("g.set_before_only", "").Set(7)
	r.Gauge("g.lower_in_row", "").Set(9)
	h := r.Histogram("h.both", "")
	for _, v := range []uint64{0, 1, 100} {
		h.Observe(v)
	}
	r.GaugeFunc("f.sum", "float order", func() float64 { return 1e16 })
	r.CounterFunc("f.count", "", func() uint64 { return 4 })
}

func recordRow(r *Registry) {
	r.Counter("c.both", "").Add(4)
	r.Counter("c.row", "row only").Add(6)
	r.In(Arrangement).Counter("arr.both", "arrangement").Add(5)
	g := r.Gauge("g.both", "")
	for _, v := range []float64{4, 8, 1} {
		g.Set(v)
	}
	r.Gauge("g.set_before_only", "")
	r.Gauge("g.lower_in_row", "").Set(2)
	r.Gauge("g.row_never_set", "")
	r.Gauge("g.row_only", "").Set(-1.5)
	h := r.Histogram("h.both", "")
	h.Observe(5)
	h.Observe(1 << 40)
	r.Histogram("h.row", "").Observe(3)
	// 1e16 + 1 rounds back to 1e16, so the sum depends on the order:
	// the serial ((1e16 + 1) + 1) is 1e16, a presummed 1e16 + 2 is not.
	r.GaugeFunc("f.sum", "float order", func() float64 { return 1 })
	r.GaugeFunc("f.sum", "float order", func() float64 { return 1 })
	r.In(WallClock).GaugeFunc("f.wall", "", func() float64 { return 0.25 })
	r.CounterFunc("f.count", "", func() uint64 { return 2 })
}

// Folding a row's own instruments must leave the destination exactly as
// recording the row into it directly (the suite's fold relies on it).
func TestAbsorbMatchesSerial(t *testing.T) {
	t.Run("registry", testRegistryAbsorb)
	t.Run("tracer", testTracerAbsorb)
}

// Recording a row into its own registry and folding it must leave the
// destination exactly as recording the row into it directly: counters
// and histograms add, a gauge takes the row's last value and the
// larger maximum unless the row never set it, a name only the row knows
// arrives with its class and help, and pull-style callbacks keep their
// order, so float sums come out bit-identical.
func testRegistryAbsorb(t *testing.T) {
	serial := NewRegistry()
	recordBefore(serial)
	recordRow(serial)

	folded, row := NewRegistry(), NewRegistry()
	recordBefore(folded)
	recordRow(row)
	folded.Absorb(row)

	want, got := serial.Snapshot(), folded.Snapshot()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("folded snapshot differs from serial:\n got %+v\nwant %+v", got, want)
	}
	byName := map[string]Metric{}
	for _, m := range got {
		byName[m.Name] = m
	}
	for name, wantV := range map[string]float64{
		"c.both": 7, "arr.both": 7, "g.both": 1, "g.set_before_only": 7,
		"g.lower_in_row": 2, "g.row_never_set": 0, "g.row_only": -1.5, "f.sum": 1e16, "f.count": 6,
	} {
		if m, ok := byName[name]; !ok || m.Value != wantV {
			t.Errorf("%s = %+v, want value %g", name, m, wantV)
		}
	}
	if m := byName["g.lower_in_row"]; m.Max != 9 {
		t.Errorf("g.lower_in_row max = %g, want 9", m.Max)
	}
	if m := byName["h.both"]; m.Count != 5 || m.Sum != 106+1<<40 {
		t.Errorf("h.both count/sum = %d/%d, want 5/%d", m.Count, m.Sum, 106+1<<40)
	}

	folded.Absorb(nil)
	var nilReg *Registry
	nilReg.Absorb(row)
	if got := folded.Snapshot(); !reflect.DeepEqual(got, want) {
		t.Error("absorbing a nil registry changed the destination")
	}
}

// Folding a row's ring must leave the destination ring exactly as
// recording the row into it directly -- window, Seq numbers, total and
// the place of every later Record -- whether or not the row's own ring
// evicted events, when the row's ring is deeper, and across a reused
// (Reset) row ring. A shallower row ring cannot be exact and panics.
func testTracerAbsorb(t *testing.T) {
	const depth = 8
	ev := func(i int) Event { return Event{Addr: uint32(i), Cycles: uint32(3 * i)} }
	for _, tc := range []struct {
		name     string
		rowDepth int
		before   int
		rows     []int // events per folded row
	}{
		{"row ring kept everything", depth, 5, []int{3}},
		{"row ring evicted", depth, 5, []int{20}},
		{"empty destination, row evicted", depth, 0, []int{11}},
		{"empty row", depth, 6, []int{0}},
		{"reused row ring", depth, 2, []int{3, 9, 1, 4}},
		{"deeper row ring", 3 * depth, 5, []int{13, 30}},
	} {
		serial, folded, row := NewTracer(depth), NewTracer(depth), NewTracer(tc.rowDepth)
		k := 0
		for ; k < tc.before; k++ {
			serial.Record(ev(k))
			folded.Record(ev(k))
		}
		for _, n := range tc.rows {
			row.Reset()
			for i := 0; i < n; i++ {
				serial.Record(ev(k))
				row.Record(ev(k))
				k++
			}
			folded.Absorb(row)
		}
		check := func(when string) {
			t.Helper()
			if got, want := folded.Events(), serial.Events(); !reflect.DeepEqual(got, want) {
				t.Errorf("%s, %s: window %+v, want %+v", tc.name, when, got, want)
			}
			if folded.Total() != serial.Total() || folded.Len() != serial.Len() {
				t.Errorf("%s, %s: total/len %d/%d, want %d/%d", tc.name, when,
					folded.Total(), folded.Len(), serial.Total(), serial.Len())
			}
		}
		check("after the fold")
		for i := 0; i < 5; i++ {
			serial.Record(ev(k))
			folded.Record(ev(k))
			k++
		}
		check("after later records")
	}

	defer func() {
		if recover() == nil {
			t.Error("absorbing a shallower ring did not panic")
		}
	}()
	NewTracer(depth).Absorb(NewTracer(depth - 1))
}
