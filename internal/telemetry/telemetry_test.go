package telemetry

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"sync"
	"testing"
)

func TestNilInstrumentsAreNoOps(t *testing.T) {
	var r *Registry
	c := r.Counter("c", "")
	g := r.Gauge("g", "")
	h := r.Histogram("h", "")
	r.CounterFunc("cf", "", func() uint64 { return 1 })
	c.Inc()
	c.Add(5)
	g.Set(3)
	h.Observe(7)
	if c.Value() != 0 || g.Value() != 0 || g.Max() != 0 || h.Count() != 0 {
		t.Error("nil instruments must stay zero")
	}
	if got := r.Snapshot(); got != nil {
		t.Errorf("nil registry Snapshot = %v, want nil", got)
	}
	var tr *Tracer
	tr.Record(Event{Cycles: 1})
	if tr.Total() != 0 || tr.Len() != 0 || tr.Events() != nil {
		t.Error("nil tracer must record nothing")
	}
}

func TestCounterGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("refs", "references")
	c.Inc()
	c.Add(9)
	if c.Value() != 10 {
		t.Errorf("counter = %d, want 10", c.Value())
	}
	if c2 := r.Counter("refs", "references"); c2 != c {
		t.Error("get-or-create must return the same counter")
	}
	g := r.Gauge("depth", "")
	g.Set(4)
	g.Set(2)
	if g.Value() != 2 || g.Max() != 4 {
		t.Errorf("gauge value/max = %g/%g, want 2/4", g.Value(), g.Max())
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("cost", "")
	for _, v := range []uint64{0, 1, 1, 6, 7, 13, 400} {
		h.Observe(v)
	}
	if h.Count() != 7 || h.Sum() != 428 {
		t.Fatalf("count/sum = %d/%d, want 7/428", h.Count(), h.Sum())
	}
	want := []Bucket{
		{Lo: 0, Hi: 0, Count: 1},  // 0
		{Lo: 1, Hi: 1, Count: 2},  // 1, 1
		{Lo: 4, Hi: 7, Count: 2},  // 6, 7
		{Lo: 8, Hi: 15, Count: 1}, // 13
		{Lo: 256, Hi: 511, Count: 1},
	}
	got := h.Buckets()
	if len(got) != len(want) {
		t.Fatalf("buckets = %+v, want %+v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("bucket %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	if q := h.Quantile(0.5); q != 7 {
		t.Errorf("p50 = %d, want 7 (bucket upper edge)", q)
	}
	if q := h.Quantile(1); q != 511 {
		t.Errorf("p100 = %d, want 511", q)
	}
}

// A tally published into its histogram must leave exactly what
// observing the same values into the histogram directly leaves, across
// several publishes into one histogram; publishing again with nothing
// new observed adds nothing, and the nil tally is a no-op.
func TestTallyPublishMatchesObserve(t *testing.T) {
	runs := [][]uint64{{0, 1, 1, 6, 7, 13, 400}, {}, {1 << 40, 2, 0}}
	direct, tallied := NewRegistry(), NewRegistry()
	h := direct.Histogram("cost", "per-miss cost")
	for _, run := range runs {
		tl := tallied.Tally("cost", "per-miss cost")
		for _, v := range run {
			h.Observe(v)
			tl.Observe(v)
		}
		tl.Publish()
		if !reflect.DeepEqual(tallied.Snapshot(), direct.Snapshot()) {
			t.Fatalf("published tally %v, want the observed histogram %v", tallied.Snapshot(), direct.Snapshot())
		}
		tl.Publish()
		if !reflect.DeepEqual(tallied.Snapshot(), direct.Snapshot()) {
			t.Fatalf("a second Publish changed the histogram: %v, want %v", tallied.Snapshot(), direct.Snapshot())
		}
	}

	var nilReg *Registry
	tl := nilReg.Tally("cost", "")
	tl.Observe(3)
	tl.Publish()
	if tl != nil {
		t.Error("a nil registry must hand out the nil tally")
	}
}

func TestRegistryTypeClash(t *testing.T) {
	for what, again := range map[string]func(r *Registry){
		"as a gauge":                func(r *Registry) { r.Gauge("x", "") },
		"as an arrangement counter": func(r *Registry) { r.In(Arrangement).Counter("x", "") },
	} {
		r := NewRegistry()
		r.Counter("x", "")
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("registering result counter x again %s should panic", what)
				}
			}()
			again(r)
		}()
	}
}

func TestCounterFuncSumsAcrossOwners(t *testing.T) {
	r := NewRegistry()
	r.CounterFunc("cache.misses", "", func() uint64 { return 3 })
	r.CounterFunc("cache.misses", "", func() uint64 { return 4 })
	snap := r.Snapshot()
	if len(snap) != 1 || snap[0].Value != 7 {
		t.Fatalf("snapshot = %+v, want one metric with value 7", snap)
	}
}

func TestSnapshotSortedAndConcurrentSafe(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				r.Counter("shared", "").Inc()
			}
		}()
	}
	wg.Wait()
	r.Gauge("a.gauge", "")
	snap := r.Snapshot()
	if len(snap) != 2 || snap[0].Name != "a.gauge" || snap[1].Name != "shared" {
		t.Fatalf("snapshot order wrong: %+v", snap)
	}
	if snap[1].Value != 8000 {
		t.Errorf("shared counter = %g, want 8000", snap[1].Value)
	}
}

func TestTracerRingEviction(t *testing.T) {
	tr := NewTracer(4)
	for i := 0; i < 7; i++ {
		tr.Record(Event{Cycles: uint32(i)})
	}
	if tr.Total() != 7 || tr.Len() != 4 {
		t.Fatalf("total/len = %d/%d, want 7/4", tr.Total(), tr.Len())
	}
	evs := tr.Events()
	for i, ev := range evs {
		if want := uint64(3 + i); ev.Seq != want || ev.Cycles != uint32(want) {
			t.Errorf("event %d = seq %d cycles %d, want %d", i, ev.Seq, ev.Cycles, want)
		}
	}
}

func TestWriteJSONLParseable(t *testing.T) {
	r := NewRegistry()
	r.Counter("c", "a counter").Add(2)
	r.In(WallClock).Histogram("h", "").Observe(5)
	var buf bytes.Buffer
	man := &Manifest{Command: "test", Args: []string{"x"}, Labels: map[string]string{"os": "Mach"}}
	if err := WriteJSONL(&buf, man, r.Snapshot()); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("got %d lines, want 3:\n%s", len(lines), buf.String())
	}
	wantTypes := []string{"manifest", "counter", "histogram"}
	for i, line := range lines {
		var obj map[string]any
		if err := json.Unmarshal([]byte(line), &obj); err != nil {
			t.Fatalf("line %d not valid JSON: %v\n%s", i, err, line)
		}
		if obj["type"] != wantTypes[i] {
			t.Errorf("line %d type = %v, want %s", i, obj["type"], wantTypes[i])
		}
		// Results carry no class field; other classes name theirs.
		if class, ok := obj["class"]; (i == 2) != ok || (ok && class != "wallclock") {
			t.Errorf("line %d class = %v (present %v), want wallclock on the histogram only", i, class, ok)
		}
	}
}

func TestTracerWriteJSONLParseable(t *testing.T) {
	tr := NewTracer(8)
	tr.Record(Event{Kind: 1, Addr: 0x1000, ASID: 2, Comp: 0, Cycles: 20})
	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf, func(k uint8) string { return "load" }, func(c uint8) string { return "TLB" }); err != nil {
		t.Fatal(err)
	}
	var obj map[string]any
	if err := json.Unmarshal(buf.Bytes(), &obj); err != nil {
		t.Fatalf("event line not valid JSON: %v\n%s", err, buf.String())
	}
	if obj["kind"] != "load" || obj["comp"] != "TLB" || obj["cycles"] != float64(20) {
		t.Errorf("event fields wrong: %v", obj)
	}
}

func TestNopProbe(t *testing.T) {
	var p Probe = NewTracer(1)
	p.Event(Event{Cycles: 9})
	if p.(*Tracer).Total() != 1 {
		t.Error("tracer should implement Probe")
	}
}
