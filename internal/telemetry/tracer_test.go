package telemetry

import (
	"io"
	"sync"
	"testing"
)

// TestTracerWraparoundFullDepth pushes past the full Monster-sized
// window (128K events) and checks the ring holds exactly the newest
// DefaultTracerDepth events in order.
func TestTracerWraparoundFullDepth(t *testing.T) {
	const extra = 1000
	tr := NewTracer(0) // DefaultTracerDepth
	total := uint64(DefaultTracerDepth + extra)
	for i := uint64(0); i < total; i++ {
		tr.Record(Event{Cycles: uint32(i)})
	}
	if tr.Total() != total {
		t.Fatalf("Total = %d, want %d", tr.Total(), total)
	}
	if tr.Len() != DefaultTracerDepth {
		t.Fatalf("Len = %d, want %d", tr.Len(), DefaultTracerDepth)
	}
	evs := tr.Events()
	if len(evs) != DefaultTracerDepth {
		t.Fatalf("len(Events) = %d, want %d", len(evs), DefaultTracerDepth)
	}
	if evs[0].Seq != extra {
		t.Errorf("oldest Seq = %d, want %d (first %d evicted)", evs[0].Seq, extra, extra)
	}
	if last := evs[len(evs)-1].Seq; last != total-1 {
		t.Errorf("newest Seq = %d, want %d", last, total-1)
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].Seq != evs[i-1].Seq+1 {
			t.Fatalf("gap in window at %d: %d after %d", i, evs[i].Seq, evs[i-1].Seq)
		}
	}
}

// TestConcurrentRecordAndDump exercises the concurrent surface of the
// ring and the registry -- a simulation recording events and observing
// histograms while readers snapshot and render them -- and relies on
// the -race run in `make check` to prove it safe.
func TestConcurrentRecordAndDump(t *testing.T) {
	tr := NewTracer(256)
	r := NewRegistry()
	man := &Manifest{Command: "test"}
	var wg sync.WaitGroup
	stop := make(chan struct{})

	wg.Add(1)
	go func() { // the simulation: one recorder
		defer wg.Done()
		h := r.Histogram("cost", "")
		c := r.Counter("refs", "")
		for i := 0; i < 20000; i++ {
			tr.Record(Event{Cycles: uint32(i)})
			h.Observe(uint64(i % 100))
			c.Inc()
		}
		close(stop)
	}()
	for i := 0; i < 4; i++ { // concurrent readers
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				tr.WriteJSONL(io.Discard, nil, nil)
				snap := r.Snapshot()
				WriteJSONL(io.Discard, man, snap)
				WritePrometheus(io.Discard, snap)
			}
		}()
	}
	wg.Wait()

	if got := tr.Total(); got != 20000 {
		t.Errorf("Total = %d, want 20000", got)
	}
	snap := r.Snapshot()
	for _, m := range snap {
		switch m.Name {
		case "refs":
			if m.Value != 20000 {
				t.Errorf("refs = %g, want 20000", m.Value)
			}
		case "cost":
			if m.Count != 20000 {
				t.Errorf("cost count = %d, want 20000", m.Count)
			}
		}
	}
}
