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

func TestTracerEventsSince(t *testing.T) {
	tr := NewTracer(4)
	evs, next := tr.EventsSince(0)
	if len(evs) != 0 || next != 0 {
		t.Fatalf("empty ring: got %d events, next %d", len(evs), next)
	}
	for i := 0; i < 10; i++ {
		tr.Record(Event{})
	}
	// Seqs 0..5 evicted; a reader asking from 0 resumes at the oldest
	// survivor instead of stalling.
	evs, next = tr.EventsSince(0)
	if len(evs) != 4 || evs[0].Seq != 6 || next != 10 {
		t.Fatalf("after wrap: %d events from %d, next %d; want 4 from 6, next 10", len(evs), evs[0].Seq, next)
	}
	// Tail is caught up: nothing new.
	evs, next = tr.EventsSince(next)
	if len(evs) != 0 || next != 10 {
		t.Fatalf("caught up: got %d events, next %d", len(evs), next)
	}
	tr.Record(Event{})
	evs, next = tr.EventsSince(next)
	if len(evs) != 1 || evs[0].Seq != 10 || next != 11 {
		t.Fatalf("incremental: got %d events, next %d", len(evs), next)
	}
}

// TestConcurrentRecordAndDump exercises the full concurrent surface the
// live observability server creates -- a simulation recording events and
// observing histograms while HTTP handlers snapshot, render and tail --
// and relies on the -race run in `make check` to prove it safe.
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
	for i := 0; i < 4; i++ { // the serving side: concurrent readers
		wg.Add(1)
		go func() {
			defer wg.Done()
			var since uint64
			for {
				select {
				case <-stop:
					return
				default:
				}
				var evs []Event
				evs, since = tr.EventsSince(since)
				var line []byte
				for _, ev := range evs {
					line = ev.AppendJSON(line[:0], nil, nil)
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
