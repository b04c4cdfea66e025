package obs

import (
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"strings"
	"testing"
	"time"

	"onchip/internal/spans"
	"onchip/internal/telemetry"
	"onchip/internal/tsdb"
)

// TestServerStartCloseNoGoroutineLeak pins the server's shutdown
// contract: repeated Start/Close cycles -- with the sampler ticking
// into a tsdb appender, a span tracer attached, and real HTTP requests
// served -- must return the process to its baseline goroutine count.
// Each cycle waits for the sampler to record an obs.sample span while
// the tracer is summarized, so under -race this also exercises the
// sampler's span recording against concurrent /spans summarization.
func TestServerStartCloseNoGoroutineLeak(t *testing.T) {
	reg := telemetry.NewRegistry()
	tr := spans.New(0)
	tr.SetMetrics(reg)
	samples := func() int {
		for _, p := range tr.Summarize().Phases {
			if p.Name == "obs.sample" {
				return p.Count
			}
		}
		return 0
	}

	base := runtime.NumGoroutine()
	for i := 0; i < 3; i++ {
		app, err := tsdb.Create(t.TempDir(), fmt.Sprintf("run%d", i), telemetry.Manifest{}, tsdb.Options{FlushEvery: -1})
		if err != nil {
			t.Fatal(err)
		}
		srv := New(Config{Registry: reg, SampleEvery: time.Millisecond, Spans: tr, TSDB: app})
		addr, err := srv.Start("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Get("http://" + addr + "/spans")
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET /spans: status %d", resp.StatusCode)
		}
		resp.Body.Close()
		want := samples() + 1
		for deadline := time.Now().Add(5 * time.Second); samples() < want; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("cycle %d: the sampler recorded no obs.sample span in 5s", i)
			}
		}
		if err := srv.Close(); err != nil {
			t.Fatal(err)
		}
		if err := app.Close(); err != nil {
			t.Fatal(err)
		}
	}
	http.DefaultClient.CloseIdleConnections()

	// Goroutine teardown is asynchronous (Serve goroutines unwind after
	// Close returns); settle with a deadline instead of asserting
	// immediately. Allow +2 slack for runtime-internal goroutines; a
	// real leak here is >= 2 per cycle, which 3 cycles puts well past it.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= base+2 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutine leak: %d at baseline, %d after 3 Start/Close cycles\n%s",
				base, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestHandleSpansNoTracer(t *testing.T) {
	srv, _, _ := testServer(t)
	if rec := get(t, srv.Handler(), "/spans"); rec.Code != http.StatusNotFound {
		t.Errorf("no tracer: code %d, want 404", rec.Code)
	}
}

func TestHandleSpans(t *testing.T) {
	tr := spans.New(0)
	outer := tr.Lane("main").Start("sweep.model")
	outer.End()
	worker := tr.WorkerLane("sweep/test.worker.0")
	job := worker.Start("sweep.job")
	job.End()

	srv := New(Config{Registry: telemetry.NewRegistry(), Spans: tr})
	t.Cleanup(func() { srv.Close() })
	h := srv.Handler()

	rec := get(t, h, "/spans")
	if rec.Code != http.StatusOK {
		t.Fatalf("/spans: code %d", rec.Code)
	}
	var sum spans.Summary
	if err := json.Unmarshal(rec.Body.Bytes(), &sum); err != nil {
		t.Fatalf("summary JSON: %v", err)
	}
	if sum.Recorded != 2 || len(sum.Phases) != 2 || len(sum.Lanes) != 2 {
		t.Errorf("summary: recorded %d, %d phases, %d lanes; want 2, 2, 2",
			sum.Recorded, len(sum.Phases), len(sum.Lanes))
	}
	workers := 0
	for _, l := range sum.Lanes {
		if l.Worker {
			workers++
			if l.UtilizationPct <= 0 && l.BusySeconds > 0 {
				t.Errorf("worker lane %s: busy %v but utilization %v", l.Name, l.BusySeconds, l.UtilizationPct)
			}
		}
	}
	if workers != 1 {
		t.Errorf("worker lanes: %d, want 1", workers)
	}

	rec = get(t, h, "/spans?format=chrome")
	if rec.Code != http.StatusOK {
		t.Fatalf("/spans?format=chrome: code %d", rec.Code)
	}
	if cd := rec.Header().Get("Content-Disposition"); !strings.Contains(cd, "spans.trace.json") {
		t.Errorf("Content-Disposition = %q", cd)
	}
	var trace struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &trace); err != nil {
		t.Fatalf("chrome trace JSON: %v", err)
	}
	if len(trace.TraceEvents) == 0 {
		t.Error("chrome trace: no events")
	}

	if rec := get(t, h, "/spans?format=bogus"); rec.Code != http.StatusBadRequest {
		t.Errorf("bogus format: code %d, want 400", rec.Code)
	}
}
