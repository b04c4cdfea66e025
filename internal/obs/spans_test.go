package obs

import (
	"bufio"
	"encoding/json"
	"io"
	"net/http"
	"runtime"
	"strings"
	"testing"
	"time"

	"onchip/internal/spans"
	"onchip/internal/telemetry"
)

// TestServerStartCloseNoGoroutineLeak pins the server's shutdown
// contract: repeated Start/Close cycles -- with a span tracer and a
// stall-event ring attached, real HTTP requests served, and an /events
// tail still open when Close runs -- must end every stream and return
// the process to its baseline goroutine count.
func TestServerStartCloseNoGoroutineLeak(t *testing.T) {
	reg := telemetry.NewRegistry()
	tr := spans.New(0)
	base := runtime.NumGoroutine()
	for i := 0; i < 3; i++ {
		ring := telemetry.NewTracer(8)
		srv := New(Config{Registry: reg, Tracer: ring, Spans: tr})
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

		// Open an unbounded tail and read its first event, so the handler
		// is inside its poll loop when Close runs.
		ring.Record(telemetry.Event{Addr: uint32(i), Cycles: 1})
		tail, err := http.Get("http://" + addr + "/events")
		if err != nil {
			t.Fatal(err)
		}
		body := bufio.NewReader(tail.Body)
		for {
			line, err := body.ReadString('\n')
			if err != nil {
				t.Fatalf("cycle %d: /events ended before its first event: %v", i, err)
			}
			if strings.HasPrefix(line, "data: ") {
				break
			}
		}
		if err := srv.Close(); err != nil {
			t.Fatal(err)
		}
		ended := make(chan struct{})
		go func() {
			io.Copy(io.Discard, body)
			close(ended)
		}()
		select {
		case <-ended:
		case <-time.After(5 * time.Second):
			t.Fatalf("cycle %d: the /events tail was still open 5s after Close", i)
		}
		tail.Body.Close()
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
