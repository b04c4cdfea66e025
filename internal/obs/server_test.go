package obs

import (
	"bufio"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"onchip/internal/telemetry"
)

func testServer(t *testing.T) (*Server, *telemetry.Registry, *telemetry.Tracer) {
	t.Helper()
	reg := telemetry.NewRegistry()
	tr := telemetry.NewTracer(8)
	srv := New(Config{
		Registry: reg,
		Tracer:   tr,
		Manifest: &telemetry.Manifest{Command: "test", Labels: map[string]string{"suite": "obs"}},
		KindName: func(k uint8) string { return "kind" },
		CompName: func(c uint8) string { return "comp" },
	})
	t.Cleanup(func() { srv.Close() })
	return srv, reg, tr
}

func get(t *testing.T, h http.Handler, path string) *httptest.ResponseRecorder {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
	return rec
}

// NewHTTPServer must apply every hardening limit: a drip-fed or
// never-reading client is bounded by the timeouts, and oversized
// headers/bodies are rejected rather than buffered without limit.
func TestNewHTTPServerHardening(t *testing.T) {
	srv := NewHTTPServer(http.NotFoundHandler())
	if srv.ReadHeaderTimeout != ReadHeaderTimeout || srv.ReadTimeout != ReadTimeout ||
		srv.WriteTimeout != WriteTimeout || srv.IdleTimeout != IdleTimeout {
		t.Errorf("timeouts not applied: %+v", srv)
	}
	if srv.MaxHeaderBytes != MaxHeaderBytes {
		t.Errorf("MaxHeaderBytes = %d, want %d", srv.MaxHeaderBytes, MaxHeaderBytes)
	}

	// The body cap comes from http.MaxBytesHandler: a request body over
	// MaxBodyBytes fails with 413 instead of being read to completion.
	echo := NewHTTPServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if _, err := io.Copy(io.Discard, r.Body); err != nil {
			http.Error(w, err.Error(), http.StatusRequestEntityTooLarge)
			return
		}
		w.WriteHeader(http.StatusOK)
	}))
	ts := httptest.NewServer(echo.Handler)
	defer ts.Close()
	big := strings.NewReader(strings.Repeat("x", MaxBodyBytes+1))
	resp, err := http.Post(ts.URL, "application/octet-stream", big)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized body got %d, want 413", resp.StatusCode)
	}
	small := strings.NewReader("ok")
	resp, err = http.Post(ts.URL, "application/octet-stream", small)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("small body got %d, want 200", resp.StatusCode)
	}
}

// The SSE stream must survive past WriteTimeout: handleEvents clears
// its write deadline, so a tail open longer than the server-wide limit
// keeps receiving events (here the limit is not actually waited out --
// the test just proves the deadline-clearing path runs end-to-end over
// a real connection).
func TestEventsStreamClearsWriteDeadline(t *testing.T) {
	srv, _, tr := testServer(t)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	tr.Record(telemetry.Event{Addr: 1, Cycles: 1})
	resp, err := http.Get("http://" + addr + "/events?n=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(body), "data:") {
		t.Errorf("no SSE data over hardened server: %q", body)
	}
}

func TestHandleIndexAndNotFound(t *testing.T) {
	srv, _, _ := testServer(t)
	h := srv.Handler()
	if rec := get(t, h, "/"); rec.Code != 200 || !strings.Contains(rec.Body.String(), "/metrics") {
		t.Errorf("index: code %d, body %q", rec.Code, rec.Body.String())
	}
	if rec := get(t, h, "/nope"); rec.Code != 404 {
		t.Errorf("unknown path: code %d, want 404", rec.Code)
	}
}

func TestHandleMetrics(t *testing.T) {
	srv, reg, _ := testServer(t)
	reg.Counter("machine.cycles", "").Add(42)
	rec := get(t, srv.Handler(), "/metrics")
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("Content-Type = %q", ct)
	}
	if !strings.Contains(rec.Body.String(), "machine_cycles 42\n") {
		t.Errorf("body = %q, want machine_cycles 42", rec.Body.String())
	}
}

func TestHandleSnapshot(t *testing.T) {
	srv, reg, _ := testServer(t)
	reg.Counter("refs", "").Add(7)
	rec := get(t, srv.Handler(), "/snapshot")
	var body struct {
		Manifest *telemetry.Manifest `json:"manifest"`
		Metrics  []telemetry.Metric  `json:"metrics"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	if body.Manifest == nil || body.Manifest.Command != "test" {
		t.Errorf("manifest = %+v", body.Manifest)
	}
	if len(body.Metrics) != 1 || body.Metrics[0].Name != "refs" || body.Metrics[0].Value != 7 {
		t.Errorf("metrics = %+v", body.Metrics)
	}
}

// TestHandleEventsSSE runs the server over a real socket (the SSE
// handler needs a streaming ResponseWriter) and tails the event ring.
func TestHandleEventsSSE(t *testing.T) {
	srv, _, tr := testServer(t)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ { // depth 8: seqs 4..11 survive
		tr.Record(telemetry.Event{Addr: uint32(i), Cycles: uint32(i)})
	}
	resp, err := http.Get("http://" + addr + "/events?n=3")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Errorf("Content-Type = %q", ct)
	}
	sc := bufio.NewScanner(resp.Body)
	var ids, datas []string
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "id: "):
			ids = append(ids, strings.TrimPrefix(line, "id: "))
		case strings.HasPrefix(line, "data: "):
			datas = append(datas, strings.TrimPrefix(line, "data: "))
		}
	}
	if err := sc.Err(); err != nil && err != io.EOF {
		t.Fatal(err)
	}
	// ?n=3 closes after three events; the tail starts at the oldest
	// survivor (seq 4), not at the evicted seq 0.
	if len(ids) != 3 || ids[0] != "4" || ids[2] != "6" {
		t.Fatalf("ids = %v, want [4 5 6]", ids)
	}
	var ev struct {
		Type   string `json:"type"`
		Seq    uint64 `json:"seq"`
		Kind   string `json:"kind"`
		Comp   string `json:"comp"`
		Cycles uint32 `json:"cycles"`
	}
	if err := json.Unmarshal([]byte(datas[0]), &ev); err != nil {
		t.Fatalf("data %q: %v", datas[0], err)
	}
	if ev.Type != "event" || ev.Seq != 4 || ev.Kind != "kind" || ev.Comp != "comp" || ev.Cycles != 4 {
		t.Errorf("event = %+v", ev)
	}
}

func TestHandleEventsNoTracer(t *testing.T) {
	srv := New(Config{Registry: telemetry.NewRegistry()})
	defer srv.Close()
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get("http://" + addr + "/events")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 404 {
		t.Errorf("code = %d, want 404", resp.StatusCode)
	}
}
