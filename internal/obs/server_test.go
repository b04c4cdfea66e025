package obs

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"onchip/internal/telemetry"
)

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

// The handler serves the index, /metrics and /snapshot, and nothing
// else.
func TestHandleIndexAndNotFound(t *testing.T) {
	h := Handler(telemetry.NewRegistry())
	if rec := get(t, h, "/"); rec.Code != 200 || !strings.Contains(rec.Body.String(), "/metrics") {
		t.Errorf("index: code %d, body %q", rec.Code, rec.Body.String())
	}
	if rec := get(t, h, "/nope"); rec.Code != 404 {
		t.Errorf("unknown path: code %d, want 404", rec.Code)
	}
}

// A registry has no event tail to serve: /events answers 404.
func TestHandleEventsNoTracer(t *testing.T) {
	if rec := get(t, Handler(telemetry.NewRegistry()), "/events"); rec.Code != http.StatusNotFound {
		t.Errorf("no tracer: code %d, want 404", rec.Code)
	}
}

// A registry has no span view to serve: /spans answers 404.
func TestHandleSpansNoTracer(t *testing.T) {
	if rec := get(t, Handler(telemetry.NewRegistry()), "/spans"); rec.Code != http.StatusNotFound {
		t.Errorf("no tracer: code %d, want 404", rec.Code)
	}
}

func TestHandleMetrics(t *testing.T) {
	reg := telemetry.NewRegistry()
	reg.Counter("machine.cycles", "").Add(42)
	rec := get(t, Handler(reg), "/metrics")
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("Content-Type = %q", ct)
	}
	if !strings.Contains(rec.Body.String(), "machine_cycles 42\n") {
		t.Errorf("body = %q, want machine_cycles 42", rec.Body.String())
	}
}

func TestHandleSnapshot(t *testing.T) {
	reg := telemetry.NewRegistry()
	reg.Counter("refs", "").Add(7)
	rec := get(t, Handler(reg), "/snapshot")
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("Content-Type = %q", ct)
	}
	var body map[string]json.RawMessage
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	if len(body) != 1 || body["metrics"] == nil {
		t.Fatalf("body keys = %v, want only metrics", body)
	}
	var metrics []telemetry.Metric
	if err := json.Unmarshal(body["metrics"], &metrics); err != nil {
		t.Fatal(err)
	}
	if len(metrics) != 1 || metrics[0].Name != "refs" || metrics[0].Value != 7 {
		t.Errorf("metrics = %+v", metrics)
	}
}
