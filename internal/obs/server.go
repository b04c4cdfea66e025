// Package obs is the reproduction's observability front end: the
// flags and run session every simulation binary shares (session.go),
// a comparator that diffs two -metrics snapshots so CI can gate on
// simulator regressions (runfile.go), and the hardened HTTP server
// configuration plus the metrics handler the advisor daemon mounts.
//
// The batch binaries report through files, as the paper's instruments
// did: Monster's logic analyzer filled its capture window and Tapeworm's
// kernel counted TLB misses by class, and both were read after the run.
// The advisor is the one long-running program, and the one that serves
// its registry over HTTP.
package obs

import (
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"onchip/internal/telemetry"
)

// HTTP hardening limits shared by every embedded server in the
// repository (the advisor daemon and its tests). Without them a slow or
// malicious client can hold a connection -- and the goroutine serving
// it -- open indefinitely: drip-feeding a request header, never reading
// the response, or posting an unbounded body.
const (
	// ReadHeaderTimeout bounds how long a client may take to send the
	// request headers (the classic slowloris hold).
	ReadHeaderTimeout = 5 * time.Second
	// ReadTimeout bounds reading the entire request, body included.
	ReadTimeout = 30 * time.Second
	// WriteTimeout bounds writing the response. A handler that
	// legitimately runs longer (a long advisor computation) extends its
	// own deadline via ExtendWriteDeadline.
	WriteTimeout = 30 * time.Second
	// IdleTimeout reaps keep-alive connections with no request in
	// flight.
	IdleTimeout = 120 * time.Second
	// MaxHeaderBytes caps the request header size.
	MaxHeaderBytes = 16 << 10
	// MaxBodyBytes caps any request body; requests past it fail with
	// 413 via http.MaxBytesHandler.
	MaxBodyBytes = 1 << 20
)

// NewHTTPServer returns an *http.Server with the shared hardening
// limits applied around h: header/read/write/idle timeouts and
// header/body size caps. Every listener in the repository goes through
// here so the limits stay in one place.
func NewHTTPServer(h http.Handler) *http.Server {
	return &http.Server{
		Handler:           http.MaxBytesHandler(h, MaxBodyBytes),
		ReadHeaderTimeout: ReadHeaderTimeout,
		ReadTimeout:       ReadTimeout,
		WriteTimeout:      WriteTimeout,
		IdleTimeout:       IdleTimeout,
		MaxHeaderBytes:    MaxHeaderBytes,
	}
}

// ExtendWriteDeadline pushes the connection's write deadline d into
// the future (zero d clears it entirely), letting a handler that
// legitimately outlives WriteTimeout -- a long advisor computation --
// keep its connection while every other response stays bounded.
// Unsupported writers (test recorders) are a no-op.
func ExtendWriteDeadline(w http.ResponseWriter, d time.Duration) {
	rc := http.NewResponseController(w)
	var t time.Time
	if d > 0 {
		t = time.Now().Add(d)
	}
	rc.SetWriteDeadline(t) // best effort; ErrNotSupported on recorders
}

// Handler serves reg:
//
//	GET /          endpoint index
//	GET /metrics   Prometheus text exposition of the registry
//	GET /snapshot  the metric snapshot as JSON
//
// Every other path answers 404.
func Handler(reg *telemetry.Registry) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprint(w, `onchip observability plane
  /metrics   Prometheus text exposition
  /snapshot  metric snapshot (JSON)
`)
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		telemetry.WritePrometheus(w, reg.Snapshot())
	})
	mux.HandleFunc("/snapshot", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(struct {
			Metrics []telemetry.Metric `json:"metrics"`
		}{reg.Snapshot()})
	})
	return mux
}
