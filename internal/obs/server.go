// Package obs is the reproduction's observability front end: the
// flags and run session every simulation binary shares (session.go),
// an embeddable HTTP server that exposes the telemetry layer of a
// running simulation (Prometheus metrics, JSON snapshots, a
// server-sent-events tail of the Monster-style stall-event ring and the
// execution-span summary), and a comparator that diffs two -metrics
// snapshots so CI can gate on simulator regressions.
//
// Where internal/telemetry alone is one-shot and in-process — capture
// during the run, dump at exit — this package is the serving side: the
// paper's Monster monitor watched the DECstation's pins live through a
// logic analyzer, and `-serve` gives every long-running binary the same
// property over HTTP.
package obs

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"sync"
	"time"

	"onchip/internal/spans"
	"onchip/internal/telemetry"
)

// Config assembles a Server around a run's telemetry.
type Config struct {
	// Registry is the run's metric registry; /metrics and /snapshot
	// read it. Required.
	Registry *telemetry.Registry
	// Tracer, when non-nil, is the stall-event ring tailed by /events.
	Tracer *telemetry.Tracer
	// Manifest, when non-nil, identifies the run in /snapshot output.
	Manifest *telemetry.Manifest
	// KindName and CompName translate event codes for the /events
	// stream (the machine package supplies machine.KindName and
	// machine.CompName); nil funcs emit raw numbers.
	KindName, CompName func(uint8) string
	// Spans, when non-nil, is the run's execution-span tracer: /spans
	// serves its live summary (per-phase self-time, per-worker
	// utilization, worker imbalance, open spans) or, with ?format=chrome,
	// the full Chrome trace-event JSON.
	Spans *spans.Tracer
}

// eventPoll is how often an /events tail checks the ring for new
// events.
const eventPoll = 250 * time.Millisecond

// HTTP hardening limits shared by every embedded server in the
// repository (the observability plane here, and the advisor daemon).
// Without them a slow or malicious client can hold a connection -- and
// the goroutine serving it -- open indefinitely: drip-feeding a request
// header, never reading the response, or posting an unbounded body.
const (
	// ReadHeaderTimeout bounds how long a client may take to send the
	// request headers (the classic slowloris hold).
	ReadHeaderTimeout = 5 * time.Second
	// ReadTimeout bounds reading the entire request, body included.
	ReadTimeout = 30 * time.Second
	// WriteTimeout bounds writing the response. Handlers that
	// legitimately stream longer (the /events SSE tail, a long advisor
	// computation) extend their own deadline via ExtendWriteDeadline.
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
// legitimately outlives WriteTimeout -- an SSE stream, a long advisor
// computation -- keep its connection while every other response stays
// bounded. Unsupported writers (test recorders) are a no-op.
func ExtendWriteDeadline(w http.ResponseWriter, d time.Duration) {
	rc := http.NewResponseController(w)
	var t time.Time
	if d > 0 {
		t = time.Now().Add(d)
	}
	rc.SetWriteDeadline(t) // best effort; ErrNotSupported on recorders
}

// Server is the embeddable observability endpoint. Create one with New,
// mount Handler on any mux or call Start to listen-and-serve, and Close
// when the run ends.
type Server struct {
	cfg Config

	closeOnce sync.Once
	done      chan struct{}
	httpSrv   *http.Server
}

// New returns a server over the given telemetry. It does not listen
// until Start is called; Handler can instead be mounted on an existing
// mux (the tests do, via httptest).
func New(cfg Config) *Server {
	return &Server{
		cfg:  cfg,
		done: make(chan struct{}),
	}
}

// Start listens on addr (":6060", "localhost:0", ...) and serves the
// observability endpoints. It returns the bound address, which differs
// from addr when a kernel-assigned port was requested.
func (s *Server) Start(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	s.httpSrv = NewHTTPServer(s.Handler())
	go s.httpSrv.Serve(ln)
	return ln.Addr().String(), nil
}

// Close stops the HTTP server, severing any open event streams. Safe to
// call more than once.
func (s *Server) Close() error {
	var err error
	s.closeOnce.Do(func() {
		close(s.done)
		if s.httpSrv != nil {
			err = s.httpSrv.Close()
		}
	})
	return err
}

// Handler returns the observability mux:
//
//	GET /          endpoint index
//	GET /metrics   Prometheus text exposition of the registry
//	GET /snapshot  manifest + full metric snapshot as JSON
//	GET /events    server-sent-events tail of the stall-event ring
//	GET /spans     execution-span summary or Chrome trace
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/", s.handleIndex)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/snapshot", s.handleSnapshot)
	mux.HandleFunc("/events", s.handleEvents)
	mux.HandleFunc("/spans", s.handleSpans)
	return mux
}

func (s *Server) handleIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprint(w, `onchip observability plane
  /metrics   Prometheus text exposition
  /snapshot  run manifest + metric snapshot (JSON)
  /events    stall-event ring tail (SSE; ?since=SEQ, ?n=MAX)
  /spans     execution-span summary: phase self-time, worker utilization,
             worker imbalance, open spans (?format=chrome downloads the trace)
`)
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	telemetry.WritePrometheus(w, s.cfg.Registry.Snapshot())
}

func (s *Server) handleSnapshot(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, struct {
		Manifest *telemetry.Manifest `json:"manifest,omitempty"`
		Metrics  []telemetry.Metric  `json:"metrics"`
	}{s.cfg.Manifest, s.cfg.Registry.Snapshot()})
}

// handleSpans serves the execution-span tracer: the default JSON body
// is the live Summary (per-phase total/self time, per-lane utilization
// with the group pool's worker lanes, worker-imbalance ratio, and the
// open-span tree); ?format=chrome streams the full Chrome trace-event
// JSON for Perfetto, current to the moment of the request.
func (s *Server) handleSpans(w http.ResponseWriter, r *http.Request) {
	if s.cfg.Spans == nil {
		http.Error(w, "no span tracer attached to this run (start with -spans FILE or -serve)", http.StatusNotFound)
		return
	}
	switch format := r.URL.Query().Get("format"); format {
	case "", "summary":
		writeJSON(w, s.cfg.Spans.Summarize())
	case "chrome":
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Content-Disposition", `attachment; filename="spans.trace.json"`)
		s.cfg.Spans.WriteChromeTrace(w)
	default:
		http.Error(w, fmt.Sprintf("unknown format %q (want summary or chrome)", format), http.StatusBadRequest)
	}
}

// handleEvents streams the stall-event ring as server-sent events: each
// event is one `data:` line of the same JSON WriteJSONL emits, with the
// event sequence number as the SSE id. ?since=SEQ starts the tail at a
// sequence number (default 0 replays the captured window first);
// ?n=MAX closes the stream after MAX events, for curl-friendly peeks.
// A slow consumer skips evicted events rather than stalling the
// simulator.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	flusher, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusInternalServerError)
		return
	}
	if s.cfg.Tracer == nil {
		http.Error(w, "no event ring attached to this run", http.StatusNotFound)
		return
	}
	var since uint64
	if v := r.URL.Query().Get("since"); v != "" {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			http.Error(w, "bad since: "+err.Error(), http.StatusBadRequest)
			return
		}
		since = n
	}
	max := -1
	if v := r.URL.Query().Get("n"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			http.Error(w, "bad n", http.StatusBadRequest)
			return
		}
		max = n
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	// The stream outlives the server's WriteTimeout by design; clear
	// the deadline for this connection only. The client's departure
	// still ends the handler via r.Context().
	ExtendWriteDeadline(w, 0)
	w.WriteHeader(http.StatusOK)
	flusher.Flush()

	poll := time.NewTicker(eventPoll)
	defer poll.Stop()
	var line []byte
	sent := 0
	for {
		evs, next := s.cfg.Tracer.EventsSince(since)
		since = next
		for _, ev := range evs {
			line = append(line[:0], "id: "...)
			line = strconv.AppendUint(line, ev.Seq, 10)
			line = append(line, "\ndata: "...)
			line = ev.AppendJSON(line, s.cfg.KindName, s.cfg.CompName)
			line = append(line, '\n', '\n')
			if _, err := w.Write(line); err != nil {
				return
			}
			sent++
			if max >= 0 && sent >= max {
				flusher.Flush()
				return
			}
		}
		if len(evs) > 0 {
			flusher.Flush()
		}
		select {
		case <-r.Context().Done():
			return
		case <-s.done:
			return
		case <-poll.C:
		}
	}
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}
