// Package advisor implements the cache-advisor daemon: an HTTP
// service that answers "given this area budget, OS personality and
// workload mix, which on-chip memory configurations are optimal?"
// with ranked Table 6/7-style allocations, computed by the
// experiments pipeline.
//
// The package is the repository's request-lifecycle hardening layer
// (DESIGN.md section 13). Every request runs under a deadline; a
// bounded worker pool with a bounded admission queue sheds overload
// with 429 + Retry-After instead of queueing without bound;
// identical concurrent requests collapse onto one computation
// (singleflight keyed by the FNV-64a request signature) and a bounded
// LRU serves repeats byte-identically; a circuit breaker around the
// trace-cache store trips to live regeneration when the disk
// misbehaves; panicking workers answer 500 without taking the daemon
// down; and graceful drain stops admission, finishes in-flight work
// up to a deadline, and checkpoints whatever had to be aborted.
package advisor

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"sync"
	"time"

	"onchip/internal/experiments"
	"onchip/internal/faultinject"
	"onchip/internal/obs"
	"onchip/internal/telemetry"
	"onchip/internal/tracecache"
)

// RunFunc computes the answer for one normalized request. useCache
// reports whether the trace-cache store may be consulted (false while
// the circuit breaker is open). The default implementation runs
// experiments.Advise; tests substitute deterministic fakes.
type RunFunc func(ctx context.Context, req experiments.AdviseRequest, useCache bool) (*experiments.AdviseResponse, error)

// Config assembles a Server. The zero value of every field selects a
// production default.
type Config struct {
	// Run overrides the experiments-backed runner (tests).
	Run RunFunc
	// Workers is the sweep worker count; 0 selects 2.
	Workers int
	// QueueDepth bounds the admission queue beyond the workers; a full
	// queue sheds with 429. 0 selects 2x workers.
	QueueDepth int
	// RequestTimeout bounds each computation; 0 selects 2 minutes.
	RequestTimeout time.Duration
	// DrainTimeout bounds the graceful-drain wait for in-flight work;
	// 0 selects 30 seconds.
	DrainTimeout time.Duration
	// CacheEntries bounds the LRU of rendered responses; 0 selects 64.
	CacheEntries int
	// MaxRefs caps the per-workload reference count one request may
	// demand; 0 selects 50,000,000.
	MaxRefs int
	// BreakerThreshold is the consecutive trace-cache failures that
	// open the breaker; 0 selects 3.
	BreakerThreshold int
	// BreakerCooldown is the open period before a probe; 0 selects 30s.
	BreakerCooldown time.Duration
	// TraceCache, when non-nil, short-circuits reference generation on
	// warm runs. The server installs itself as the cache's corrupt-event
	// hook to drive the breaker.
	TraceCache *tracecache.Cache
	// FaultInjector and FaultRetries thread through to the experiments
	// pipeline (chaos testing).
	FaultInjector *faultinject.Injector
	FaultRetries  int
	// CheckpointPath, when non-empty, receives a JSON checkpoint of the
	// requests that were admitted but aborted by the drain deadline.
	CheckpointPath string
	// Metrics receives the advisor's counters and gauges; nil creates a
	// private registry (see Server.Metrics).
	Metrics *telemetry.Registry
	// Logw receives operational log lines; nil discards them.
	Logw io.Writer
	// BaseContext parents every job context; nil selects Background.
	// Cancelling it aborts all in-flight work.
	BaseContext context.Context
}

// Server is the advisor daemon's request-processing core. Mount
// Handler on an obs-hardened HTTP server (obs.NewHTTPServer) and call
// Drain on shutdown.
type Server struct {
	cfg        Config
	reg        *telemetry.Registry
	run        RunFunc
	pool       *pool
	flights    *flightGroup
	cache      *lruCache
	breaker    *Breaker
	baseCtx    context.Context
	baseCancel context.CancelFunc
	drainOnce  sync.Once
	drainErr   error

	// The drain gate. gateMu makes the draining check and the inflight
	// count one step, and drain flips draining under it too: once the
	// flag is set, every request either was counted before the flip or
	// is refused. A counted request hands its count to the job it
	// admits, or gives it back.
	gateMu        sync.Mutex
	draining      bool
	inflight      int           // counted requests and jobs drain waits for
	idle          chan struct{} // closed when draining and inflight is 0
	hookAfterGate func()        // test seam: runs right after a request is counted

	pendMu  sync.Mutex
	pending map[string]experiments.AdviseRequest

	mRequests, mOK, mShed, mCacheHits, mDedup   *telemetry.Counter
	mPanics, mTimeouts, mErrors, mDrainRejected *telemetry.Counter
	mLiveRegen                                  *telemetry.Counter
	mLatency                                    *telemetry.Histogram
	mInflight                                   *telemetry.Gauge
}

// Retry-After values (seconds) for the two backpressure answers: shed
// requests can retry as soon as a queue slot frees; a draining server
// will not come back, so steer clients away longer.
const (
	shedRetryAfter  = 1
	drainRetryAfter = 30
)

// New returns a Server ready to serve. It does not listen; the caller
// mounts Handler.
func New(cfg Config) *Server {
	if cfg.Workers == 0 {
		cfg.Workers = 2
	}
	if cfg.QueueDepth == 0 {
		cfg.QueueDepth = 2 * cfg.Workers
	}
	if cfg.RequestTimeout == 0 {
		cfg.RequestTimeout = 2 * time.Minute
	}
	if cfg.DrainTimeout == 0 {
		cfg.DrainTimeout = 30 * time.Second
	}
	if cfg.CacheEntries == 0 {
		cfg.CacheEntries = 64
	}
	if cfg.MaxRefs == 0 {
		cfg.MaxRefs = 50_000_000
	}
	if cfg.BreakerThreshold == 0 {
		cfg.BreakerThreshold = 3
	}
	if cfg.BreakerCooldown == 0 {
		cfg.BreakerCooldown = 30 * time.Second
	}
	if cfg.Metrics == nil {
		cfg.Metrics = telemetry.NewRegistry()
	}
	if cfg.Logw == nil {
		cfg.Logw = io.Discard
	}
	if cfg.BaseContext == nil {
		cfg.BaseContext = context.Background()
	}
	s := &Server{
		cfg:     cfg,
		reg:     cfg.Metrics,
		pool:    newPool(cfg.Workers, cfg.QueueDepth),
		flights: newFlightGroup(),
		cache:   newLRU(cfg.CacheEntries),
		breaker: NewBreaker(cfg.BreakerThreshold, cfg.BreakerCooldown),
		pending: make(map[string]experiments.AdviseRequest),
		idle:    make(chan struct{}),
	}
	s.baseCtx, s.baseCancel = context.WithCancel(cfg.BaseContext)
	s.run = cfg.Run
	if s.run == nil {
		s.run = s.defaultRun
	}
	if cfg.TraceCache != nil {
		cfg.TraceCache.OnCorrupt(func(addr string, err error) {
			s.breaker.Failure()
			s.logf("advisor: trace-cache corruption at %s: %v (breaker %s)", addr, err, s.breaker.State())
		})
	}
	// Traffic and state depend on who asked what, and when, not on any
	// answer: they register as arrangement metrics, and the latency as
	// wall clock, so no determinism gate compares them.
	r := s.reg.In(telemetry.Arrangement)
	s.mRequests = r.Counter("advisor.requests", "advise requests received")
	s.mOK = r.Counter("advisor.ok", "200 responses delivered")
	s.mShed = r.Counter("advisor.shed", "requests shed with 429 (admission queue full)")
	s.mCacheHits = r.Counter("advisor.cache_hits", "responses served from the LRU result cache")
	s.mDedup = r.Counter("advisor.dedup", "requests collapsed onto an in-flight computation")
	s.mPanics = r.Counter("advisor.panics", "worker panics isolated and answered with 500")
	s.mTimeouts = r.Counter("advisor.timeouts", "jobs that hit the per-request deadline (504)")
	s.mErrors = r.Counter("advisor.errors", "jobs that failed (503)")
	s.mDrainRejected = r.Counter("advisor.drain_rejected", "requests refused because the server is draining")
	s.mLiveRegen = r.Counter("advisor.live_regen", "jobs routed around the trace cache by the open breaker")
	s.mLatency = s.reg.In(telemetry.WallClock).Histogram("advisor.latency_us", "job latency, microseconds")
	s.mInflight = r.Gauge("advisor.inflight", "admitted jobs not yet finished")
	r.GaugeFunc("advisor.queue_depth", "admitted-but-unstarted jobs", func() float64 {
		return float64(s.pool.QueueLen())
	})
	r.GaugeFunc("advisor.breaker_state", "trace-cache breaker: 0 closed, 1 open, 2 half-open", func() float64 {
		return float64(s.breaker.State())
	})
	r.GaugeFunc("advisor.flights", "in-flight deduplicated computations", func() float64 {
		return float64(s.flights.Len())
	})
	return s
}

// Metrics returns the registry the server's counters live in.
func (s *Server) Metrics() *telemetry.Registry { return s.reg }

// Breaker returns the trace-cache circuit breaker (tests, readyz).
func (s *Server) Breaker() *Breaker { return s.breaker }

func (s *Server) logf(format string, args ...any) {
	fmt.Fprintf(s.cfg.Logw, format+"\n", args...)
}

// defaultRun is the experiments-backed runner.
func (s *Server) defaultRun(ctx context.Context, req experiments.AdviseRequest, useCache bool) (*experiments.AdviseResponse, error) {
	opt := experiments.Options{
		Context:       ctx,
		FaultInjector: s.cfg.FaultInjector,
		FaultRetries:  s.cfg.FaultRetries,
	}
	if useCache {
		opt.TraceCache = s.cfg.TraceCache
	}
	return experiments.Advise(req, opt)
}

// Handler returns the advisor's routes: POST /advise, GET /healthz,
// GET /readyz. Mount on obs.NewHTTPServer for the hardened timeouts
// and body limits.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /advise", s.handleAdvise)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	return mux
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	io.WriteString(w, "ok\n")
}

func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	if s.Draining() {
		w.Header().Set("Retry-After", fmt.Sprint(drainRetryAfter))
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintf(w, "{\"ready\":false,\"reason\":\"draining\"}\n")
		return
	}
	fmt.Fprintf(w, "{\"ready\":true,\"queue\":%d,\"breaker\":%q}\n",
		s.pool.QueueLen(), s.breaker.State())
}

func (s *Server) handleAdvise(w http.ResponseWriter, r *http.Request) {
	s.mRequests.Inc()
	// The obs-hardened server already caps bodies; cap again here so a
	// bare Handler mount (tests) is safe too.
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, obs.MaxBodyBytes))
	if err != nil {
		s.writeError(w, http.StatusBadRequest, fmt.Sprintf("reading body: %v", err), 0)
		return
	}
	var req experiments.AdviseRequest
	if len(bytes.TrimSpace(body)) > 0 {
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&req); err != nil {
			s.writeError(w, http.StatusBadRequest, fmt.Sprintf("parsing request: %v", err), 0)
			return
		}
	}
	if err := req.Normalize(s.cfg.MaxRefs); err != nil {
		s.writeError(w, http.StatusBadRequest, err.Error(), 0)
		return
	}
	key := req.Signature()

	if !s.enter() {
		s.mDrainRejected.Inc()
		s.writeError(w, http.StatusServiceUnavailable, "server is draining", drainRetryAfter)
		return
	}
	if s.hookAfterGate != nil {
		s.hookAfterGate()
	}
	if cached, ok := s.cache.Get(key); ok {
		s.leave()
		s.mCacheHits.Inc()
		s.writeResult(w, flightResult{status: http.StatusOK, body: cached}, key, "cache")
		return
	}

	admit := func(c *flightCall) bool {
		s.addPending(key, req)
		if !s.pool.TrySubmit(func() { s.runJob(key, req, c) }) {
			s.removePending(key)
			return false
		}
		s.mInflight.Add(1)
		return true
	}
	c, joined, admitted := s.flights.Join(key, admit)
	if joined || !admitted {
		s.leave() // only a job this request admitted keeps its count
	}
	if !admitted {
		s.mShed.Inc()
		s.writeError(w, http.StatusTooManyRequests, "admission queue full", shedRetryAfter)
		return
	}
	source := "run"
	if joined {
		s.mDedup.Inc()
		source = "dedup"
	}
	select {
	case <-c.done:
		s.writeResult(w, c.res, key, source)
	case <-r.Context().Done():
		// Client gone; the job keeps running for other waiters and the
		// result cache.
	}
}

// runJob executes one admitted request on a pool worker and publishes
// the result to every flight waiter. It recovers its own panics so a
// crashing computation answers 500 instead of killing the daemon.
func (s *Server) runJob(key string, req experiments.AdviseRequest, c *flightCall) {
	start := time.Now()
	res := flightResult{status: http.StatusInternalServerError, body: errBody("internal error")}
	aborted := false
	defer func() {
		if r := recover(); r != nil {
			s.mPanics.Inc()
			s.logf("advisor: worker panic on %s: %v", key, r)
			res = flightResult{status: http.StatusInternalServerError, body: errBody("internal error: worker panic")}
			aborted = false
		}
		if !aborted {
			s.removePending(key)
		}
		s.flights.finish(key, c, res)
		s.mLatency.Observe(uint64(time.Since(start).Microseconds()))
		s.mInflight.Add(-1)
		s.leave()
	}()

	ctx, cancel := context.WithTimeout(s.baseCtx, s.cfg.RequestTimeout)
	defer cancel()
	useCache := s.cfg.TraceCache != nil && s.breaker.Allow()
	if s.cfg.TraceCache != nil && !useCache {
		s.mLiveRegen.Inc()
	}
	resp, err := s.run(ctx, req, useCache)
	switch {
	case err == nil:
		b, merr := json.Marshal(resp)
		if merr != nil {
			s.mErrors.Inc()
			res = flightResult{status: http.StatusInternalServerError, body: errBody(merr.Error())}
			return
		}
		b = append(b, '\n')
		s.cache.Add(key, b)
		res = flightResult{status: http.StatusOK, body: b}
		if useCache {
			s.breaker.Success()
		}
	case s.baseCtx.Err() != nil:
		// Drain (or final shutdown) aborted the job: answer retryable
		// and leave the request in the pending set for the checkpoint.
		aborted = true
		res = flightResult{status: http.StatusServiceUnavailable, body: errBody("server is shutting down"), retryAfter: drainRetryAfter}
	case errors.Is(err, context.DeadlineExceeded):
		s.mTimeouts.Inc()
		res = flightResult{status: http.StatusGatewayTimeout, body: errBody(fmt.Sprintf("deadline exceeded after %v", s.cfg.RequestTimeout))}
	default:
		s.mErrors.Inc()
		s.logf("advisor: job %s failed: %v", key, err)
		res = flightResult{status: http.StatusServiceUnavailable, body: errBody(err.Error()), retryAfter: 2}
	}
}

func (s *Server) writeResult(w http.ResponseWriter, res flightResult, key, source string) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Advisor-Signature", key)
	w.Header().Set("X-Advisor-Source", source)
	if res.retryAfter > 0 {
		w.Header().Set("Retry-After", fmt.Sprint(res.retryAfter))
	}
	w.WriteHeader(res.status)
	w.Write(res.body)
	if res.status == http.StatusOK {
		s.mOK.Inc()
	}
}

func (s *Server) writeError(w http.ResponseWriter, status int, msg string, retryAfter int) {
	w.Header().Set("Content-Type", "application/json")
	if retryAfter > 0 {
		w.Header().Set("Retry-After", fmt.Sprint(retryAfter))
	}
	w.WriteHeader(status)
	w.Write(errBody(msg))
}

func errBody(msg string) []byte {
	b, _ := json.Marshal(map[string]string{"error": msg})
	return append(b, '\n')
}

func (s *Server) addPending(key string, req experiments.AdviseRequest) {
	s.pendMu.Lock()
	s.pending[key] = req
	s.pendMu.Unlock()
}

func (s *Server) removePending(key string) {
	s.pendMu.Lock()
	delete(s.pending, key)
	s.pendMu.Unlock()
}

// Pending snapshots the admitted-but-unfinished requests (after a
// drain: the ones the deadline aborted), sorted by signature.
func (s *Server) Pending() []PendingRequest {
	s.pendMu.Lock()
	defer s.pendMu.Unlock()
	var ps []PendingRequest
	for k, r := range s.pending {
		ps = append(ps, PendingRequest{Signature: k, Request: r})
	}
	sort.Slice(ps, func(i, j int) bool { return ps[i].Signature < ps[j].Signature })
	return ps
}

// PendingRequest is one checkpointed request a drain could not finish.
type PendingRequest struct {
	Signature string                    `json:"signature"`
	Request   experiments.AdviseRequest `json:"request"`
}

// DrainCheckpoint is the JSON written to Config.CheckpointPath when
// the drain deadline aborts work: enough to re-issue the lost
// requests after restart.
type DrainCheckpoint struct {
	Pending []PendingRequest `json:"pending"`
}

// Draining reports whether admission has stopped.
func (s *Server) Draining() bool {
	s.gateMu.Lock()
	defer s.gateMu.Unlock()
	return s.draining
}

// enter counts a request in inflight, or reports false once drain has
// flipped the flag. The check and the count are one step under gateMu,
// so drain never misses a request that got past the check.
func (s *Server) enter() bool {
	s.gateMu.Lock()
	defer s.gateMu.Unlock()
	if s.draining {
		return false
	}
	s.inflight++
	return true
}

// leave gives back one count taken by enter, and wakes drain when it
// was the last.
func (s *Server) leave() {
	s.gateMu.Lock()
	defer s.gateMu.Unlock()
	s.inflight--
	if s.draining && s.inflight == 0 {
		close(s.idle)
	}
}

// Drain performs the graceful-shutdown contract: stop admitting new
// requests, wait for in-flight work up to DrainTimeout, then abort
// the remainder (they answer 503) and checkpoint their requests to
// CheckpointPath. Idempotent; the first call's error is returned to
// all callers.
func (s *Server) Drain() error {
	s.drainOnce.Do(func() { s.drainErr = s.drain() })
	return s.drainErr
}

func (s *Server) drain() error {
	s.gateMu.Lock()
	s.draining = true
	inflight := s.inflight
	if inflight == 0 {
		close(s.idle)
	}
	s.gateMu.Unlock()
	s.logf("advisor: draining (in-flight %d, queue %d, deadline %v)",
		inflight, s.pool.QueueLen(), s.cfg.DrainTimeout)
	timer := time.NewTimer(s.cfg.DrainTimeout)
	defer timer.Stop()
	select {
	case <-s.idle:
		s.logf("advisor: drain complete; all in-flight work finished")
	case <-timer.C:
		s.logf("advisor: drain deadline exceeded; aborting in-flight work")
		s.baseCancel()
		<-s.idle
	}
	s.pool.Close()
	s.baseCancel()
	return s.writeDrainCheckpoint()
}

func (s *Server) writeDrainCheckpoint() error {
	pending := s.Pending()
	if s.cfg.CheckpointPath == "" {
		if len(pending) > 0 {
			s.logf("advisor: %d aborted request(s) lost (no checkpoint path)", len(pending))
		}
		return nil
	}
	if len(pending) == 0 {
		// Nothing aborted: remove any stale checkpoint so a clean drain
		// leaves no work to replay.
		if err := os.Remove(s.cfg.CheckpointPath); err != nil && !os.IsNotExist(err) {
			return fmt.Errorf("advisor: clearing checkpoint: %w", err)
		}
		return nil
	}
	b, err := json.MarshalIndent(DrainCheckpoint{Pending: pending}, "", "  ")
	if err != nil {
		return fmt.Errorf("advisor: marshal checkpoint: %w", err)
	}
	if err := os.WriteFile(s.cfg.CheckpointPath, append(b, '\n'), 0o644); err != nil {
		return fmt.Errorf("advisor: write checkpoint: %w", err)
	}
	s.logf("advisor: checkpointed %d aborted request(s) to %s", len(pending), s.cfg.CheckpointPath)
	return nil
}
