// Package advisor implements the cache-advisor daemon: an HTTP
// service that answers "given this area budget, OS personality and
// workload mix, which on-chip memory configurations are optimal?"
// with ranked Table 6/7-style allocations, computed by the
// experiments pipeline.
//
// The package is the repository's request-lifecycle hardening layer
// (DESIGN.md section 13). One table of jobs, keyed by the FNV-64a
// request signature and guarded by one mutex, makes every request's
// decision in one step: a running job absorbs identical requests
// (dedup), a job that answered 200 serves repeats byte-identically
// from a bounded LRU, and a table already holding Workers+QueueDepth
// unfinished jobs sheds with 429 + Retry-After instead of queueing
// without bound. Every job runs under a deadline on one of Workers
// execution slots; a failed computation answers 503 and a panicking
// one 500, without taking the daemon down; and graceful drain stops
// admission, finishes unfinished jobs up to a deadline, and
// checkpoints whatever had to be aborted.
package advisor

import (
	"bytes"
	"container/list"
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
	"onchip/internal/obs"
	"onchip/internal/telemetry"
	"onchip/internal/tracecache"
)

// RunFunc computes the answer for one normalized request. The default
// implementation runs experiments.Advise; tests substitute
// deterministic fakes.
type RunFunc func(ctx context.Context, req experiments.AdviseRequest) (*experiments.AdviseResponse, error)

// Config assembles a Server. The zero value of every field selects a
// production default.
type Config struct {
	// Run overrides the experiments-backed runner (tests).
	Run RunFunc
	// Workers is the number of jobs computed at once; 0 selects 2.
	Workers int
	// QueueDepth bounds the admitted jobs waiting for a worker: once
	// Workers+QueueDepth jobs are unfinished, a request that needs a
	// new computation sheds with 429. 0 selects 2x workers.
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
	// TraceCache, when non-nil, short-circuits reference generation on
	// warm runs; a corrupt entry falls back to regeneration.
	TraceCache *tracecache.Cache
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
	slots      chan struct{} // Workers execution slots
	baseCtx    context.Context
	baseCancel context.CancelFunc
	drainOnce  sync.Once
	drainErr   error

	// The request table. mu makes a request's whole decision --
	// draining, cache, dedup, shed or run -- one step, and drain flips
	// draining under it too: once the flag is set, every request either
	// created or joined its job before the flip, and drain waits for
	// that job, or it is refused.
	mu         sync.Mutex
	jobs       map[string]*job // by signature: unfinished, cached or aborted
	lru        *list.List      // cached jobs, most recently used first
	draining   bool
	unfinished int           // admitted jobs not yet finished
	running    int           // unfinished jobs holding an execution slot
	idle       chan struct{} // closed when draining and unfinished is 0

	mRequests, mOK, mShed, mCacheHits, mDedup   *telemetry.Counter
	mPanics, mTimeouts, mErrors, mDrainRejected *telemetry.Counter
	mLatency                                    *telemetry.Histogram
	mInflight                                   *telemetry.Gauge
}

// job is one table entry: the computation admitted for a signature,
// and after a 200 its cached answer. res is final once done is closed;
// waiters read it after the close, cache hits under mu.
type job struct {
	key     string
	req     experiments.AdviseRequest
	done    chan struct{}
	res     result
	cached  *list.Element // the job's place in lru once it answered 200
	aborted bool          // cut short by the drain deadline; kept for the checkpoint
}

// result is the rendered outcome of one job, delivered identically to
// every request that created, joined or hit it: the same status and
// the exact same body bytes.
type result struct {
	status     int
	body       []byte
	retryAfter int // seconds; 0 suppresses the Retry-After header
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
	if cfg.Metrics == nil {
		cfg.Metrics = telemetry.NewRegistry()
	}
	if cfg.Logw == nil {
		cfg.Logw = io.Discard
	}
	if cfg.BaseContext == nil {
		cfg.BaseContext = context.Background()
	}
	// Negative sizes clamp: at least one slot, no negative queue, at
	// least one cached answer.
	cfg.Workers = max(cfg.Workers, 1)
	cfg.QueueDepth = max(cfg.QueueDepth, 0)
	cfg.CacheEntries = max(cfg.CacheEntries, 1)
	s := &Server{
		cfg:   cfg,
		reg:   cfg.Metrics,
		slots: make(chan struct{}, cfg.Workers),
		jobs:  make(map[string]*job),
		lru:   list.New(),
		idle:  make(chan struct{}),
	}
	s.baseCtx, s.baseCancel = context.WithCancel(cfg.BaseContext)
	s.run = cfg.Run
	if s.run == nil {
		s.run = s.defaultRun
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
	s.mLatency = s.reg.In(telemetry.WallClock).Histogram("advisor.latency_us", "job latency, microseconds")
	s.mInflight = r.Gauge("advisor.inflight", "admitted jobs not yet finished")
	r.GaugeFunc("advisor.queue_depth", "admitted-but-unstarted jobs", func() float64 {
		queued, _ := s.load()
		return float64(queued)
	})
	r.GaugeFunc("advisor.flights", "in-flight deduplicated computations", func() float64 {
		_, unfinished := s.load()
		return float64(unfinished)
	})
	return s
}

// Metrics returns the registry the server's counters live in.
func (s *Server) Metrics() *telemetry.Registry { return s.reg }

func (s *Server) logf(format string, args ...any) {
	fmt.Fprintf(s.cfg.Logw, format+"\n", args...)
}

// defaultRun is the experiments-backed runner.
func (s *Server) defaultRun(ctx context.Context, req experiments.AdviseRequest) (*experiments.AdviseResponse, error) {
	return experiments.Advise(req, experiments.Options{Context: ctx, TraceCache: s.cfg.TraceCache})
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
	queued, _ := s.load()
	fmt.Fprintf(w, "{\"ready\":true,\"queue\":%d}\n", queued)
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

	j, source := s.admit(key, req)
	switch source {
	case "draining":
		s.mDrainRejected.Inc()
		s.writeError(w, http.StatusServiceUnavailable, "server is draining", drainRetryAfter)
		return
	case "shed":
		s.mShed.Inc()
		s.writeError(w, http.StatusTooManyRequests, "admission queue full", shedRetryAfter)
		return
	case "cache":
		s.mCacheHits.Inc()
		s.writeResult(w, j.res, key, source)
		return
	case "dedup":
		s.mDedup.Inc()
	}
	// net/http armed the write deadline at WriteTimeout when it read the
	// request header, but the job may queue and then run for up to
	// RequestTimeout: clear the deadline while waiting, and re-arm it
	// for the write.
	obs.ExtendWriteDeadline(w, 0)
	select {
	case <-j.done:
		obs.ExtendWriteDeadline(w, obs.WriteTimeout)
		s.writeResult(w, j.res, key, source)
	case <-r.Context().Done():
		// Client gone; the job keeps running for other waiters and the
		// result cache.
	}
}

// admit decides one request under mu and returns the job it is
// answered from with its source: "cache", "dedup", or "run" for a job
// it creates. A refused request gets no job and the source "draining"
// or "shed".
func (s *Server) admit(key string, req experiments.AdviseRequest) (*job, string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return nil, "draining"
	}
	j := s.jobs[key]
	switch {
	case j != nil && j.cached != nil:
		s.lru.MoveToFront(j.cached)
		return j, "cache"
	case j != nil && !j.aborted:
		return j, "dedup"
	case s.unfinished >= s.cfg.Workers+s.cfg.QueueDepth:
		return nil, "shed"
	}
	j = &job{key: key, req: req, done: make(chan struct{})}
	s.jobs[key] = j
	s.unfinished++
	s.mInflight.Add(1)
	go s.runJob(j)
	return j, "run"
}

// runJob computes an admitted job on an execution slot and publishes
// its answer.
func (s *Server) runJob(j *job) {
	s.slots <- struct{}{}
	s.mu.Lock()
	s.running++
	s.mu.Unlock()
	start := time.Now()
	res, aborted := s.compute(j)
	s.mLatency.Observe(uint64(time.Since(start).Microseconds()))
	<-s.slots
	s.finish(j, res, aborted)
}

// compute runs a job under the request deadline and renders its
// answer. It recovers the job's panics, so a crashing computation
// answers 500 instead of killing the daemon. aborted reports that the
// base context (the drain deadline) cut the job short.
func (s *Server) compute(j *job) (res result, aborted bool) {
	defer func() {
		if r := recover(); r != nil {
			s.mPanics.Inc()
			s.logf("advisor: worker panic on %s: %v", j.key, r)
			res, aborted = result{status: http.StatusInternalServerError, body: errBody("internal error: worker panic")}, false
		}
	}()
	ctx, cancel := context.WithTimeout(s.baseCtx, s.cfg.RequestTimeout)
	defer cancel()
	resp, err := s.run(ctx, j.req)
	switch {
	case err == nil:
		b, err := json.Marshal(resp)
		if err != nil {
			s.mErrors.Inc()
			return result{status: http.StatusInternalServerError, body: errBody(err.Error())}, false
		}
		return result{status: http.StatusOK, body: append(b, '\n')}, false
	case s.baseCtx.Err() != nil:
		// Drain (or final shutdown) aborted the job: answer retryable
		// and keep the request in the table for the checkpoint.
		return result{status: http.StatusServiceUnavailable, body: errBody("server is shutting down"), retryAfter: drainRetryAfter}, true
	case errors.Is(err, context.DeadlineExceeded):
		s.mTimeouts.Inc()
		return result{status: http.StatusGatewayTimeout, body: errBody(fmt.Sprintf("deadline exceeded after %v", s.cfg.RequestTimeout))}, false
	default:
		s.mErrors.Inc()
		s.logf("advisor: job %s failed: %v", j.key, err)
		return result{status: http.StatusServiceUnavailable, body: errBody(err.Error()), retryAfter: 2}, false
	}
}

// finish records a job's answer in the table and wakes its waiters. A
// 200 becomes the cached answer, evicting the least recently used one
// beyond CacheEntries; an aborted job stays for the drain checkpoint;
// any other outcome leaves the table, so the next request runs afresh.
func (s *Server) finish(j *job, res result, aborted bool) {
	s.mu.Lock()
	j.res = res
	switch {
	case res.status == http.StatusOK:
		j.cached = s.lru.PushFront(j)
		if s.lru.Len() > s.cfg.CacheEntries {
			delete(s.jobs, s.lru.Remove(s.lru.Back()).(*job).key)
		}
	case aborted:
		j.aborted = true
	default:
		delete(s.jobs, j.key)
	}
	s.unfinished--
	s.running--
	s.mInflight.Add(-1)
	if s.draining && s.unfinished == 0 {
		close(s.idle)
	}
	s.mu.Unlock()
	close(j.done)
}

// load reports the admitted jobs waiting for a slot and all unfinished
// ones.
func (s *Server) load() (queued, unfinished int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.unfinished - s.running, s.unfinished
}

func (s *Server) writeResult(w http.ResponseWriter, res result, key, source string) {
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

// Pending snapshots the table's unfinished and aborted requests (after
// a drain: the ones the deadline aborted), sorted by signature.
func (s *Server) Pending() []PendingRequest {
	s.mu.Lock()
	var ps []PendingRequest
	for k, j := range s.jobs {
		if j.cached == nil {
			ps = append(ps, PendingRequest{Signature: k, Request: j.req})
		}
	}
	s.mu.Unlock()
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
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
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
	s.mu.Lock()
	s.draining = true
	unfinished, queued := s.unfinished, s.unfinished-s.running
	if unfinished == 0 {
		close(s.idle)
	}
	s.mu.Unlock()
	s.logf("advisor: draining (in-flight %d, queue %d, deadline %v)",
		unfinished, queued, s.cfg.DrainTimeout)
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
