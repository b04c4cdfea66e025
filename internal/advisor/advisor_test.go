package advisor

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"onchip/internal/experiments"
)

func postAdvise(t *testing.T, url string, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url+"/advise", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST /advise: %v", err)
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("reading body: %v", err)
	}
	return resp, b
}

// fakeResponse builds a deterministic response for a request so fake
// runners produce stable, signature-dependent bodies.
func fakeResponse(req experiments.AdviseRequest) *experiments.AdviseResponse {
	return &experiments.AdviseResponse{
		Signature: req.Signature(),
		Request:   req,
		Feasible:  1,
		Allocations: []experiments.RankedAllocation{
			{Rank: 1, TLB: "fake", ICache: "fake", DCache: "fake", AreaRBE: req.BudgetRBE, CPI: 2.0},
		},
	}
}

func TestLRUBoundsAndRecency(t *testing.T) {
	c := newLRU(2)
	c.Add("a", []byte("A"))
	c.Add("b", []byte("B"))
	if _, ok := c.Get("a"); !ok {
		t.Fatal("a should be cached")
	}
	c.Add("c", []byte("C")) // evicts b (a was refreshed)
	if _, ok := c.Get("b"); ok {
		t.Fatal("b should have been evicted as least recently used")
	}
	if got, ok := c.Get("a"); !ok || string(got) != "A" {
		t.Fatalf("a should survive, got %q ok=%v", got, ok)
	}
	if c.Len() != 2 {
		t.Fatalf("len = %d, want 2", c.Len())
	}
}

// TestSingleflightIdenticalBytes is the satellite-4 dedup contract:
// concurrent identical requests run the pipeline once and every
// waiter receives byte-identical 200 bodies.
func TestSingleflightIdenticalBytes(t *testing.T) {
	var mu sync.Mutex
	runs := 0
	gate := make(chan struct{})
	srv := New(Config{
		Workers: 4,
		Run: func(ctx context.Context, req experiments.AdviseRequest) (*experiments.AdviseResponse, error) {
			mu.Lock()
			runs++
			mu.Unlock()
			<-gate // hold every arrival in flight until all waiters joined
			return fakeResponse(req), nil
		},
	})
	defer srv.Drain()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	const waiters = 8
	bodies := make([][]byte, waiters)
	var wg sync.WaitGroup
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, b := postAdvise(t, ts.URL, `{"workloads":["mab"],"refs":2000}`)
			if resp.StatusCode != http.StatusOK {
				t.Errorf("waiter %d: status %d body %s", i, resp.StatusCode, b)
			}
			bodies[i] = b
		}(i)
	}
	// Wait until all eight requests registered (1 leader + 7 dedups),
	// then release the single computation.
	deadline := time.Now().Add(5 * time.Second)
	for srv.mDedup.Value() < waiters-1 {
		if time.Now().After(deadline) {
			t.Fatalf("dedup waiters = %d, want %d", srv.mDedup.Value(), waiters-1)
		}
		time.Sleep(time.Millisecond)
	}
	close(gate)
	wg.Wait()

	for i := 1; i < waiters; i++ {
		if !bytes.Equal(bodies[0], bodies[i]) {
			t.Fatalf("waiter %d body differs from waiter 0:\n%s\nvs\n%s", i, bodies[i], bodies[0])
		}
	}
	if runs != 1 {
		t.Fatalf("pipeline ran %d times for %d identical requests, want 1", runs, waiters)
	}
	if srv.mDedup.Value() != waiters-1 {
		t.Fatalf("dedup counter = %d, want %d", srv.mDedup.Value(), waiters-1)
	}
}

func TestCacheHitIsByteIdentical(t *testing.T) {
	srv := New(Config{
		Workers: 1,
		Run: func(ctx context.Context, req experiments.AdviseRequest) (*experiments.AdviseResponse, error) {
			return fakeResponse(req), nil
		},
	})
	defer srv.Drain()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	_, first := postAdvise(t, ts.URL, `{"workloads":["mab"],"refs":2000}`)
	resp, second := postAdvise(t, ts.URL, `{"workloads":["mab"],"refs":2000}`)
	if resp.Header.Get("X-Advisor-Source") != "cache" {
		t.Fatalf("second request source = %q, want cache", resp.Header.Get("X-Advisor-Source"))
	}
	if !bytes.Equal(first, second) {
		t.Fatal("cache hit body differs from the run that populated it")
	}
	if srv.mCacheHits.Value() != 1 {
		t.Fatalf("cache_hits = %d, want 1", srv.mCacheHits.Value())
	}
}

func TestOverloadShedsWith429(t *testing.T) {
	gate := make(chan struct{})
	srv := New(Config{
		Workers:    1,
		QueueDepth: 1,
		Run: func(ctx context.Context, req experiments.AdviseRequest) (*experiments.AdviseResponse, error) {
			<-gate
			return fakeResponse(req), nil
		},
	})
	defer srv.Drain()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Distinct signatures so nothing dedups: 1 running + 1 queued
	// admitted, the third must shed.
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			postAdvise(t, ts.URL, fmt.Sprintf(`{"workloads":["mab"],"refs":%d}`, 2000+i))
		}(i)
	}
	deadline := time.Now().Add(5 * time.Second)
	for int(srv.mInflight.Value()) < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("inflight = %v, want 2", srv.mInflight.Value())
		}
		time.Sleep(time.Millisecond)
	}
	resp, body := postAdvise(t, ts.URL, `{"workloads":["mab"],"refs":9000}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overload status = %d body %s, want 429", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 must carry Retry-After")
	}
	if srv.mShed.Value() != 1 {
		t.Fatalf("shed = %d, want 1", srv.mShed.Value())
	}
	close(gate)
	wg.Wait()
}

func TestRequestDeadlineAnswers504(t *testing.T) {
	srv := New(Config{
		Workers:        1,
		RequestTimeout: 30 * time.Millisecond,
		Run: func(ctx context.Context, req experiments.AdviseRequest) (*experiments.AdviseResponse, error) {
			<-ctx.Done()
			return nil, ctx.Err()
		},
	})
	defer srv.Drain()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, body := postAdvise(t, ts.URL, `{"workloads":["mab"],"refs":2000}`)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status = %d body %s, want 504", resp.StatusCode, body)
	}
	if srv.mTimeouts.Value() != 1 {
		t.Fatalf("timeouts = %d, want 1", srv.mTimeouts.Value())
	}
}

// A job may outlive the server's WriteTimeout -- it can queue and then
// run for up to RequestTimeout -- and its answer must still reach the
// client, not an EOF.
func TestLongJobOutlivesWriteTimeout(t *testing.T) {
	srv := New(Config{
		Workers: 1,
		Run: func(ctx context.Context, req experiments.AdviseRequest) (*experiments.AdviseResponse, error) {
			time.Sleep(600 * time.Millisecond)
			return fakeResponse(req), nil
		},
	})
	defer srv.Drain()
	ts := httptest.NewUnstartedServer(srv.Handler())
	ts.Config.WriteTimeout = 300 * time.Millisecond
	ts.Start()
	defer ts.Close()

	resp, body := postAdvise(t, ts.URL, `{"workloads":["mab"],"refs":2000}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d body %s, want 200", resp.StatusCode, body)
	}
	req := experiments.AdviseRequest{Workloads: []string{"mab"}, Refs: 2000}
	if err := req.Normalize(0); err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(fakeResponse(req))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(body, append(want, '\n')) {
		t.Fatalf("body = %s, want %s", body, want)
	}
}

func TestWorkerPanicIsIsolated(t *testing.T) {
	calls := 0
	var mu sync.Mutex
	srv := New(Config{
		Workers: 1,
		Run: func(ctx context.Context, req experiments.AdviseRequest) (*experiments.AdviseResponse, error) {
			mu.Lock()
			calls++
			first := calls == 1
			mu.Unlock()
			if first {
				panic("chaos: injected worker panic")
			}
			return fakeResponse(req), nil
		},
	})
	defer srv.Drain()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, body := postAdvise(t, ts.URL, `{"workloads":["mab"],"refs":2000}`)
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("panicking job: status = %d body %s, want 500", resp.StatusCode, body)
	}
	if !bytes.Contains(body, []byte("panic")) {
		t.Fatalf("500 body should mention the panic, got %s", body)
	}
	// The daemon survives: a different request succeeds on the same worker.
	resp, body = postAdvise(t, ts.URL, `{"workloads":["mab"],"refs":3000}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-panic status = %d body %s, want 200", resp.StatusCode, body)
	}
	if srv.mPanics.Value() != 1 {
		t.Fatalf("panics = %d, want 1", srv.mPanics.Value())
	}
}

func TestBadRequestsAnswer400(t *testing.T) {
	srv := New(Config{Workers: 1, MaxRefs: 10_000, Run: func(ctx context.Context, req experiments.AdviseRequest) (*experiments.AdviseResponse, error) {
		return fakeResponse(req), nil
	}})
	defer srv.Drain()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	for _, body := range []string{
		`{"os":"plan9"}`,
		`{"workloads":["no_such_workload"]}`,
		`{"refs":50}`,
		`{"refs":1000000}`, // over MaxRefs
		`{"max_cache_assoc":3}`,
		`{"top":-1}`,
		`{"unknown_field":1}`,
		`{not json`,
	} {
		resp, b := postAdvise(t, ts.URL, body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("body %s: status = %d (%s), want 400", body, resp.StatusCode, b)
		}
	}
	if got := srv.mOK.Value(); got != 0 {
		t.Fatalf("ok = %d, want 0", got)
	}
}

func TestGracefulDrainFinishesInFlight(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "drain.json")
	release := make(chan struct{})
	srv := New(Config{
		Workers:        2,
		DrainTimeout:   5 * time.Second,
		CheckpointPath: ckpt,
		Run: func(ctx context.Context, req experiments.AdviseRequest) (*experiments.AdviseResponse, error) {
			<-release
			return fakeResponse(req), nil
		},
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	type result struct {
		status int
		body   []byte
	}
	got := make(chan result, 1)
	go func() {
		resp, b := postAdvise(t, ts.URL, `{"workloads":["mab"],"refs":2000}`)
		got <- result{resp.StatusCode, b}
	}()
	deadline := time.Now().Add(5 * time.Second)
	for int(srv.mInflight.Value()) < 1 {
		if time.Now().After(deadline) {
			t.Fatal("request never admitted")
		}
		time.Sleep(time.Millisecond)
	}

	drained := make(chan error, 1)
	go func() { drained <- srv.Drain() }()
	// New work is refused while draining...
	for !srv.Draining() {
		time.Sleep(time.Millisecond)
	}
	resp, _ := postAdvise(t, ts.URL, `{"workloads":["mab"],"refs":3000}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("during drain: status = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("drain 503 must carry Retry-After")
	}
	// ...but the in-flight request completes with its real answer.
	close(release)
	r := <-got
	if r.status != http.StatusOK {
		t.Fatalf("in-flight request during drain: status = %d body %s, want 200", r.status, r.body)
	}
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
	if n := len(srv.Pending()); n != 0 {
		t.Fatalf("pending after clean drain = %d, want 0", n)
	}
	if _, err := os.Stat(ckpt); !os.IsNotExist(err) {
		t.Fatalf("clean drain should leave no checkpoint, stat err = %v", err)
	}
	// Readiness reflects the drained state.
	readyResp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	readyResp.Body.Close()
	if readyResp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz after drain = %d, want 503", readyResp.StatusCode)
	}
}

// logLines is a Logw that hands each log line to a channel.
type logLines chan string

func (l logLines) Write(p []byte) (int, error) {
	l <- string(p)
	return len(p), nil
}

// TestDrainWaitsForRequestPastTheCheck pins the drain gate. The
// hookAfterGate seam parks a request after it passed the draining
// check and before it was admitted, and drain flips the flag while it
// is parked. The parked request must already be counted in what drain
// waits for: once released it is admitted and answered 200, and Drain
// waits for its job. A request that arrives after the flip answers 503.
func TestDrainWaitsForRequestPastTheCheck(t *testing.T) {
	parked, release := make(chan struct{}), make(chan struct{})
	logs := make(logLines, 2) // drain logs two lines
	srv := New(Config{
		Workers:      1,
		DrainTimeout: time.Hour,
		Logw:         logs,
		Run: func(ctx context.Context, req experiments.AdviseRequest) (*experiments.AdviseResponse, error) {
			return fakeResponse(req), nil
		},
	})
	var once sync.Once
	srv.hookAfterGate = func() {
		once.Do(func() {
			close(parked)
			<-release
		})
	}
	post := func(body string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest("POST", "/advise", strings.NewReader(body)))
		return rec
	}

	first := make(chan *httptest.ResponseRecorder, 1)
	go func() { first <- post(`{"workloads":["mab"],"refs":2000}`) }()
	<-parked
	drained := make(chan error, 1)
	go func() { drained <- srv.Drain() }()

	// Drain's first log line comes right after the flip and reports how
	// many requests and jobs it waits for.
	line := <-logs
	var waiting int
	if _, err := fmt.Sscanf(line, "advisor: draining (in-flight %d", &waiting); err != nil {
		t.Fatalf("drain log %q: %v", line, err)
	}
	if waiting != 1 {
		t.Errorf("drain flipped with %d request(s) counted, want the parked one", waiting)
	}
	if rec := post(`{"workloads":["mab"],"refs":3000}`); rec.Code != http.StatusServiceUnavailable {
		t.Errorf("request after the flip: status %d, want 503", rec.Code)
	}
	close(release)
	if rec := <-first; rec.Code != http.StatusOK {
		t.Errorf("parked request: status %d %s, want 200", rec.Code, strings.TrimSpace(rec.Body.String()))
	}
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
	if got := srv.mDrainRejected.Value(); got != 1 {
		t.Errorf("drain_rejected = %d, want 1", got)
	}
}

func TestDrainDeadlineAbortsAndCheckpoints(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "drain.json")
	srv := New(Config{
		Workers:        1,
		DrainTimeout:   50 * time.Millisecond,
		CheckpointPath: ckpt,
		Run: func(ctx context.Context, req experiments.AdviseRequest) (*experiments.AdviseResponse, error) {
			<-ctx.Done() // only the drain abort ends this job
			return nil, ctx.Err()
		},
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	got := make(chan int, 1)
	go func() {
		resp, _ := postAdvise(t, ts.URL, `{"workloads":["mab"],"refs":2000}`)
		got <- resp.StatusCode
	}()
	deadline := time.Now().Add(5 * time.Second)
	for int(srv.mInflight.Value()) < 1 {
		if time.Now().After(deadline) {
			t.Fatal("request never admitted")
		}
		time.Sleep(time.Millisecond)
	}
	if err := srv.Drain(); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if status := <-got; status != http.StatusServiceUnavailable {
		t.Fatalf("aborted request status = %d, want 503", status)
	}

	// The aborted request is checkpointed for replay after restart.
	b, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatalf("reading drain checkpoint: %v", err)
	}
	var cp DrainCheckpoint
	if err := json.Unmarshal(b, &cp); err != nil {
		t.Fatalf("parsing drain checkpoint: %v", err)
	}
	if len(cp.Pending) != 1 {
		t.Fatalf("checkpointed %d requests, want 1: %s", len(cp.Pending), b)
	}
	want := experiments.AdviseRequest{Workloads: []string{"mab"}, Refs: 2000}
	if err := want.Normalize(0); err != nil {
		t.Fatal(err)
	}
	if cp.Pending[0].Signature != want.Signature() {
		t.Fatalf("checkpoint signature %s, want %s", cp.Pending[0].Signature, want.Signature())
	}
	if cp.Pending[0].Request.Refs != 2000 {
		t.Fatalf("checkpoint request refs = %d, want 2000", cp.Pending[0].Request.Refs)
	}
}

func TestHealthEndpoints(t *testing.T) {
	srv := New(Config{Workers: 1, Run: func(ctx context.Context, req experiments.AdviseRequest) (*experiments.AdviseResponse, error) {
		return fakeResponse(req), nil
	}})
	defer srv.Drain()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d, want 200", resp.StatusCode)
	}
	resp, err = http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !bytes.Contains(b, []byte(`"ready":true`)) {
		t.Fatalf("readyz = %d %s, want 200 ready", resp.StatusCode, b)
	}
}
