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
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
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

// serve posts body straight to h and returns the recorded answer.
func serve(h http.Handler, body string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", "/advise", strings.NewReader(body)))
	return rec
}

// TestLRUBoundsAndRecency: with room for two answers, a cache hit
// refreshes its entry, a third answer evicts the least recently used
// one, and an evicted request runs again.
func TestLRUBoundsAndRecency(t *testing.T) {
	var mu sync.Mutex
	runs := map[int]int{}
	srv := New(Config{
		Workers:      1,
		CacheEntries: 2,
		Run: func(ctx context.Context, req experiments.AdviseRequest) (*experiments.AdviseResponse, error) {
			mu.Lock()
			runs[req.Refs]++
			mu.Unlock()
			return fakeResponse(req), nil
		},
	})
	defer srv.Drain()
	h := srv.Handler()
	const a, b, c = 2000, 3000, 4000
	for _, step := range []struct {
		refs   int
		source string
	}{
		{a, "run"}, {b, "run"},
		{a, "cache"}, // a is now the most recently used
		{c, "run"},   // evicts b
		{a, "cache"},
		{b, "run"}, // b runs again and evicts c, not the refreshed a
		{a, "cache"},
		{c, "run"},
	} {
		rec := serve(h, fmt.Sprintf(`{"workloads":["mab"],"refs":%d}`, step.refs))
		if got := rec.Header().Get("X-Advisor-Source"); rec.Code != http.StatusOK || got != step.source {
			t.Fatalf("refs %d: status %d source %q, want 200 from %s", step.refs, rec.Code, got, step.source)
		}
	}
	if want := map[int]int{a: 1, b: 2, c: 2}; fmt.Sprint(runs) != fmt.Sprint(want) {
		t.Fatalf("runs per request = %v, want %v", runs, want)
	}
	if got := srv.mCacheHits.Value(); got != 3 {
		t.Fatalf("cache_hits = %d, want 3", got)
	}
}

// TestTableRunsEachSignatureOnce fires identical requests at staggered
// offsets around each job's completion, over a few hundred signatures.
// Whether a twin arrives while its job is finishing (dedup) or just
// after (cache), it must share the one computation: every signature
// runs exactly once and all its bodies are byte-identical.
func TestTableRunsEachSignatureOnce(t *testing.T) {
	const sigs, twins, parallel = 300, 8, 8
	var runs [sigs]atomic.Int32
	var ending [sigs]chan struct{}
	for i := range ending {
		ending[i] = make(chan struct{})
	}
	srv := New(Config{
		Workers:      parallel,
		QueueDepth:   sigs,
		CacheEntries: sigs,
		Run: func(ctx context.Context, req experiments.AdviseRequest) (*experiments.AdviseResponse, error) {
			i := req.Refs - 2000
			if runs[i].Add(1) == 1 {
				close(ending[i])
			}
			// The twins fire 0-210 us after ending closes, so about a
			// third join the job and the rest hit its cached answer.
			time.Sleep(100 * time.Microsecond)
			return fakeResponse(req), nil
		},
	})
	defer srv.Drain()
	h := srv.Handler()

	recs := make([][]*httptest.ResponseRecorder, sigs)
	slots := make(chan struct{}, parallel) // signatures in flight at once
	var all sync.WaitGroup
	for i := 0; i < sigs; i++ {
		body := fmt.Sprintf(`{"workloads":["mab"],"refs":%d}`, 2000+i)
		recs[i] = make([]*httptest.ResponseRecorder, twins+1)
		slots <- struct{}{}
		var wg sync.WaitGroup
		wg.Add(twins + 1)
		go func() {
			defer wg.Done()
			recs[i][0] = serve(h, body)
		}()
		for k := 1; k <= twins; k++ {
			go func() {
				defer wg.Done()
				<-ending[i]
				time.Sleep(time.Duration(k-1) * 30 * time.Microsecond)
				recs[i][k] = serve(h, body)
			}()
		}
		all.Add(1)
		go func() {
			defer all.Done()
			wg.Wait()
			<-slots
		}()
	}
	all.Wait()

	sources := map[string]int{}
	for i, rs := range recs {
		if n := runs[i].Load(); n != 1 {
			t.Errorf("signature %d ran %d times, want 1", i, n)
		}
		for k, rec := range rs {
			sources[rec.Header().Get("X-Advisor-Source")]++
			if rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), rs[0].Body.Bytes()) {
				t.Errorf("signature %d request %d: status %d body %s, want 200 %s", i, k, rec.Code, rec.Body, rs[0].Body)
			}
		}
	}
	if sources["run"] != sigs || sources["dedup"]+sources["cache"] != sigs*twins {
		t.Errorf("sources = %v, want %d runs and %d dedup or cache", sources, sigs, sigs*twins)
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

// TestDrainWaitsForRequestPastTheCheck pins the drain gate. A request
// decides under the table lock and drain flips the draining flag under
// the same lock, so a request that got past the check is already a
// job drain waits for. Here the job parks in its runner while drain
// flips the flag: drain's first log line counts it, it answers 200
// once released, and Drain returns only after it. A request that
// arrives after the flip answers 503.
func TestDrainWaitsForRequestPastTheCheck(t *testing.T) {
	parked, release := make(chan struct{}), make(chan struct{})
	logs := make(logLines, 2) // drain logs two lines
	srv := New(Config{
		Workers:      1,
		DrainTimeout: time.Hour,
		Logw:         logs,
		Run: func(ctx context.Context, req experiments.AdviseRequest) (*experiments.AdviseResponse, error) {
			close(parked)
			<-release
			return fakeResponse(req), nil
		},
	})
	first := make(chan *httptest.ResponseRecorder, 1)
	go func() { first <- serve(srv.Handler(), `{"workloads":["mab"],"refs":2000}`) }()
	<-parked
	drained := make(chan error, 1)
	go func() { drained <- srv.Drain() }()

	// Drain's first log line comes right after the flip and reports how
	// many jobs it waits for.
	line := <-logs
	var waiting int
	if _, err := fmt.Sscanf(line, "advisor: draining (in-flight %d", &waiting); err != nil {
		t.Fatalf("drain log %q: %v", line, err)
	}
	if waiting != 1 {
		t.Errorf("drain flipped with %d job(s) counted, want the parked one", waiting)
	}
	if rec := serve(srv.Handler(), `{"workloads":["mab"],"refs":3000}`); rec.Code != http.StatusServiceUnavailable {
		t.Errorf("request after the flip: status %d, want 503", rec.Code)
	}
	select {
	case err := <-drained:
		t.Fatalf("drain returned (%v) while an admitted job was parked", err)
	default:
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

// TestDrainFlipUnderLoad races the draining flag against clients that
// post distinct requests until they are refused. Every answer is a 200
// from a job that finished before Drain returned, or a 503 refusal; no
// job runs after Drain returns.
func TestDrainFlipUnderLoad(t *testing.T) {
	const clients = 8
	var finished atomic.Int64
	srv := New(Config{
		Workers:      2,
		QueueDepth:   clients,
		DrainTimeout: time.Hour,
		Run: func(ctx context.Context, req experiments.AdviseRequest) (*experiments.AdviseResponse, error) {
			finished.Add(1)
			return fakeResponse(req), nil
		},
	})
	h := srv.Handler()
	var next, ok, refused atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				rec := serve(h, fmt.Sprintf(`{"workloads":["mab"],"refs":%d}`, 2000+next.Add(1)))
				switch rec.Code {
				case http.StatusOK:
					ok.Add(1)
				case http.StatusServiceUnavailable:
					refused.Add(1)
					return
				default:
					t.Errorf("status %d %s, want 200 or 503", rec.Code, rec.Body)
					return
				}
			}
		}()
	}
	deadline := time.Now().Add(5 * time.Second)
	for finished.Load() < 20 {
		if time.Now().After(deadline) {
			t.Fatalf("only %d jobs finished before the drain, want 20", finished.Load())
		}
		runtime.Gosched()
	}
	if err := srv.Drain(); err != nil {
		t.Fatalf("drain: %v", err)
	}
	atDrain := finished.Load()
	wg.Wait()
	if got := finished.Load(); got != atDrain {
		t.Errorf("%d job(s) finished after Drain returned", got-atDrain)
	}
	if ok.Load() != atDrain {
		t.Errorf("%d answers were 200 but %d jobs finished before Drain returned", ok.Load(), atDrain)
	}
	if got := srv.mDrainRejected.Value(); got != uint64(refused.Load()) || got < clients {
		t.Errorf("drain_rejected = %d, refused = %d, want equal and at least %d", got, refused.Load(), clients)
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
