package chaos

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"onchip/internal/advisor"
	"onchip/internal/experiments"
	"onchip/internal/telemetry"
	"onchip/internal/tracecache"
)

// fakeRun is a deterministic synthetic runner: the answer depends only
// on the request, and the latency only on the signature and a seed, so
// storms against it are reproducible.
func fakeRun(delayPerRun time.Duration) advisor.RunFunc {
	return func(ctx context.Context, req experiments.AdviseRequest) (*experiments.AdviseResponse, error) {
		select {
		case <-time.After(delayPerRun):
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		return &experiments.AdviseResponse{
			Signature: req.Signature(),
			Request:   req,
			Feasible:  req.Refs,
			Allocations: []experiments.RankedAllocation{
				{Rank: 1, TLB: "t", ICache: "i", DCache: "d", AreaRBE: req.BudgetRBE, CPI: float64(req.Refs)},
			},
		}, nil
	}
}

// directFor marshals exactly the bytes the advisor serves for a
// runner, making the oracle independent of the HTTP path.
func directFor(run advisor.RunFunc) func(experiments.AdviseRequest) ([]byte, error) {
	return func(req experiments.AdviseRequest) ([]byte, error) {
		resp, err := run(context.Background(), req)
		if err != nil {
			return nil, err
		}
		b, err := json.Marshal(resp)
		if err != nil {
			return nil, err
		}
		return append(b, '\n'), nil
	}
}

func requestPool(n int) []experiments.AdviseRequest {
	reqs := make([]experiments.AdviseRequest, n)
	for i := range reqs {
		reqs[i] = experiments.AdviseRequest{Workloads: []string{"mab"}, Refs: 2000 + i, Top: 3}
	}
	return reqs
}

// TestOverloadStormBoundedAndCorrect drives far more concurrency than
// the pool admits: overload must resolve as clean 429 sheds while
// every 200 stays byte-identical to the oracle and p99 stays bounded
// by (queue depth + 1) computations, not by the backlog.
func TestOverloadStormBoundedAndCorrect(t *testing.T) {
	run := fakeRun(20 * time.Millisecond)
	srv := advisor.New(advisor.Config{Workers: 2, QueueDepth: 2, Run: run})
	defer srv.Drain()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	rep, err := Run(Config{
		URL:               ts.URL,
		Clients:           8,
		RequestsPerClient: 10,
		Seed:              42,
		Requests:          requestPool(16),
		Direct:            directFor(run),
	})
	if err != nil {
		t.Fatal(err)
	}
	if v := rep.Violations(); len(v) != 0 {
		t.Fatalf("storm violations: %v", v)
	}
	if rep.Total != 80 {
		t.Fatalf("total = %d, want 80", rep.Total)
	}
	if rep.OK == 0 {
		t.Fatal("storm produced no successful responses")
	}
	if rep.Shed == 0 {
		t.Fatal("8 clients against 2 workers + depth-2 queue should shed, got 0")
	}
	if got := rep.OK + rep.Shed + rep.Unavailable + rep.Timeouts + rep.ServerErrors + rep.BadRequests + rep.OtherStatus + rep.TransportErrors; got != rep.Total {
		t.Fatalf("status accounting: %d classified of %d", got, rep.Total)
	}
	// Shed requests return immediately and admitted ones wait at most
	// (queue + self) computations; anything near a second means the
	// admission bound leaked.
	if p99 := time.Duration(rep.P99Micros) * time.Microsecond; p99 > 2*time.Second {
		t.Fatalf("p99 = %v; overload latency must stay bounded", p99)
	}
}

// TestDrainMidStormDropsNothing: a drain in the middle of a storm
// must finish every admitted request (byte-correct), refuse the rest
// cleanly, and leave no pending work behind.
func TestDrainMidStormDropsNothing(t *testing.T) {
	run := fakeRun(15 * time.Millisecond)
	srv := advisor.New(advisor.Config{Workers: 2, QueueDepth: 4, DrainTimeout: 10 * time.Second, Run: run})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	var wg sync.WaitGroup
	var rep *Report
	var runErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		rep, runErr = Run(Config{
			URL:               ts.URL,
			Clients:           6,
			RequestsPerClient: 12,
			Seed:              7,
			Requests:          requestPool(8),
			Direct:            directFor(run),
			ThinkTime:         2 * time.Millisecond,
		})
	}()
	time.Sleep(60 * time.Millisecond) // mid-storm
	if err := srv.Drain(); err != nil {
		t.Fatalf("drain: %v", err)
	}
	wg.Wait()
	if runErr != nil {
		t.Fatal(runErr)
	}
	if v := rep.Violations(); len(v) != 0 {
		t.Fatalf("storm violations across drain: %v", v)
	}
	if rep.OK == 0 {
		t.Fatal("no request completed before the drain")
	}
	if rep.Unavailable == 0 {
		t.Fatal("no request observed the draining 503")
	}
	if n := len(srv.Pending()); n != 0 {
		t.Fatalf("drain left %d admitted request(s) unfinished", n)
	}
}

// realPipelinePool keeps the real-pipeline storms cheap: tiny
// reference counts over one workload, three distinct signatures.
func realPipelinePool() []experiments.AdviseRequest {
	var reqs []experiments.AdviseRequest
	for i := 0; i < 3; i++ {
		reqs = append(reqs, experiments.AdviseRequest{
			Workloads: []string{"mab"},
			Refs:      1000 + 500*i,
			Top:       5,
		})
	}
	return reqs
}

func realDirect(req experiments.AdviseRequest) ([]byte, error) {
	resp, err := experiments.Advise(req, experiments.Options{})
	if err != nil {
		return nil, err
	}
	b, err := json.Marshal(resp)
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// TestRealPipelineWithCorruptCacheIsByteIdentical is the end-to-end
// correctness gate: the advisor runs the real experiments pipeline over
// a trace cache whose every entry has a flipped byte on disk, and every
// 200 must still be byte-identical to a clean, cache-less direct run --
// corruption may cost time (a partial replay, then regeneration), never
// answers.
func TestRealPipelineWithCorruptCacheIsByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("real sweep pipeline")
	}
	dir := t.TempDir()
	tc, err := tracecache.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	tc.Describe(reg)
	pool := realPipelinePool()
	for _, req := range pool {
		if err := req.Normalize(0); err != nil {
			t.Fatal(err)
		}
		if _, err := experiments.Advise(req, experiments.Options{TraceCache: tc}); err != nil {
			t.Fatalf("warming the trace cache: %v", err)
		}
	}
	entries, err := filepath.Glob(filepath.Join(dir, "*.octc"))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != len(pool) {
		t.Fatalf("warm-up recorded %d cache entries, want %d", len(entries), len(pool))
	}
	for _, path := range entries {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		data[len(data)-10] ^= 0xff
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	srv := advisor.New(advisor.Config{Workers: 2, QueueDepth: 8, TraceCache: tc, Metrics: reg})
	defer srv.Drain()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	rep, err := Run(Config{
		URL:               ts.URL,
		Clients:           4,
		RequestsPerClient: 4,
		Seed:              1,
		Requests:          pool,
		Direct:            realDirect,
	})
	if err != nil {
		t.Fatal(err)
	}
	if v := rep.Violations(); len(v) != 0 {
		t.Fatalf("violations with a corrupt trace cache: %v", v)
	}
	if rep.OK != rep.Total {
		t.Fatalf("ok = %d of %d; corrupt entries must fall back to regeneration, not errors", rep.OK, rep.Total)
	}
	counts := map[string]float64{}
	for _, m := range reg.Snapshot() {
		counts[m.Name] = m.Value
	}
	want := float64(len(pool))
	if hit, corrupt := counts["tracecache.hit"], counts["tracecache.corrupt"]; hit != want || corrupt != want {
		t.Fatalf("tracecache.hit = %v, tracecache.corrupt = %v; want each of the %v corrupt entries read once", hit, corrupt, want)
	}
}

// TestBenchAdvisorArtifact runs the bench storm against the real
// pipeline and records BENCH_advisor.json when BENCH_ADVISOR_JSON
// names the output (the `make bench-advisor` entry point). The chaos
// gate applies: any correctness violation fails the run.
func TestBenchAdvisorArtifact(t *testing.T) {
	out := os.Getenv("BENCH_ADVISOR_JSON")
	if out == "" {
		t.Skip("set BENCH_ADVISOR_JSON to record the advisor bench artifact")
	}
	tc, err := tracecache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	srv := advisor.New(advisor.Config{Workers: 4, QueueDepth: 8, TraceCache: tc})
	defer srv.Drain()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	rep, err := Run(Config{
		URL:               ts.URL,
		Clients:           8,
		RequestsPerClient: 8,
		Seed:              2026,
		Requests:          realPipelinePool(),
		Direct:            realDirect,
	})
	if err != nil {
		t.Fatal(err)
	}
	if v := rep.Violations(); len(v) != 0 {
		t.Fatalf("bench storm violations: %v", v)
	}
	if err := rep.WriteJSON(out); err != nil {
		t.Fatal(err)
	}
	t.Logf("advisor bench: %d req (%d ok, %d shed) p50=%dus p99=%dus %.1f req/s shed=%.2f cachehit=%.2f -> %s",
		rep.Total, rep.OK, rep.Shed, rep.P50Micros, rep.P99Micros, rep.ReqPerSec, rep.ShedRate, rep.CacheHitRate, out)
	fmt.Println("BENCH_advisor written:", out)
}
