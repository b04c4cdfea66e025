# Build and verification entry points. `make check` is the full gate:
# vet, build, race-enabled tests, the cross-validation suite, and a
# one-iteration pass over every benchmark so the instrumented hot paths
# stay compiling and runnable.

GO ?= go

.PHONY: all build test vet bench bench-advisor race fuzz crossval crossval-search check clean

all: build

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# bench runs every benchmark once for compile/run coverage. Per-layer
# timings come from the repository benchmark instead:
# `python3 perfbench/run.py --workload table6 --trace 1`.
bench:
	$(GO) test -run=NONE -bench=. -benchtime=1x ./...

# bench-advisor fires the chaos harness's seeded client storm at the
# advisor daemon over the real pipeline and records BENCH_advisor.json
# (p50/p99 latency, req/s, shed rate, cache hit rate). The harness's
# correctness gate applies: any 200 that is not byte-identical to a
# direct run fails the target.
bench-advisor:
	BENCH_ADVISOR_JSON=$(CURDIR)/BENCH_advisor.json $(GO) test -run TestBenchAdvisorArtifact -count=1 -v ./internal/chaos/

fuzz:
	$(GO) test -fuzz=FuzzTrace -fuzztime=20s -run=FuzzTrace ./internal/trace/
	$(GO) test -fuzz=FuzzTraceCacheRoundTrip -fuzztime=20s -run=FuzzTraceCacheRoundTrip ./internal/tracecache/
	$(GO) test -fuzz=FuzzReadRunFile -fuzztime=20s -run=FuzzReadRunFile ./internal/obs/
	$(GO) test -fuzz=FuzzAdviseRequest -fuzztime=20s -run=FuzzAdviseRequest ./internal/advisor/

# crossval pins the single-pass stack simulators, the fused sweep
# engine, the TLB simulator and the cache's compulsory-miss set to their
# direct-simulation or naive-model oracles, and the concurrent
# timing-machine row runner and its telemetry fold -- the stall suite
# and every row shape the experiments declare -- to a serial run, under
# the race detector: any divergence between the optimized paths and
# brute force fails here.
crossval:
	$(GO) test -race -count=1 \
		-run 'CrossValidat|AgreesWithDirect|MatchesLegacy|MatchesSerial|MatchSerial|TestTee|TestBatched|TestFusedLineMatchesDirect|TestDataLineMatchesDirect|TestTLBMatchesListModel' \
		./internal/cheetah/ ./internal/experiments/ ./internal/trace/ ./internal/tlb/ \
		./internal/cache/ ./internal/monitor/ ./internal/telemetry/

# crossval-search pins search.Rank and the pruned branch-and-bound
# search to the exhaustive oracle, under the race detector: identical
# top-K, feasible count and deep ranks on the paper's Table 5 grid
# (Table 6 and Table 7 settings, analytic and measured models) and on
# ~200 randomized small spaces. Any divergence from the fully sorted
# ranking fails here.
crossval-search:
	$(GO) test -race -count=1 \
		-run 'TestPrunedMatchesExhaustive|TestSearchCrossValidation|TestTieBreakDeterministic|TestPrunedAccountingInvariant|TestRankMatchesOracle' \
		./internal/search/ ./internal/experiments/

check: vet build race crossval crossval-search bench

clean:
	$(GO) clean ./...
