package experiments

import (
	"runtime"
	"testing"

	"onchip/internal/osmodel"
	"onchip/internal/search"
	"onchip/internal/trace"
	"onchip/internal/workload"
)

// recordStream pre-generates a reference stream once so the benchmarks
// measure simulation cost, not generation.
func recordStream(refs int) []trace.Ref {
	var out []trace.Ref
	osmodel.NewSystem(osmodel.Mach, workload.VideoPlay()).
		Generate(refs, trace.SinkFunc(func(r trace.Ref) { out = append(out, r) }))
	return out
}

func replay(b *testing.B, stream []trace.Ref, sink trace.Sink) {
	b.Helper()
	batch := trace.Batched(sink)
	b.SetBytes(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for lo := 0; lo < len(stream); lo += 1024 {
			hi := lo + 1024
			if hi > len(stream) {
				hi = len(stream)
			}
			batch.Refs(stream[lo:hi])
		}
	}
	b.ReportMetric(float64(len(stream))*float64(b.N)/b.Elapsed().Seconds(), "refs/s")
}

// BenchmarkSweepEngine measures the fused engine (serial groups) over
// the full Table 5 cache space.
func BenchmarkSweepEngine(b *testing.B) {
	stream := recordStream(200_000)
	cfgs := search.Table5().CacheConfigs()
	engine := newSweepEngine(cfgs, cfgs, nil)
	replay(b, stream, engine)
}

// BenchmarkSweepEngineParallel is the same engine on a machine-wide
// group pool.
func BenchmarkSweepEngineParallel(b *testing.B) {
	stream := recordStream(200_000)
	pool := newGroupPool(runtime.NumCPU(), nil, "")
	defer pool.close()
	cfgs := search.Table5().CacheConfigs()
	engine := newSweepEngine(cfgs, cfgs, pool)
	replay(b, stream, engine)
}

// BenchmarkSweepLegacyDirect measures what the engine replaced on the
// D-stream side alone: direct per-configuration simulation with
// per-reference delivery.
func BenchmarkSweepLegacyDirect(b *testing.B) {
	stream := recordStream(200_000)
	direct := newDirectDCacheSweep(search.Table5().CacheConfigs())
	replay(b, stream, direct)
}
