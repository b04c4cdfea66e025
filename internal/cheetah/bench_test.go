package cheetah

import (
	"math/rand"
	"testing"

	"onchip/internal/area"
	"onchip/internal/search"
)

// benchKeys is a mixed stream sized so the working set spills the
// tracked caches: sequential runs exercise the depth-1 memo and the
// depth-2 swap, jumps exercise the promote and relabel paths.
func benchKeys(n int) []uint64 {
	return mixedStream(rand.New(rand.NewSource(42)), n)
}

// BenchmarkAllAssocAccess guards the I-stream hot loop: the depth-1
// memo and the swap-instead-of-copy promote for depth-2 hits.
func BenchmarkAllAssocAccess(b *testing.B) {
	keys := benchKeys(1 << 16)
	a := NewAllAssoc(64, 4, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.AccessKeys(keys)
	}
	b.ReportMetric(float64(len(keys))*float64(b.N)/b.Elapsed().Seconds(), "refs/s")
}

// BenchmarkAllAssocDataAccess is the D-stream counterpart, with a
// store mix driving the write-policy paths: one 64-set group alone, and
// one Table 5 line size's DataLine (its eight set-count groups), the
// unit the sweep engine runs.
func BenchmarkAllAssocDataAccess(b *testing.B) {
	rng := rand.New(rand.NewSource(43))
	keys := benchKeys(1 << 16)
	batch := make([]uint64, len(keys))
	for i, k := range keys {
		batch[i] = PackRef(k, rng.Intn(3) == 0)
	}
	var table5Line []area.CacheConfig
	for _, c := range search.Table5().CacheConfigs() {
		if c.LineWords == 4 {
			table5Line = append(table5Line, c)
		}
	}
	for _, bc := range []struct {
		name string
		line *DataLine
	}{
		{"group", &NewAllAssocData(64, 4, 8).DataLine},
		{"table5-line", NewDataSweep(table5Line).Lines()[0]},
	} {
		b.Run(bc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				bc.line.AccessPacked(batch)
			}
			b.ReportMetric(float64(len(batch))*float64(b.N)/b.Elapsed().Seconds(), "refs/s")
		})
	}
}
