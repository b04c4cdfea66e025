package cheetah

import (
	"fmt"
	"math/rand"
	"testing"

	"onchip/internal/area"
	"onchip/internal/cache"
	"onchip/internal/search"
)

// mixedStream builds a reference stream that exercises every hot path:
// sequential runs through cache lines (the depth-1 memo), re-touches of
// recent blocks (shallow promotes), and random jumps over a footprint
// larger than any tracked cache (misses and relabel walks).
func mixedStream(rng *rand.Rand, refs int) []uint64 {
	keys := make([]uint64, 0, refs)
	addr := uint64(rng.Intn(1 << 20))
	for len(keys) < refs {
		switch rng.Intn(4) {
		case 0: // sequential run
			n := 1 + rng.Intn(64)
			for i := 0; i < n && len(keys) < refs; i++ {
				keys = append(keys, addr)
				addr += 4
			}
		case 1: // re-touch something recent
			if len(keys) > 0 {
				keys = append(keys, keys[len(keys)-1-rng.Intn(min(len(keys), 256))])
			}
		default: // jump
			addr = uint64(rng.Intn(1 << 20))
			keys = append(keys, addr)
		}
	}
	return keys
}

// feedBatches delivers keys in batches of the given size. With mixed
// set, every other batch goes through the per-key entry point instead,
// so the depth-1 memo a batch keeps in a local must be written back
// for the per-key path to find it.
func feedBatches(keys []uint64, batch int, mixed bool, perKey func(uint64), batched func([]uint64)) {
	for i, lo := 0, 0; lo < len(keys); i, lo = i+1, lo+batch {
		hi := min(lo+batch, len(keys))
		if mixed && i%2 == 1 {
			for _, k := range keys[lo:hi] {
				perKey(k)
			}
			continue
		}
		batched(keys[lo:hi])
	}
}

// batchGeometries are the (sets, lineWords, maxAssoc) shapes the batch
// tests cover: several sets per stream, one fully associative set, and
// one set count larger than any Table 5 geometry.
var batchGeometries = [][3]int{{64, 4, 8}, {16, 16, 4}, {1, 8, 16}, {256, 4, 2}}

// forBatchModes calls fn for every batch size (1, 7 and 1024), batched
// alone and alternating with per-key access.
func forBatchModes(fn func(batch int, mixed bool)) {
	for _, batch := range []int{1, 7, 1024} {
		for _, mixed := range []bool{false, true} {
			fn(batch, mixed)
		}
	}
}

// TestBatchedAccessMatchesPerKey checks that AllAssoc.AccessKeys, the
// sweep engine's I-stream loop (LineSweep.AccessKeys) over one group,
// leaves exactly the counts of per-key Access: equal access totals and
// equal misses at every associativity, in every batch mode, over
// randomized streams and several geometries.
func TestBatchedAccessMatchesPerKey(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for _, geom := range batchGeometries {
		sets, lineWords, maxAssoc := geom[0], geom[1], geom[2]
		keys := mixedStream(rng, 60_000)
		ref := NewAllAssoc(sets, lineWords, maxAssoc)
		for _, k := range keys {
			ref.Access(k)
		}
		forBatchModes(func(batch int, mixed bool) {
			name := fmt.Sprintf("sets=%d lineWords=%d batch=%d mixed=%v", sets, lineWords, batch, mixed)
			a := NewAllAssoc(sets, lineWords, maxAssoc)
			feedBatches(keys, batch, mixed, a.Access, a.AccessKeys)
			if got, want := a.Accesses(), ref.Accesses(); got != want {
				t.Errorf("%s: accesses %d, want %d", name, got, want)
			}
			for assoc := 1; assoc <= maxAssoc; assoc++ {
				if got, want := a.Misses(assoc), ref.Misses(assoc); got != want {
					t.Errorf("%s assoc=%d: misses %d, want %d", name, assoc, got, want)
				}
			}
		})
	}
}

// TestBatchedDataAccessMatchesPerKey is the AllAssocData counterpart
// for AllAssocData.AccessPacked: read/write totals and read misses at
// every associativity must equal those of per-key Access, with the
// write policy's memo-invalidation paths exercised by a randomized
// store mix.
func TestBatchedDataAccessMatchesPerKey(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, geom := range batchGeometries {
		sets, lineWords, maxAssoc := geom[0], geom[1], geom[2]
		keys := mixedStream(rng, 60_000)
		packed := make([]uint64, len(keys))
		for i, k := range keys {
			packed[i] = PackRef(k, rng.Intn(3) == 0)
		}
		ref := NewAllAssocData(sets, lineWords, maxAssoc)
		for _, kv := range packed {
			ref.Access(kv>>1, kv&1 != 0)
		}
		forBatchModes(func(batch int, mixed bool) {
			name := fmt.Sprintf("sets=%d lineWords=%d batch=%d mixed=%v", sets, lineWords, batch, mixed)
			d := NewAllAssocData(sets, lineWords, maxAssoc)
			feedBatches(packed, batch, mixed, func(kv uint64) { d.Access(kv>>1, kv&1 != 0) }, d.AccessPacked)
			if d.Reads() != ref.Reads() || d.Writes() != ref.Writes() {
				t.Errorf("%s: reads/writes %d/%d, want %d/%d",
					name, d.Reads(), d.Writes(), ref.Reads(), ref.Writes())
			}
			for assoc := 1; assoc <= maxAssoc; assoc++ {
				if got, want := d.ReadMisses(assoc), ref.ReadMisses(assoc); got != want {
					t.Errorf("%s assoc=%d: read misses %d, want %d", name, assoc, got, want)
				}
			}
		})
	}
}

// oracleConfigSets returns the configuration sets the line-unit oracle
// tests cover: all 120 Table 5 configurations, and 40 random ones with
// several tracked widths per line size and a fully-associative group.
func oracleConfigSets(rng *rand.Rand) []struct {
	name    string
	configs []area.CacheConfig
} {
	random := []area.CacheConfig{{CapacityBytes: 8 * 2 * area.WordBytes, LineWords: 2, Assoc: area.FullyAssociative}}
	for len(random) < 40 {
		c := area.CacheConfig{
			CapacityBytes: 256 << rng.Intn(9),
			LineWords:     1 << rng.Intn(6),
			Assoc:         1 << rng.Intn(4),
		}
		if c.Validate() == nil {
			random = append(random, c)
		}
	}
	return []struct {
		name    string
		configs []area.CacheConfig
	}{{"table5", search.Table5().CacheConfigs()}, {"random", random}}
}

// TestFusedLineMatchesDirect pins the fused I-stream sweep -- groups
// sized to the ways their configurations price, one repeat memo per
// line size, the smallest-set-count-first walk and its depth-1 exit --
// to direct simulation: one cache.Cache per configuration, driven per
// key, shares no code with the stack simulator, so a defect in the
// per-group stack update cannot show on both sides. Every
// configuration's misses must match in every batch mode. It covers all
// 120 Table 5 configurations and a randomized set with several tracked
// widths per line size and a fully-associative group.
func TestFusedLineMatchesDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, tc := range oracleConfigSets(rng) {
		keys := mixedStream(rng, 60_000)
		direct := make([]*cache.Cache, len(tc.configs))
		for i, c := range tc.configs {
			direct[i] = cache.New(cache.Config{CacheConfig: c})
		}
		for _, k := range keys {
			for _, d := range direct {
				d.Access(k, false)
			}
		}
		forBatchModes(func(batch int, mixed bool) {
			name := fmt.Sprintf("%s batch=%d mixed=%v", tc.name, batch, mixed)
			sw := NewSweep(tc.configs, 8)
			feedBatches(keys, batch, mixed, func(k uint64) { sw.AccessKeys([]uint64{k}) }, sw.AccessKeys)
			if got := sw.Accesses(); got != uint64(len(keys)) {
				t.Errorf("%s: accesses %d, want %d", name, got, len(keys))
			}
			for i, c := range tc.configs {
				if got, want := sw.Misses(c), direct[i].Stats().ReadMisses; got != want {
					t.Errorf("%s %v: misses %d, direct %d", name, c, got, want)
				}
			}
		})
	}
}
