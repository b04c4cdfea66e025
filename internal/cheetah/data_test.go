package cheetah

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"onchip/internal/area"
	"onchip/internal/cache"
)

// directNWA builds the direct-simulation oracle: a write-through,
// no-write-allocate LRU cache (the cache package's default policy).
func directNWA(c area.CacheConfig) *cache.Cache {
	return cache.New(cache.Config{CacheConfig: c})
}

// randomDataTrace drives both simulators with a mixed load/store stream
// combining sequential runs, hot-set reuse and random traffic -- the
// shapes that expose recency divergence between associativities.
func randomDataTrace(rng *rand.Rand, n int, addrSpace int, storePct int, access func(addr uint64, write bool)) {
	var seqAddr uint64
	seqRun := 0
	for i := 0; i < n; i++ {
		var addr uint64
		switch {
		case seqRun > 0:
			seqRun--
			seqAddr += 4
			addr = seqAddr
		case i%7 == 0:
			seqRun = 3 + rng.Intn(12)
			seqAddr = uint64(rng.Intn(addrSpace)) &^ 3
			addr = seqAddr
		case i%3 == 0:
			addr = uint64(rng.Intn(addrSpace / 8)) // hot subset
		default:
			addr = uint64(rng.Intn(addrSpace))
		}
		access(addr, rng.Intn(100) < storePct)
	}
}

// Cross-validation: the write-policy-aware stack simulator must produce
// exactly the same read-miss counts as direct no-write-allocate LRU
// simulation for every associativity.
func TestDataCrossValidatesWithDirectSimulator(t *testing.T) {
	const (
		sets      = 16
		lineWords = 4
		maxAssoc  = 8
	)
	rng := rand.New(rand.NewSource(11))
	ad := NewAllAssocData(sets, lineWords, maxAssoc)
	direct := make([]*cache.Cache, maxAssoc)
	for a := 1; a <= maxAssoc; a++ {
		direct[a-1] = directNWA(area.CacheConfig{
			CapacityBytes: sets * a * lineWords * area.WordBytes,
			LineWords:     lineWords,
			Assoc:         a,
		})
	}
	randomDataTrace(rng, 60000, 1<<13, 35, func(addr uint64, write bool) {
		ad.Access(addr, write)
		for _, c := range direct {
			c.Access(addr, write)
		}
	})
	for a := 1; a <= maxAssoc; a++ {
		want := direct[a-1].Stats().ReadMisses
		if got := ad.ReadMisses(a); got != want {
			t.Errorf("assoc %d: stack read misses %d, direct %d", a, got, want)
		}
	}
	if ad.Reads()+ad.Writes() != 60000 {
		t.Errorf("reads+writes = %d, want 60000", ad.Reads()+ad.Writes())
	}
}

// The store-free stream must reduce exactly to the read-only stack
// algorithm.
func TestDataMatchesAllAssocOnLoads(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	ad := NewAllAssocData(8, 2, 4)
	aa := NewAllAssoc(8, 2, 4)
	for i := 0; i < 30000; i++ {
		addr := uint64(rng.Intn(1 << 12))
		ad.Access(addr, false)
		aa.Access(addr)
	}
	for a := 1; a <= 4; a++ {
		if got, want := ad.ReadMisses(a), aa.Misses(a); got != want {
			t.Errorf("assoc %d: data %d, all-assoc %d", a, got, want)
		}
	}
}

// Inclusion survives the no-write-allocate policy: read misses are
// non-increasing in associativity.
func TestDataMissesMonotoneInAssoc(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	ad := NewAllAssocData(32, 2, 8)
	randomDataTrace(rng, 50000, 1<<14, 40, ad.Access)
	for a := 2; a <= 8; a++ {
		if ad.ReadMisses(a) > ad.ReadMisses(a-1) {
			t.Errorf("readMisses(%d)=%d > readMisses(%d)=%d",
				a, ad.ReadMisses(a), a-1, ad.ReadMisses(a-1))
		}
	}
}

// Property check: agreement with the direct simulator holds across
// random seeds, store densities and geometries.
func TestDataQuickAgreement(t *testing.T) {
	f := func(seed int64, assocExp, storeExp uint8) bool {
		assoc := 1 << (assocExp % 3) // 1, 2, 4
		storePct := int(storeExp % 60)
		const sets, line = 8, 2
		rng := rand.New(rand.NewSource(seed))
		ad := NewAllAssocData(sets, line, 4)
		d := directNWA(area.CacheConfig{
			CapacityBytes: sets * assoc * line * area.WordBytes,
			LineWords:     line,
			Assoc:         assoc,
		})
		randomDataTrace(rng, 4000, 1<<11, storePct, func(addr uint64, write bool) {
			ad.Access(addr, write)
			d.Access(addr, write)
		})
		return ad.ReadMisses(assoc) == d.Stats().ReadMisses
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// The packed batch entry point must agree with per-reference access.
func TestDataPackedMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	a := NewAllAssocData(16, 4, 8)
	b := NewAllAssocData(16, 4, 8)
	var packed []uint64
	randomDataTrace(rng, 20000, 1<<13, 30, func(addr uint64, write bool) {
		a.Access(addr, write)
		packed = append(packed, PackRef(addr, write))
	})
	for len(packed) > 0 {
		n := 777
		if n > len(packed) {
			n = len(packed)
		}
		b.AccessPacked(packed[:n])
		packed = packed[n:]
	}
	for assoc := 1; assoc <= 8; assoc++ {
		if a.ReadMisses(assoc) != b.ReadMisses(assoc) {
			t.Errorf("assoc %d: scalar %d, packed %d", assoc, a.ReadMisses(assoc), b.ReadMisses(assoc))
		}
	}
}

// DataSweep cross-validation over every (size, assoc, line) of the
// Table 5 design space, mirroring TestAgreesWithDirectSimulator.
func TestDataSweepCrossValidatesTable5(t *testing.T) {
	var configs []area.CacheConfig
	for _, size := range []int{2 << 10, 4 << 10, 8 << 10, 16 << 10, 32 << 10} {
		for _, assoc := range []int{1, 2, 4, 8} {
			for _, line := range []int{1, 2, 4, 8, 16, 32} {
				c := area.CacheConfig{CapacityBytes: size, LineWords: line, Assoc: assoc}
				if c.Validate() != nil {
					continue
				}
				configs = append(configs, c)
			}
		}
	}
	sw := NewDataSweep(configs)
	if sw.Simulators() >= len(configs) {
		t.Fatalf("no pass sharing: %d simulators for %d configs", sw.Simulators(), len(configs))
	}
	direct := make([]*cache.Cache, len(configs))
	for i, c := range configs {
		direct[i] = directNWA(c)
	}
	rng := rand.New(rand.NewSource(23))
	randomDataTrace(rng, 40000, 1<<16, 35, func(addr uint64, write bool) {
		sw.AccessPacked([]uint64{PackRef(addr, write)})
		for _, d := range direct {
			d.Access(addr, write)
		}
	})
	for i, c := range configs {
		if got, want := sw.ReadMisses(c), direct[i].Stats().ReadMisses; got != want {
			t.Errorf("%v: sweep %d, direct %d", c, got, want)
		}
	}
}

func TestDataSweepPanics(t *testing.T) {
	for name, f := range map[string]func(){
		"invalid": func() {
			NewDataSweep([]area.CacheConfig{{CapacityBytes: 3000, LineWords: 4, Assoc: 1}})
		},
		"unswept": func() {
			sw := NewDataSweep([]area.CacheConfig{{CapacityBytes: 8 << 10, LineWords: 4, Assoc: 1}})
			sw.ReadMisses(area.CacheConfig{CapacityBytes: 4 << 10, LineWords: 8, Assoc: 1})
		},
		"badParams": func() { NewAllAssocData(3, 4, 2) },
		"badRange":  func() { NewAllAssocData(4, 4, 2).ReadMisses(3) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			f()
		}()
	}
}

// TestSetCountInclusionFailsForStores pins the counterexample to the
// I stream's cross-set-count inclusion under no-write-allocate, the
// reason a DataLine walks every set count. With 1-word lines, blocks
// Y=0, W=1, V=2 and X=4 share the one set of a 1-set 2-way cache; at 2
// sets W moves to set 1. The stream is load Y, load W, load V, store
// Y, load X, store V, load V. Store Y hits only at 2 sets, where it
// leaves V as its set's LRU block, so load X evicts V there but Y at
// 1 set; the last load then hits at 1 set and misses at 2. A depth-1
// hit at the smaller set count is no hit at all at the larger.
func TestSetCountInclusionFailsForStores(t *testing.T) {
	oneSet := area.CacheConfig{CapacityBytes: 2 * area.WordBytes, LineWords: 1, Assoc: 2}
	twoSets := area.CacheConfig{CapacityBytes: 4 * area.WordBytes, LineWords: 1, Assoc: 2}
	const y, w, v, x = 0, 4, 8, 16 // byte keys of blocks 0, 1, 2, 4
	refs := []struct {
		key   uint64
		write bool
	}{{y, false}, {w, false}, {v, false}, {y, true}, {x, false}, {v, true}, {v, false}}
	// Hits per reference in the direct no-write-allocate caches.
	want := map[area.CacheConfig][]bool{
		oneSet:  {false, false, false, false, false, true, true},
		twoSets: {false, false, false, true, false, false, false},
	}
	sw := NewDataSweep([]area.CacheConfig{oneSet, twoSets})
	for cfg, hits := range want {
		c := directNWA(cfg)
		for i, r := range refs {
			if got := c.Access(r.key, r.write); got != hits[i] {
				t.Errorf("%v reference %d (key %d, write %v): hit %v, want %v", cfg, i, r.key, r.write, got, hits[i])
			}
		}
	}
	for _, r := range refs {
		sw.AccessPacked([]uint64{PackRef(r.key, r.write)})
	}
	// Five loads: four compulsory misses at both set counts, and the
	// last load of V hits only at 1 set.
	for cfg, misses := range map[area.CacheConfig]uint64{oneSet: 4, twoSets: 5} {
		if got := sw.ReadMisses(cfg); got != misses {
			t.Errorf("%v: sweep read misses %d, want %d", cfg, got, misses)
		}
	}
}

// dataStream builds a packed load/store stream for the D-line oracle:
// the batch tests' mixed key stream with a third of its references
// stores, interleaved with the shapes the memos must get right --
// store runs to one block, a store followed by a load of its block,
// and stores that promote a block into the memoized block's set at
// some set counts but not others (promoteIntoLast).
func dataStream(rng *rand.Rand, n int) []uint64 {
	var out []uint64
	for _, k := range mixedStream(rng, n) {
		switch rng.Intn(16) {
		case 0:
			for range 2 + rng.Intn(6) {
				out = append(out, PackRef(k, true))
			}
		case 1:
			out = append(out, PackRef(k, true), PackRef(k, false))
		case 2:
			out = promoteIntoLast(rng, out)
		default:
			out = append(out, PackRef(k, rng.Intn(3) == 0))
		}
	}
	return out
}

// promoteIntoLast appends, for a random line size and set count S,
// load B, nine loads that share B's set at S sets but not at 2S, load
// A, store B and load A again, where A and B share a set at 2S. At S
// sets and below, B has fallen out of every tracked way (at most 8)
// and the store misses; at 2S, while a group tracks two ways or more,
// B sits right behind A and the store promotes it, displacing A, the
// memoized block, from the front of its set there and only there.
func promoteIntoLast(rng *rand.Rand, out []uint64) []uint64 {
	lineBytes := uint64(area.WordBytes) << rng.Intn(6)
	sets := uint64(1) << rng.Intn(13)
	a := uint64(rng.Intn(1 << 12))
	b := a + 2*sets*uint64(1+rng.Intn(4))
	load := func(block uint64) uint64 { return PackRef(block*lineBytes, false) }
	out = append(out, load(b))
	for j := range uint64(9) {
		out = append(out, load(a+sets+2*sets*j))
	}
	return append(out, load(a), PackRef(b*lineBytes, true), load(a))
}

// TestDataLineMatchesDirect is the D-stream counterpart of
// TestFusedLineMatchesDirect: it pins the DataSweep -- one DataLine per
// line size, its groups sized to the ways their configurations price,
// the packed block<<8|m stacks and the line-level memos -- to direct
// simulation, one no-write-allocate cache.Cache per configuration,
// which shares no code with the stack simulator. Every configuration's
// read misses must match, over all of Table 5 and a randomized set
// with several widths per line size and a fully-associative group, in
// batches of 1, 7 and 1024, alone and interleaved with one-key batches.
func TestDataLineMatchesDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	for _, tc := range oracleConfigSets(rng) {
		packed := dataStream(rng, 50_000)
		direct := make([]*cache.Cache, len(tc.configs))
		for i, c := range tc.configs {
			direct[i] = directNWA(c)
		}
		var loads uint64
		for _, kv := range packed {
			loads += kv&1 ^ 1
			for _, d := range direct {
				d.Access(kv>>1, kv&1 != 0)
			}
		}
		forBatchModes(func(batch int, mixed bool) {
			name := fmt.Sprintf("%s batch=%d mixed=%v", tc.name, batch, mixed)
			sw := NewDataSweep(tc.configs)
			feedBatches(packed, batch, mixed, func(kv uint64) { sw.AccessPacked([]uint64{kv}) }, sw.AccessPacked)
			if got := sw.Reads(); got != loads {
				t.Errorf("%s: reads %d, want %d", name, got, loads)
			}
			for i, c := range tc.configs {
				if got, want := sw.ReadMisses(c), direct[i].Stats().ReadMisses; got != want {
					t.Errorf("%s %v: read misses %d, direct %d", name, c, got, want)
				}
			}
		})
	}
}
