package cache

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"onchip/internal/area"
)

func cfg(capBytes, lineWords, assoc int) Config {
	return Config{CacheConfig: area.CacheConfig{CapacityBytes: capBytes, LineWords: lineWords, Assoc: assoc}}
}

func TestBasicHitMiss(t *testing.T) {
	c := New(cfg(1024, 4, 1)) // 64 lines of 16 bytes
	if c.Access(0x100, false) {
		t.Error("first access must miss")
	}
	if !c.Access(0x100, false) {
		t.Error("second access must hit")
	}
	if !c.Access(0x10f, false) {
		t.Error("same-line access must hit")
	}
	if c.Access(0x110, false) {
		t.Error("next-line access must miss")
	}
	s := c.Stats()
	if s.Reads != 4 || s.ReadMisses != 2 || s.Compulsory != 2 {
		t.Errorf("stats = %+v", s)
	}
}

func TestDirectMappedConflict(t *testing.T) {
	c := New(cfg(1024, 4, 1)) // 64 sets; addresses 1024 apart conflict
	c.Access(0x0, false)
	c.Access(1024, false) // evicts block 0
	if c.Access(0x0, false) {
		t.Error("conflicting block must have been evicted")
	}
}

func TestTwoWayAvoidsConflict(t *testing.T) {
	c := New(cfg(1024, 4, 2))
	c.Access(0x0, false)
	c.Access(512, false) // same set (32 sets x 16B), second way
	if !c.Access(0x0, false) || !c.Access(512, false) {
		t.Error("2-way cache must hold both conflicting blocks")
	}
}

func TestLRUOrder(t *testing.T) {
	c := New(cfg(64, 4, 4)) // one set of 4 ways, 16-byte lines
	for _, a := range []uint64{0, 16, 32, 48} {
		c.Access(a, false)
	}
	c.Access(0, false)  // touch block 0: MRU
	c.Access(64, false) // evicts LRU = block at 16
	if c.Access(16, false) {
		t.Error("block 16 should have been the LRU victim")
	}
	if !c.Access(0, false) {
		t.Error("recently touched block 0 must survive")
	}
}

func TestWriteNoAllocate(t *testing.T) {
	c := New(cfg(1024, 4, 1))
	if c.Access(0x200, true) {
		t.Error("store to cold cache must miss")
	}
	if c.Access(0x200, false) {
		t.Error("no-write-allocate: store miss must not fill the line")
	}
	s := c.Stats()
	if s.Writes != 1 || s.WriteMisses != 1 || s.Fills != 1 {
		t.Errorf("stats = %+v", s)
	}
}

func TestWriteAllocate(t *testing.T) {
	conf := cfg(1024, 4, 1)
	conf.WriteAllocate = true
	c := New(conf)
	c.Access(0x200, true)
	if !c.Access(0x200, false) {
		t.Error("write-allocate: store miss must fill the line")
	}
}

func TestWriteHitKeepsLine(t *testing.T) {
	c := New(cfg(1024, 4, 1))
	c.Access(0x300, false)
	if !c.Access(0x300, true) {
		t.Error("store to resident line must hit")
	}
}

func TestFullyAssociative(t *testing.T) {
	c := New(cfg(256, 4, area.FullyAssociative)) // 16 lines, one set
	// Fill 16 distinct conflicting-by-index blocks; FA holds them all.
	for i := uint64(0); i < 16; i++ {
		c.Access(i*256*1024, false)
	}
	for i := uint64(0); i < 16; i++ {
		if !c.Access(i*256*1024, false) {
			t.Errorf("FA cache must retain block %d", i)
		}
	}
}

func TestResetAndResetStats(t *testing.T) {
	c := New(cfg(1024, 4, 1))
	c.Access(0x0, false)
	c.ResetStats()
	if !c.Access(0x0, false) {
		t.Error("ResetStats must keep contents")
	}
	if c.Stats().Reads != 1 || c.Stats().ReadMisses != 0 {
		t.Errorf("stats after ResetStats = %+v", c.Stats())
	}
	c.Reset()
	if c.Access(0x0, false) {
		t.Error("Reset must clear contents")
	}
}

func TestMissPenalty(t *testing.T) {
	// "6 cycles for the first word in a line and 1 cycle for each
	// additional word."
	cases := map[int]int{1: 6, 2: 7, 4: 9, 8: 13, 16: 21, 32: 37}
	for line, want := range cases {
		if got := MissPenalty(line); got != want {
			t.Errorf("MissPenalty(%d) = %d, want %d", line, got, want)
		}
	}
}

func TestCPIContribution(t *testing.T) {
	if got := CPIContribution(100, 4, 1000); got != 0.9 {
		t.Errorf("CPIContribution = %g, want 0.9", got)
	}
	if got := CPIContribution(5, 4, 0); got != 0 {
		t.Errorf("CPIContribution with no instructions = %g", got)
	}
}

func TestMissRatioHelpers(t *testing.T) {
	s := Stats{Reads: 80, ReadMisses: 8, Writes: 20, WriteMisses: 2}
	if got := s.MissRatio(); got != 0.1 {
		t.Errorf("MissRatio = %g", got)
	}
	if got := s.ReadMissRatio(); got != 0.1 {
		t.Errorf("ReadMissRatio = %g", got)
	}
	if (Stats{}).MissRatio() != 0 || (Stats{}).ReadMissRatio() != 0 {
		t.Error("empty stats must be 0")
	}
}

// Inclusion property: under LRU, a larger-associativity cache with the
// same set count never misses more than a smaller one on any trace.
func TestAssociativityInclusion(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	c2 := New(cfg(2048, 4, 2))
	c4 := New(cfg(4096, 4, 4)) // same 32 sets, double the ways
	for i := 0; i < 20000; i++ {
		addr := uint64(rng.Intn(1 << 14))
		c2.Access(addr, false)
		c4.Access(addr, false)
	}
	if c4.Stats().ReadMisses > c2.Stats().ReadMisses {
		t.Errorf("inclusion violated: 4-way misses %d > 2-way misses %d",
			c4.Stats().ReadMisses, c2.Stats().ReadMisses)
	}
}

// Property: miss count never exceeds access count, and compulsory misses
// never exceed total read misses.
func TestQuickCounterSanity(t *testing.T) {
	f := func(seed int64, n uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		c := New(cfg(512, 2, 2))
		for i := 0; i < int(n); i++ {
			c.Access(uint64(rng.Intn(1<<12)), rng.Intn(4) == 0)
		}
		s := c.Stats()
		return s.Misses() <= s.Accesses() &&
			s.Compulsory <= s.ReadMisses &&
			s.Reads+s.Writes == uint64(n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: a cache big enough to hold the whole footprint only takes
// compulsory misses.
func TestQuickOnlyCompulsoryWhenFits(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := New(cfg(64*1024, 4, area.FullyAssociative))
		for i := 0; i < 5000; i++ {
			c.Access(uint64(rng.Intn(32*1024)), false)
		}
		s := c.Stats()
		return s.ReadMisses == s.Compulsory
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestInvalidConfigPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New with invalid config must panic")
		}
	}()
	New(cfg(1000, 4, 1))
}

// naiveCache is the oracle for TestCompulsoryCrossValidates: each set a
// plain slice of blocks, most recent first, and every block that took a
// read miss in a per-block map.
type naiveCache struct {
	lineBytes uint64
	ways      int
	alloc     bool
	sets      [][]uint64
	seen      map[uint64]struct{}
	stats     Stats
}

func newNaiveCache(c Config) *naiveCache {
	ways := c.Assoc
	if ways == area.FullyAssociative {
		ways = c.Lines()
	}
	return &naiveCache{
		lineBytes: uint64(c.LineWords * area.WordBytes),
		ways:      ways,
		alloc:     c.WriteAllocate,
		sets:      make([][]uint64, c.Lines()/ways),
		seen:      map[uint64]struct{}{},
	}
}

func (n *naiveCache) access(key uint64, write bool) bool {
	block := key / n.lineBytes
	set := &n.sets[block%uint64(len(n.sets))]
	if write {
		n.stats.Writes++
	} else {
		n.stats.Reads++
	}
	for i, b := range *set {
		if b == block {
			copy((*set)[1:i+1], (*set)[:i])
			(*set)[0] = block
			return true
		}
	}
	if write {
		n.stats.WriteMisses++
		if !n.alloc {
			return false
		}
	} else {
		n.stats.ReadMisses++
		if _, ok := n.seen[block]; !ok {
			n.seen[block] = struct{}{}
			n.stats.Compulsory++
		}
	}
	n.stats.Fills++
	*set = append([]uint64{block}, *set...)
	if len(*set) > n.ways {
		*set = (*set)[:n.ways]
	}
	return false
}

// The 64-blocks-per-entry compulsory set must classify exactly like a
// plain per-block set. Every line size from 1 to 32 words, direct-
// mapped, 2-way and fully associative, with and without write-allocate,
// runs a stream of clustered and scattered keys over a 44-bit space --
// neighbouring blocks share a set entry, distant ones differ only above
// bit 6 of the block number -- against the naive oracle, hit by hit,
// and every counter is compared before and after a Reset midway.
func TestCompulsoryCrossValidates(t *testing.T) {
	const n = 20_000
	rng := rand.New(rand.NewSource(44))
	bases := make([]uint64, 12)
	for i := range bases {
		bases[i] = uint64(rng.Int63n(1 << 44))
	}
	keys := make([]uint64, n)
	writes := make([]bool, n)
	for i := range keys {
		switch r := rng.Intn(16); {
		case r == 0: // anywhere in the space
			keys[i] = uint64(rng.Int63n(1 << 44))
		case r < 4: // a 64-block set entry's edges, in a distant region
			keys[i] = bases[rng.Intn(len(bases))]&^(64*128-1) + uint64(64*128*rng.Intn(4)) - uint64(rng.Intn(2)*4)
		default: // a few KB around one of the regions
			keys[i] = bases[rng.Intn(len(bases))] + uint64(rng.Intn(12<<10))
		}
		writes[i] = rng.Intn(4) == 0
	}
	for _, line := range []int{1, 2, 4, 8, 16, 32} {
		for _, assoc := range []int{1, 2, area.FullyAssociative} {
			for _, alloc := range []bool{false, true} {
				c := cfg(32*line*area.WordBytes, line, assoc)
				c.WriteAllocate = alloc
				got, want := New(c), newNaiveCache(c)
				name := fmt.Sprintf("line=%d assoc=%d alloc=%v", line, assoc, alloc)
				for i, k := range keys {
					if i == n/2 {
						if got.Stats() != want.stats {
							t.Fatalf("%s: before Reset stats = %+v, oracle %+v", name, got.Stats(), want.stats)
						}
						got.Reset()
						want = newNaiveCache(c)
					}
					if g, w := got.Access(k, writes[i]), want.access(k, writes[i]); g != w {
						t.Fatalf("%s: access %d (key %#x) hit = %v, oracle %v", name, i, k, g, w)
					}
				}
				if got.Stats() != want.stats {
					t.Fatalf("%s: stats = %+v, oracle %+v", name, got.Stats(), want.stats)
				}
				if want.stats.Compulsory == 0 || want.stats.Compulsory == want.stats.ReadMisses {
					t.Fatalf("%s: %d compulsory of %d read misses: the stream must take both kinds",
						name, want.stats.Compulsory, want.stats.ReadMisses)
				}
			}
		}
	}
}
