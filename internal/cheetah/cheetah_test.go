package cheetah

import (
	"math/rand"
	"testing"
	"testing/quick"

	"onchip/internal/area"
	"onchip/internal/cache"
)

// Cross-validation: the single-pass all-associativity simulator must
// produce exactly the same miss counts as the direct LRU simulator for
// every associativity.
func TestAgreesWithDirectSimulator(t *testing.T) {
	const (
		sets      = 16
		lineWords = 4
		maxAssoc  = 8
	)
	rng := rand.New(rand.NewSource(7))
	aa := NewAllAssoc(sets, lineWords, maxAssoc)
	direct := make([]*cache.Cache, maxAssoc)
	for a := 1; a <= maxAssoc; a++ {
		direct[a-1] = cache.New(cache.Config{CacheConfig: area.CacheConfig{
			CapacityBytes: sets * a * lineWords * area.WordBytes,
			LineWords:     lineWords,
			Assoc:         a,
		}})
	}
	for i := 0; i < 50000; i++ {
		// Mix of sequential and random accesses to exercise both
		// spatial and temporal locality.
		var addr uint64
		if i%3 == 0 {
			addr = uint64(i * 4 % (1 << 13))
		} else {
			addr = uint64(rng.Intn(1 << 13))
		}
		aa.Access(addr)
		for _, c := range direct {
			c.Access(addr, false)
		}
	}
	for a := 1; a <= maxAssoc; a++ {
		want := direct[a-1].Stats().ReadMisses
		if got := aa.Misses(a); got != want {
			t.Errorf("assoc %d: cheetah misses %d, direct %d", a, got, want)
		}
	}
}

// Inclusion: miss counts are non-increasing in associativity.
func TestMissesMonotoneInAssoc(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	aa := NewAllAssoc(32, 2, 8)
	for i := 0; i < 30000; i++ {
		aa.Access(uint64(rng.Intn(1 << 14)))
	}
	for a := 2; a <= 8; a++ {
		if aa.Misses(a) > aa.Misses(a-1) {
			t.Errorf("misses(%d)=%d > misses(%d)=%d", a, aa.Misses(a), a-1, aa.Misses(a-1))
		}
	}
}

func TestStackDistFullyAssociative(t *testing.T) {
	sd := NewStackDist(4, 64)
	fa := cache.New(cache.Config{CacheConfig: area.CacheConfig{
		CapacityBytes: 16 * 16, // 16 lines of 16 bytes
		LineWords:     4,
		Assoc:         area.FullyAssociative,
	}})
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 20000; i++ {
		addr := uint64(rng.Intn(1 << 10))
		sd.Access(addr)
		fa.Access(addr, false)
	}
	if got, want := sd.Misses(16), fa.Stats().ReadMisses; got != want {
		t.Errorf("stack-distance misses(16 lines) = %d, direct FA = %d", got, want)
	}
}

func TestAccessesCount(t *testing.T) {
	aa := NewAllAssoc(4, 1, 2)
	for i := 0; i < 10; i++ {
		aa.Access(uint64(i * 4))
	}
	if aa.Accesses() != 10 {
		t.Errorf("Accesses = %d", aa.Accesses())
	}
	if aa.MissRatio(1) != 1.0 {
		t.Errorf("all-distinct stream should miss everywhere, ratio=%g", aa.MissRatio(1))
	}
}

func TestPanicsOnBadParams(t *testing.T) {
	for name, f := range map[string]func(){
		"sets":  func() { NewAllAssoc(3, 4, 2) },
		"line":  func() { NewAllAssoc(4, 3, 2) },
		"assoc": func() { NewAllAssoc(4, 4, 0) },
		"range": func() { NewAllAssoc(4, 4, 2).Misses(3) },
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

// Property: for random traces, cheetah and the direct simulator agree at
// a randomly chosen associativity.
func TestQuickAgreement(t *testing.T) {
	f := func(seed int64, assocExp uint8) bool {
		assoc := 1 << (assocExp % 3) // 1, 2, 4
		const sets, line = 8, 2
		rng := rand.New(rand.NewSource(seed))
		aa := NewAllAssoc(sets, line, 4)
		d := cache.New(cache.Config{CacheConfig: area.CacheConfig{
			CapacityBytes: sets * assoc * line * area.WordBytes,
			LineWords:     line,
			Assoc:         assoc,
		}})
		for i := 0; i < 3000; i++ {
			addr := uint64(rng.Intn(1 << 11))
			aa.Access(addr)
			d.Access(addr, false)
		}
		return aa.Misses(assoc) == d.Stats().ReadMisses
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestSweepSharesSimulators(t *testing.T) {
	configs := []area.CacheConfig{
		{CapacityBytes: 4 << 10, LineWords: 4, Assoc: 1},
		{CapacityBytes: 8 << 10, LineWords: 4, Assoc: 2}, // same 256 sets
		{CapacityBytes: 16 << 10, LineWords: 4, Assoc: 4},
		{CapacityBytes: 8 << 10, LineWords: 8, Assoc: 1}, // different line
	}
	sw := NewSweep(configs, 8)
	if sw.Simulators() != 2 {
		t.Errorf("simulators = %d, want 2 (three configs share 256 sets x 4 words)", sw.Simulators())
	}
	rng := rand.New(rand.NewSource(21))
	direct := make([]*cache.Cache, len(configs))
	for i, c := range configs {
		direct[i] = cache.New(cache.Config{CacheConfig: c})
	}
	for i := 0; i < 30000; i++ {
		key := uint64(rng.Intn(1 << 15))
		sw.AccessKeys([]uint64{key})
		for _, d := range direct {
			d.Access(key, false)
		}
	}
	for i, c := range configs {
		if got, want := sw.Misses(c), direct[i].Stats().ReadMisses; got != want {
			t.Errorf("%v: sweep %d, direct %d", c, got, want)
		}
	}
	if sw.Accesses() != 30000 {
		t.Errorf("accesses = %d", sw.Accesses())
	}
}

func TestSweepPanics(t *testing.T) {
	for name, f := range map[string]func(){
		"invalid": func() {
			NewSweep([]area.CacheConfig{{CapacityBytes: 3000, LineWords: 4, Assoc: 1}}, 8)
		},
		"overAssoc": func() {
			NewSweep([]area.CacheConfig{{CapacityBytes: 8 << 10, LineWords: 4, Assoc: 16}}, 8)
		},
		"unswept": func() {
			sw := NewSweep([]area.CacheConfig{{CapacityBytes: 8 << 10, LineWords: 4, Assoc: 1}}, 8)
			sw.Misses(area.CacheConfig{CapacityBytes: 4 << 10, LineWords: 8, Assoc: 1})
		},
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
