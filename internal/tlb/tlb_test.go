package tlb

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"onchip/internal/area"
	"onchip/internal/vm"
)

func faCfg(entries int) Config {
	return Config{TLBConfig: area.TLBConfig{Entries: entries, Assoc: area.FullyAssociative}}
}

func saCfg(entries, assoc int, p Policy) Config {
	return Config{TLBConfig: area.TLBConfig{Entries: entries, Assoc: assoc}, Policy: p}
}

func key(vpn uint32, asid uint8) vm.TransKey { return vm.TransKey{VPN: vpn, ASID: asid} }

func TestProbeInsertBasics(t *testing.T) {
	tl := New(faCfg(4))
	k := key(0x400, 1)
	if tl.Probe(k) {
		t.Error("cold TLB must miss")
	}
	tl.Insert(k)
	if !tl.Probe(k) {
		t.Error("inserted key must hit")
	}
	s := tl.Stats()
	if s.Probes != 2 || s.Misses != 1 {
		t.Errorf("stats = %+v", s)
	}
	if tl.Len() != 1 {
		t.Errorf("Len = %d", tl.Len())
	}
}

func TestEvictionLRU(t *testing.T) {
	tl := New(saCfg(2, 2, LRU))
	// One set of two ways: keys with any VPN land in set 0.
	a, b, c := key(0, 1), key(2, 1), key(4, 1)
	tl.Insert(a)
	tl.Insert(b)
	tl.Probe(a) // a becomes MRU
	victim, evicted := tl.Insert(c)
	if !evicted || victim != b {
		t.Errorf("victim = %v (evicted=%v), want %v", victim, evicted, b)
	}
	if !tl.Contains(a) || tl.Contains(b) || !tl.Contains(c) {
		t.Error("wrong survivor set after LRU eviction")
	}
}

func TestEvictionFIFO(t *testing.T) {
	tl := New(saCfg(2, 2, FIFO))
	a, b, c := key(0, 1), key(2, 1), key(4, 1)
	tl.Insert(a)
	tl.Insert(b)
	tl.Probe(a) // FIFO ignores recency
	victim, evicted := tl.Insert(c)
	if !evicted || victim != a {
		t.Errorf("victim = %v (evicted=%v), want %v (insertion order)", victim, evicted, a)
	}
}

func TestInsertExistingRefreshes(t *testing.T) {
	tl := New(saCfg(2, 2, LRU))
	a, b, c := key(0, 1), key(2, 1), key(4, 1)
	tl.Insert(a)
	tl.Insert(b)
	if _, evicted := tl.Insert(a); evicted {
		t.Error("re-inserting a present key must not evict")
	}
	// a was refreshed, so b is now LRU.
	victim, _ := tl.Insert(c)
	if victim != b {
		t.Errorf("victim = %v, want %v", victim, b)
	}
	if tl.Len() != 2 {
		t.Errorf("Len = %d, want 2", tl.Len())
	}
}

func TestSetIndexing(t *testing.T) {
	tl := New(saCfg(4, 1, LRU)) // 4 direct-mapped sets
	// VPNs 0..3 map to distinct sets; all four fit simultaneously.
	for v := uint32(0); v < 4; v++ {
		tl.Insert(key(v, 1))
	}
	for v := uint32(0); v < 4; v++ {
		if !tl.Contains(key(v, 1)) {
			t.Errorf("VPN %d missing from direct-mapped TLB", v)
		}
	}
	// VPN 4 conflicts with VPN 0.
	tl.Insert(key(4, 1))
	if tl.Contains(key(0, 1)) {
		t.Error("direct-mapped conflict must evict")
	}
}

func TestASIDsDistinguished(t *testing.T) {
	tl := New(faCfg(4))
	tl.Insert(key(0x400, 1))
	if tl.Probe(key(0x400, 2)) {
		t.Error("same VPN under different ASID must miss")
	}
}

func TestInvalidate(t *testing.T) {
	tl := New(faCfg(4))
	k := key(7, 1)
	tl.Insert(k)
	if !tl.Invalidate(k) {
		t.Error("Invalidate of present key must report true")
	}
	if tl.Invalidate(k) {
		t.Error("Invalidate of absent key must report false")
	}
	if tl.Probe(k) {
		t.Error("invalidated key must miss")
	}
}

func TestReset(t *testing.T) {
	tl := New(faCfg(4))
	tl.Insert(key(1, 1))
	tl.Probe(key(1, 1))
	tl.Reset()
	if tl.Len() != 0 || tl.Stats().Probes != 0 {
		t.Error("Reset did not clear state")
	}
}

func TestR2000Config(t *testing.T) {
	c := R2000()
	if c.Entries != 64 || c.Assoc != area.FullyAssociative {
		t.Errorf("R2000() = %+v", c)
	}
}

// Inclusion: a larger fully-associative LRU TLB never misses more often.
func TestFAInclusion(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	small := New(faCfg(16))
	big := New(faCfg(64))
	miss := func(tl *TLB, k vm.TransKey) bool {
		if tl.Probe(k) {
			return false
		}
		tl.Insert(k)
		return true
	}
	var sm, bm int
	for i := 0; i < 20000; i++ {
		k := key(uint32(rng.Intn(200)), 1)
		if miss(small, k) {
			sm++
		}
		if miss(big, k) {
			bm++
		}
	}
	if bm > sm {
		t.Errorf("inclusion violated: big TLB missed %d > small %d", bm, sm)
	}
}

// Property: Len never exceeds capacity, and a just-inserted key always
// probes as a hit.
func TestQuickCapacityAndPresence(t *testing.T) {
	f := func(seed int64, n uint16, assocExp, entExp uint8) bool {
		entries := 1 << (2 + entExp%5) // 4..64
		assoc := 1 << (assocExp % 3)   // 1..4
		if assoc > entries {
			return true
		}
		tl := New(saCfg(entries, assoc, LRU))
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < int(n%500); i++ {
			k := key(uint32(rng.Intn(1000)), uint8(rng.Intn(3)))
			if !tl.Probe(k) {
				tl.Insert(k)
				if !tl.Contains(k) {
					return false
				}
			}
			if tl.Len() > entries {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestPolicyString(t *testing.T) {
	if LRU.String() != "LRU" || FIFO.String() != "FIFO" {
		t.Error("policy strings wrong")
	}
}

func TestInvalidConfigPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	New(saCfg(48, 1, LRU))
}

// listModel is the naive reference TLB of TestTLBMatchesListModel: a
// plain list of keys per set, most recent (LRU) or most recently
// inserted (FIFO) first, searched from the front on every operation.
type listModel struct {
	ways   int
	lru    bool
	sets   [][]vm.TransKey
	misses uint64
}

func (m *listModel) set(k vm.TransKey) *[]vm.TransKey { return &m.sets[int(k.VPN)%len(m.sets)] }

// lookup returns k's position in its set, moving it to the front
// first under LRU when touch is set.
func (m *listModel) lookup(k vm.TransKey, touch bool) int {
	s := m.set(k)
	for i, x := range *s {
		if x == k {
			if touch && m.lru {
				*s = append([]vm.TransKey{k}, append((*s)[:i:i], (*s)[i+1:]...)...)
				return 0
			}
			return i
		}
	}
	return -1
}

func (m *listModel) insert(k vm.TransKey) (victim vm.TransKey, evicted bool) {
	if m.lookup(k, true) >= 0 {
		return vm.TransKey{}, false
	}
	s := m.set(k)
	if len(*s) == m.ways {
		victim, evicted = (*s)[m.ways-1], true
		*s = (*s)[:m.ways-1]
	}
	*s = append([]vm.TransKey{k}, *s...)
	return victim, evicted
}

func (m *listModel) invalidate(k vm.TransKey) bool {
	i := m.lookup(k, false)
	if i < 0 {
		return false
	}
	s := m.set(k)
	*s = append((*s)[:i:i], (*s)[i+1:]...)
	return true
}

func (m *listModel) keys() []vm.TransKey {
	var out []vm.TransKey
	for _, s := range m.sets {
		out = append(out, s...)
	}
	return out
}

// sortKeys orders keys for comparison (Keys promises no order).
func sortKeys(ks []vm.TransKey) []vm.TransKey {
	slices.SortFunc(ks, func(a, b vm.TransKey) int {
		return cmp.Or(cmp.Compare(a.VPN, b.VPN), cmp.Compare(a.ASID, b.ASID))
	})
	return ks
}

// TestTLBMatchesListModel drives random sequences of Probe, Insert,
// Invalidate, Contains, Len and Keys through the TLB and through
// listModel side by side, under LRU and FIFO, at 1 to 16 ways over 1 to
// 8 sets and fully associative: every answer, every returned victim and
// the probe counters must agree. Tapeworm's own oracle runs on this
// type, so this test is what pins the TLB itself.
func TestTLBMatchesListModel(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	var cfgs []area.TLBConfig
	for ways := 1; ways <= 16; ways++ {
		for sets := 1; sets <= 8; sets *= 2 {
			cfgs = append(cfgs, area.TLBConfig{Entries: ways * sets, Assoc: ways})
		}
	}
	for _, entries := range []int{1, 4, 16, 64} {
		cfgs = append(cfgs, area.TLBConfig{Entries: entries, Assoc: area.FullyAssociative})
	}
	for _, cfg := range cfgs {
		for _, policy := range []Policy{LRU, FIFO} {
			name := fmt.Sprintf("%v %v", cfg, policy)
			tl := New(Config{TLBConfig: cfg, Policy: policy})
			m := &listModel{ways: cfg.Entries / cfg.Sets(), lru: policy == LRU, sets: make([][]vm.TransKey, cfg.Sets())}
			// Twice the capacity in VPNs over three ASIDs: sets overflow,
			// and a re-touched key is often still resident.
			universe := 2 * cfg.Entries
			for op := 0; op < 4000; op++ {
				k := key(uint32(rng.Intn(universe)), uint8(rng.Intn(3)))
				switch r := rng.Intn(10); {
				case r < 4:
					want := m.lookup(k, true) >= 0
					if !want {
						m.misses++
					}
					if got := tl.Probe(k); got != want {
						t.Fatalf("%s op %d: Probe(%v) = %v, model %v", name, op, k, got, want)
					}
				case r < 7:
					wv, we := m.insert(k)
					if gv, ge := tl.Insert(k); gv != wv || ge != we {
						t.Fatalf("%s op %d: Insert(%v) = %v, %v; model %v, %v", name, op, k, gv, ge, wv, we)
					}
				case r < 8:
					if got, want := tl.Invalidate(k), m.invalidate(k); got != want {
						t.Fatalf("%s op %d: Invalidate(%v) = %v, model %v", name, op, k, got, want)
					}
				default:
					if got, want := tl.Contains(k), m.lookup(k, false) >= 0; got != want {
						t.Fatalf("%s op %d: Contains(%v) = %v, model %v", name, op, k, got, want)
					}
				}
				if op%50 == 0 {
					want := sortKeys(m.keys())
					if got := tl.Len(); got != len(want) {
						t.Fatalf("%s op %d: Len = %d, model %d", name, op, got, len(want))
					}
					if got := sortKeys(tl.Keys()); !slices.Equal(got, want) {
						t.Fatalf("%s op %d: Keys = %v, model %v", name, op, got, want)
					}
				}
			}
			if s := tl.Stats(); s.Misses != m.misses {
				t.Errorf("%s: %d probe misses, model %d", name, s.Misses, m.misses)
			}
		}
	}
}
