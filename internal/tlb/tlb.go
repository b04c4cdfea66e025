// Package tlb implements a software-managed TLB simulator in the style
// of the MIPS R2000, the platform of the paper's measurements. On the
// R2000 every TLB miss traps to a software handler, so misses have
// strongly bimodal cost: a user-segment miss runs the fast uTLB refill
// handler (~20 cycles), while a kernel-segment (kseg2) miss -- most often
// a miss on a page-table page taken from inside the uTLB handler --
// costs hundreds of cycles. The Managed type models this chain
// explicitly: a user miss loads its PTE from the linearly-mapped page
// table in kseg2, and that load can itself miss in the TLB, charging the
// kernel-miss cost and inserting the page-table page's translation.
// This mechanism, together with the extra address spaces of a
// multiple-API system, is what drives the paper's Mach TLB results.
package tlb

import (
	"fmt"
	"slices"

	"onchip/internal/area"
	"onchip/internal/vm"
)

// Policy selects the replacement policy.
type Policy uint8

const (
	// LRU is true least-recently-used replacement, usable in
	// trace-driven simulation where every access is visible.
	LRU Policy = iota
	// FIFO replaces in insertion order. Kernel-based (Tapeworm)
	// simulation uses FIFO because only miss events are visible, so
	// hit recency cannot be tracked; it is also close to the R2000's
	// hardware random replacement in behaviour.
	FIFO
)

func (p Policy) String() string {
	if p == FIFO {
		return "FIFO"
	}
	return "LRU"
}

// Config describes a TLB to simulate.
type Config struct {
	area.TLBConfig
	Policy Policy
}

// R2000 returns the hardware TLB configuration of the MIPS R2000 as used
// in the DECstation 3100: 64 entries, fully associative.
func R2000() Config {
	return Config{TLBConfig: area.TLBConfig{Entries: 64, Assoc: area.FullyAssociative}}
}

// Stats holds probe counters.
type Stats struct {
	Probes uint64
	Misses uint64
}

// MissRatio returns misses per probe.
func (s Stats) MissRatio() float64 {
	if s.Probes == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Probes)
}

func (s Stats) String() string {
	return fmt.Sprintf("probes=%d misses=%d ratio=%.5f", s.Probes, s.Misses, s.MissRatio())
}

// pack flattens a translation key into one word, the form the sets
// hold it in, so a set scan compares single words. VPN is 20 bits and
// ASID 8, so the packing is injective.
func pack(k vm.TransKey) uint64 { return uint64(k.VPN)<<8 | uint64(k.ASID) }

// unpack inverts pack.
func unpack(p uint64) vm.TransKey { return vm.TransKey{VPN: uint32(p >> 8), ASID: uint8(p)} }

// TLB is the core simulator. It supports probe, insert with victim
// report, and invalidation -- the operations needed both for direct
// trace-driven use and for Tapeworm-style kernel-based simulation.
type TLB struct {
	cfg  Config
	ways int
	// sets[s] holds set s's packed keys; their order encodes recency
	// (LRU) or insertion order (FIFO), most recent first.
	sets  [][]uint64
	stats Stats
}

// New builds a TLB simulator; it panics on invalid configurations.
// Callers holding untrusted configurations should use NewE instead.
func New(cfg Config) *TLB {
	t, err := NewE(cfg)
	if err != nil {
		panic(err)
	}
	return t
}

// NewE builds a TLB simulator, returning an error on an invalid
// configuration instead of panicking.
func NewE(cfg Config) (*TLB, error) {
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("tlb: invalid config %v: %w", cfg.TLBConfig, err)
	}
	t := &TLB{cfg: cfg, ways: cfg.Assoc}
	if cfg.Assoc == area.FullyAssociative {
		t.ways = cfg.Entries
	}
	t.sets = make([][]uint64, cfg.Entries/t.ways)
	for i := range t.sets {
		t.sets[i] = make([]uint64, 0, t.ways)
	}
	return t, nil
}

// Config returns the simulated configuration.
func (t *TLB) Config() Config { return t.cfg }

// Stats returns probe counters.
func (t *TLB) Stats() Stats { return t.stats }

// Reset clears contents and counters.
func (t *TLB) Reset() {
	for i := range t.sets {
		t.sets[i] = t.sets[i][:0]
	}
	t.stats = Stats{}
}

// setFor returns the index of the set a packed key maps to.
func (t *TLB) setFor(p uint64) int { return int(p>>8) & (len(t.sets) - 1) }

// promote moves set[i] to the front, shifting the entries above it
// down one.
func promote(set []uint64, i int) {
	p := set[i]
	copy(set[1:i+1], set[:i])
	set[0] = p
}

// Probe looks key up, updating recency under LRU, and reports a hit.
func (t *TLB) Probe(key vm.TransKey) bool {
	t.stats.Probes++
	p := pack(key)
	set := t.sets[t.setFor(p)]
	// Fast path: reference streams have strong page locality, so most
	// probes land on the one or two most recent translations of their
	// set. A depth-1 hit changes no state (the entry is already in
	// front); a depth-2 hit under LRU is a swap. Both bypass the scan.
	if len(set) > 0 && set[0] == p {
		return true
	}
	if len(set) > 1 && set[1] == p {
		if t.cfg.Policy == LRU {
			set[0], set[1] = set[1], set[0]
		}
		return true
	}
	i := slices.Index(set, p)
	if i < 0 {
		t.stats.Misses++
		return false
	}
	if t.cfg.Policy == LRU {
		promote(set, i)
	}
	return true
}

// Contains reports presence without updating recency or counters.
func (t *TLB) Contains(key vm.TransKey) bool {
	p := pack(key)
	return slices.Contains(t.sets[t.setFor(p)], p)
}

// Insert adds key, returning the evicted victim if the set was full.
// Inserting a present key only refreshes its recency.
func (t *TLB) Insert(key vm.TransKey) (victim vm.TransKey, evicted bool) {
	p := pack(key)
	si := t.setFor(p)
	set := t.sets[si]
	if i := slices.Index(set, p); i >= 0 {
		if t.cfg.Policy == LRU {
			promote(set, i)
		}
		return vm.TransKey{}, false
	}
	if len(set) == t.ways {
		last := set[len(set)-1]
		victim, evicted = unpack(last), true
		set = set[:len(set)-1]
	}
	set = append(set, 0)
	copy(set[1:], set[:len(set)-1])
	set[0] = p
	t.sets[si] = set
	return victim, evicted
}

// Invalidate removes key if present, reporting whether it was.
// Tapeworm uses this to maintain the hardware-subset invariant.
func (t *TLB) Invalidate(key vm.TransKey) bool {
	p := pack(key)
	si := t.setFor(p)
	i := slices.Index(t.sets[si], p)
	if i < 0 {
		return false
	}
	t.sets[si] = slices.Delete(t.sets[si], i, i+1)
	return true
}

// Len returns the number of entries currently held.
func (t *TLB) Len() int {
	n := 0
	for _, set := range t.sets {
		n += len(set)
	}
	return n
}

// Keys snapshots the currently resident translation keys (in no
// particular order). Tapeworm uses this to audit its subset invariant.
func (t *TLB) Keys() []vm.TransKey {
	keys := make([]vm.TransKey, 0, t.Len())
	for _, set := range t.sets {
		for _, p := range set {
			keys = append(keys, unpack(p))
		}
	}
	return keys
}
