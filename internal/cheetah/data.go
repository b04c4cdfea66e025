// Write-policy-aware single-pass simulation for the data stream.
//
// The classic stack algorithm covers read-only (or write-allocate)
// streams, where every access touches every cache and the inclusion
// property falls out of pure LRU. The DECstation D-cache is
// write-through with no write-allocate: a store hit refreshes the
// line's recency but a store miss leaves the set untouched. Whether a
// store hits depends on the associativity, so caches of different
// associativity update their recency differently and a single LRU
// stack no longer describes all of them at once.
//
// Thompson & Smith ("Efficient (stack) algorithms for analysis of
// write-back and sector memories", ACM TOCS 1989) showed that stack
// simulation generalizes to write policies by carrying per-entry
// policy state down the stack. The no-write-allocate variant used here
// rests on two provable invariants (see DESIGN.md section 10):
//
//  1. Inclusion still holds: at a fixed set count, the content of the
//     a-way cache is a subset of the (a+1)-way cache's content.
//  2. Recency is consistent: the (a+1)-way cache's LRU order,
//     restricted to the blocks the a-way cache holds, IS the a-way
//     cache's LRU order.
//
// So one recency list per set (that of the widest tracked cache)
// plus one small integer per resident block -- its minimum resident
// associativity m(b) = min{a : b in the a-way cache} -- captures every
// associativity exactly. A load to a block with m(b) = d hits in all
// caches with a >= d and misses in the rest, which is the same
// "hit depth" bookkeeping as the read-only algorithm; the extra work
// is relabeling m when the per-level LRU victims diverge.
package cheetah

import "onchip/internal/area"

// AllAssocData computes, in one pass over a load/store stream, exact
// read (load) miss counts for write-through, no-write-allocate,
// true-LRU caches with a fixed set count and line size and every
// associativity 1..maxAssoc. It is the D-stream counterpart of
// AllAssoc and agrees bit-for-bit with direct simulation
// (cache.Cache with WriteAllocate and WriteBack off).
type AllAssocData struct {
	maxAssoc   int
	offsetBits uint
	setMask    uint64

	// Per set: up to maxAssoc resident blocks in the recency order of
	// the maxAssoc-way cache (most recent first), flattened as
	// blocks[set*maxAssoc : set*maxAssoc+len[set]], with m[i] the
	// block's minimum resident associativity. m is always a bijection
	// onto 1..len[set].
	blocks []uint64
	m      []uint8
	len    []uint8

	// hits[d] counts loads that hit with minimum resident
	// associativity d+1 (a hit in every cache with assoc >= d+1).
	hits   []uint64
	reads  uint64
	writes uint64

	// last memoizes a block known to sit at the front of its set's
	// recency list with m = 1 (it is resident in every tracked cache,
	// at the MRU spot of each). A repeated load is then a depth-1 hit
	// and a repeated store a store hit at the front -- both provably
	// leave the set state unchanged, so the scan and relabel walk can
	// be skipped. Sequential code runs through cache lines, making this
	// the hottest case. Initialized to an impossible block; accessSet
	// keeps it exact by invalidating it when a store-hit promote
	// displaces the memoized front block.
	last uint64
}

// NewAllAssocData builds a D-stream simulator for the given set count
// (a power of two), line size in words, and maximum associativity of
// interest (at most 255, the relabeling bookkeeping's width).
func NewAllAssocData(sets, lineWords, maxAssoc int) *AllAssocData {
	if sets <= 0 || sets&(sets-1) != 0 {
		panic("cheetah: set count must be a positive power of two")
	}
	if lineWords <= 0 || lineWords&(lineWords-1) != 0 {
		panic("cheetah: line words must be a positive power of two")
	}
	if maxAssoc <= 0 || maxAssoc > 255 {
		panic("cheetah: max associativity must be in 1..255")
	}
	return &AllAssocData{
		maxAssoc:   maxAssoc,
		offsetBits: uint(log2(lineWords * area.WordBytes)),
		setMask:    uint64(sets - 1),
		blocks:     make([]uint64, sets*maxAssoc),
		m:          make([]uint8, sets*maxAssoc),
		len:        make([]uint8, sets),
		hits:       make([]uint64, maxAssoc),
		last:       ^uint64(0),
	}
}

// Access processes one data reference to the byte-addressable key.
func (d *AllAssocData) Access(key uint64, write bool) {
	if write {
		d.writes++
	} else {
		d.reads++
	}
	block := key >> d.offsetBits
	if block == d.last {
		if !write {
			d.hits[0]++
		}
		return
	}
	d.last = d.accessSet(int(block&d.setMask), block, write, d.last)
}

// AccessPacked processes a batch of data references, each packed as
// key<<1|write (see PackRef): the sweep engine's hot path, equal in
// effect to calling Access per reference. The depth-1 memo and the
// counters live in locals for the batch and are credited once.
func (d *AllAssocData) AccessPacked(batch []uint64) {
	last := d.last
	var writes, repeatLoads uint64
	for _, kv := range batch {
		write := kv & 1
		writes += write
		block := kv >> 1 >> d.offsetBits
		if block == last {
			repeatLoads += write ^ 1
			continue
		}
		last = d.accessSet(int(block&d.setMask), block, write != 0, last)
	}
	d.last = last
	d.hits[0] += repeatLoads
	d.writes += writes
	d.reads += uint64(len(batch)) - writes
}

// accessSet runs the full stack-update bookkeeping for one reference
// known to have missed the depth-1 memo last, crediting its hit depth,
// and returns the memo to carry on: block when the access leaves block
// at the MRU spot of every tracked cache (m = 1 at the list front), an
// impossible block when a store-hit promote displaces the set's
// memoizable front block, and last unchanged otherwise (a store miss
// touches nothing). The caller counts the reference itself.
func (d *AllAssocData) accessSet(set int, block uint64, write bool, last uint64) uint64 {
	base := set * d.maxAssoc
	k := int(d.len[set])

	p := -1
	for i, b := range d.blocks[base : base+k] {
		if b == block {
			p = i
			break
		}
	}

	if write {
		if p < 0 {
			return last // store miss: no allocation, no recency change
		}
		// Store hit in every cache with assoc >= m(block): refresh
		// recency there (front of the list; the restriction to each
		// containing cache puts the block at its MRU spot). m is
		// unchanged -- the narrower caches missed and stay untouched.
		mv := d.m[base+p]
		if p == 1 {
			d.blocks[base+1] = d.blocks[base]
			d.m[base+1] = d.m[base]
			d.blocks[base] = block
			d.m[base] = mv
		} else if p > 1 {
			copy(d.blocks[base+1:base+p+1], d.blocks[base:base+p])
			copy(d.m[base+1:base+p+1], d.m[base:base+p])
			d.blocks[base] = block
			d.m[base] = mv
		}
		if mv == 1 {
			// block now fronts every tracked cache's recency order.
			return block
		}
		if last&d.setMask == uint64(set) {
			// The promote displaced this set's old front block -- the
			// only block the memo could have been holding.
			return ^uint64(0)
		}
		return last
	}

	var evictLimit int
	if p >= 0 {
		depth := int(d.m[base+p])
		d.hits[depth-1]++
		if depth == 1 {
			// Fast path for the common case: a hit in even the 1-way
			// cache evicts nowhere, so no relabeling -- just promote.
			if p == 1 {
				d.blocks[base+1] = d.blocks[base]
				d.m[base+1] = d.m[base]
			} else if p > 1 {
				copy(d.blocks[base+1:base+p+1], d.blocks[base:base+p])
				copy(d.m[base+1:base+p+1], d.m[base:base+p])
			}
			d.blocks[base] = block
			d.m[base] = 1
			return block
		}
		evictLimit = depth - 1 // caches 1..depth-1 miss and evict
	} else {
		evictLimit = k // full caches 1..k evict; wider ones fill a free way
	}

	// Relabel the per-level LRU victims. Walking from the bottom of the
	// recency list, an entry x is the victim of exactly the levels
	// [m(x), min(minBelow, evictLimit+1)-1], where minBelow is the
	// smallest m strictly below x (a deeper block with a smaller m
	// shields x at that level and beyond). Its new minimum residency is
	// the first level that did not evict it; past maxAssoc it has left
	// every tracked cache and drops off the list.
	minBelow := 256
	drop := -1
	for i := k - 1; i >= 0; i-- {
		if i == p {
			continue
		}
		mi := int(d.m[base+i])
		if mi <= evictLimit && mi < minBelow {
			nm := minBelow
			if evictLimit+1 < nm {
				nm = evictLimit + 1
			}
			if nm > d.maxAssoc {
				drop = i
			} else {
				d.m[base+i] = uint8(nm)
			}
		}
		if mi < minBelow {
			if mi == 1 {
				// No entry above can have m < 1, so no further victim
				// candidates exist; the walk is done.
				break
			}
			minBelow = mi
		}
	}

	// Insert the loaded block at the front with m=1 (it now sits at the
	// MRU spot of every cache), shifting everything above the vacated
	// position down one.
	shift := p
	if p < 0 {
		if drop >= 0 {
			shift = drop
		} else {
			shift = k
			d.len[set]++
		}
	}
	copy(d.blocks[base+1:base+shift+1], d.blocks[base:base+shift])
	copy(d.m[base+1:base+shift+1], d.m[base:base+shift])
	d.blocks[base] = block
	d.m[base] = 1
	return block
}

// PackRef packs a cache key and write flag for AccessPacked. Cache
// keys are at most 45 bits (see vm.CacheKey), so the shift is safe.
func PackRef(key uint64, write bool) uint64 {
	kv := key << 1
	if write {
		kv |= 1
	}
	return kv
}

// Reads returns the number of load references processed.
func (d *AllAssocData) Reads() uint64 { return d.reads }

// Writes returns the number of store references processed.
func (d *AllAssocData) Writes() uint64 { return d.writes }

// ReadMisses returns the exact load miss count for associativity assoc
// (1 <= assoc <= maxAssoc) under the write-through, no-write-allocate
// policy.
func (d *AllAssocData) ReadMisses(assoc int) uint64 {
	if assoc < 1 || assoc > d.maxAssoc {
		panic("cheetah: associativity out of tracked range")
	}
	var hits uint64
	for _, h := range d.hits[:assoc] {
		hits += h
	}
	return d.reads - hits
}

// DataSweep prices an arbitrary set of cache configurations for the
// no-write-allocate data stream: configurations sharing a (set count,
// line size) pair share one AllAssocData simulator sized to the widest
// associativity any of them prices (groupWays, the I-stream's rule
// too), so the Table 5 design space of 120 configurations runs on 48
// stack simulators instead of 120 direct ones -- and each access costs
// a bounded stack scan rather than a full LRU simulation per
// configuration.
type DataSweep struct {
	sims    map[[2]int]*AllAssocData // key: {sets, lineWords}; lookup only
	simList []*AllAssocData          // dense iteration order for the hot path
	reads   uint64
}

// NewDataSweep builds a sweep covering every configuration. It panics
// on invalid configurations or effective associativities above 255.
func NewDataSweep(configs []area.CacheConfig) *DataSweep {
	s := &DataSweep{sims: make(map[[2]int]*AllAssocData)}
	for _, g := range groupWays(configs) {
		sim := NewAllAssocData(g.sets, g.lineWords, g.ways)
		s.sims[[2]int{g.sets, g.lineWords}] = sim
		s.simList = append(s.simList, sim)
	}
	return s
}

// Access processes one data reference for every simulator.
func (s *DataSweep) Access(key uint64, write bool) {
	if !write {
		s.reads++
	}
	for _, sim := range s.simList {
		sim.Access(key, write)
	}
}

// AccessPacked processes a batch of packed references (see PackRef)
// for every simulator, one simulator at a time so each inner loop
// stays tight over the shared batch.
func (s *DataSweep) AccessPacked(batch []uint64) {
	for _, kv := range batch {
		if kv&1 == 0 {
			s.reads++
		}
	}
	for _, sim := range s.simList {
		sim.AccessPacked(batch)
	}
}

// Reads returns the number of load references processed.
func (s *DataSweep) Reads() uint64 { return s.reads }

// ReadMisses returns the exact load miss count for one of the swept
// configurations. It panics if the configuration was not covered by
// NewDataSweep.
func (s *DataSweep) ReadMisses(c area.CacheConfig) uint64 {
	sim, ok := s.sims[[2]int{c.Sets(), c.LineWords}]
	if !ok {
		unswept(c)
	}
	return sim.ReadMisses(effectiveAssoc(c))
}

// Simulators reports how many distinct stack simulators the sweep runs.
func (s *DataSweep) Simulators() int { return len(s.simList) }

// Groups hands out the underlying simulators for callers that
// parallelize across them (each simulator is independent and
// deterministic, so concurrent groups give bit-identical results as
// long as every group sees the full stream in order).
func (s *DataSweep) Groups() []*AllAssocData { return s.simList }
