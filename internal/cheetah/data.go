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
//
// The inclusion across set counts that lets the I stream stop its walk
// early does not survive the write policy: a store can hit, and so
// refresh a block, at one set count and miss at a smaller one, after
// which a load can hit at the smaller set count and miss at the larger
// (TestSetCountInclusionFailsForStores). A DataLine therefore walks
// every set count on every reference it cannot prove a no-op.
package cheetah

import "onchip/internal/area"

// dgroup is one (set count, line size) D-stream stack simulator inside
// a DataLine. Each set is exactly ways words, most recent first, in the
// recency order of the ways-way cache; a word is block<<8 | m(block),
// and empty ways hold noBlock (m reads 255, and no key makes the
// block). Residents always form a prefix of their set, and their m
// values are a bijection onto 1..residents.
type dgroup struct {
	ways    int
	setMask uint64
	sets    []uint64 // set s is sets[s*ways : (s+1)*ways]
	// hits[d] counts loads that walked this group and hit with minimum
	// resident associativity d+1 (a hit in every cache with assoc >=
	// d+1). Loads of the memoized front block are counted by the
	// DataLine instead.
	hits []uint64
}

// set returns block's set.
func (g *dgroup) set(block uint64) []uint64 {
	base := int(block&g.setMask) * g.ways
	return g.sets[base : base+g.ways]
}

// store runs a store through the group. A store hit refreshes the
// block's recency in every cache that holds it (the front of the list;
// the restriction to each containing cache puts it at that cache's MRU
// spot) and leaves m unchanged, since the narrower caches missed; a
// store miss allocates nowhere and touches nothing. It reports whether
// the store promoted a block within last's set, displacing last from
// the front.
func (g *dgroup) store(block, last uint64) bool {
	set := g.set(block)
	for p, w := range set {
		if w>>8 != block {
			continue
		}
		switch {
		case p == 0:
			return false
		case p == 1:
			set[1] = set[0]
		default:
			copy(set[1:p+1], set[:p])
		}
		set[0] = w
		return (block^last)&g.setMask == 0
	}
	return false
}

// load runs a load through the group, crediting its hit depth, and
// leaves block at the front with m = 1 (it now sits at the MRU spot of
// every cache).
func (g *dgroup) load(block uint64) {
	set := g.set(block)
	p := -1
	for i, w := range set {
		if w>>8 == block {
			p = i
			break
		}
	}

	// A hit at depth d misses in caches 1..d-1, which evict; a miss
	// evicts in every full cache, 1..residents, while the wider ones
	// fill a free way.
	var evictLimit, bottom int
	if p >= 0 {
		depth := int(set[p] & 0xff)
		g.hits[depth-1]++
		if depth == 1 {
			// A hit in even the 1-way cache evicts nowhere, so no
			// relabeling -- just promote.
			switch {
			case p == 1:
				set[1] = set[0]
			case p > 1:
				copy(set[1:p+1], set[:p])
			}
			set[0] = block<<8 | 1
			return
		}
		evictLimit, bottom = depth-1, len(set)
	} else {
		k := len(set)
		for k > 0 && set[k-1] == noBlock {
			k--
		}
		evictLimit, bottom = k, k
	}

	// Relabel the per-level LRU victims. Walking from the bottom of the
	// recency list, an entry x is the victim of exactly the levels
	// [m(x), min(minBelow, evictLimit+1)-1], where minBelow is the
	// smallest m strictly below x (a deeper block with a smaller m
	// shields x at that level and beyond). Its new minimum residency is
	// the first level that did not evict it; past ways it has left
	// every tracked cache and drops off the list. Empty ways read
	// m = 255, above any evictLimit, so a walk over them relabels
	// nothing.
	minBelow := 256
	drop := -1
	for i := bottom - 1; i >= 0; i-- {
		if i == p {
			continue
		}
		mi := int(set[i] & 0xff)
		if mi <= evictLimit && mi < minBelow {
			nm := min(minBelow, evictLimit+1)
			if nm > g.ways {
				drop = i
			} else {
				set[i] = set[i]&^0xff | uint64(nm)
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

	// Insert the loaded block at the front with m = 1, shifting
	// everything above the vacated position down one: the hit's old
	// spot, the dropped entry's, or the first empty way.
	shift := p
	if p < 0 {
		shift = bottom
		if drop >= 0 {
			shift = drop
		}
	}
	copy(set[1:shift+1], set[:shift])
	set[0] = block<<8 | 1
}

// DataLine is the D-stream sweep unit: every set-count group of one
// line size, decoding each reference once. It computes, in one pass
// over a load/store stream, exact read (load) miss counts for
// write-through, no-write-allocate, true-LRU caches of that line size
// at every tracked set count and associativity, and agrees bit-for-bit
// with direct simulation (cache.Cache with WriteAllocate and WriteBack
// off).
//
// Two memos skip the walk over the groups, each exact:
//
//   - last is a block at the front with m = 1 in every group. A load
//     of it is a depth-1 hit everywhere and a store of it a hit at the
//     front; neither changes a stack. A load sets it. A store of
//     another block keeps it, unless the store promoted a block within
//     last's set in some group.
//   - A store of the previous reference's block is a no-op in every
//     group: if that reference hit (or was a load) the block is at the
//     front, and if it was a store that missed, the store misses again.
type DataLine struct {
	shift  uint     // log2 of the line size in bytes
	groups []dgroup // ascending set count
	reads  uint64
	writes uint64
	// repeats counts loads of last, a depth-1 hit in every group.
	repeats uint64
	last    uint64 // noBlock when no block qualifies
	prev    uint64 // block of the previous reference; noBlock at start
}

// newDataLine builds the unit for one line size over its groups, in
// ascending set count. Set counts must be positive powers of two, ways
// in 1..255 (the width of m).
func newDataLine(groups []groupSpec) *DataLine {
	lineWords := groups[0].lineWords
	if lineWords <= 0 || lineWords&(lineWords-1) != 0 {
		panic("cheetah: line words must be a positive power of two")
	}
	l := &DataLine{shift: uint(log2(lineWords * area.WordBytes))}
	for _, g := range groups {
		if g.sets <= 0 || g.sets&(g.sets-1) != 0 {
			panic("cheetah: set count must be a positive power of two")
		}
		if g.ways <= 0 || g.ways > 255 {
			panic("cheetah: max associativity must be in 1..255")
		}
		l.groups = append(l.groups, dgroup{
			ways:    g.ways,
			setMask: uint64(g.sets - 1),
			sets:    make([]uint64, g.sets*g.ways),
			hits:    make([]uint64, g.ways),
		})
	}
	l.reset()
	return l
}

// reset empties every stack and zeroes the counters, keeping the
// storage.
func (l *DataLine) reset() {
	for i := range l.groups {
		g := &l.groups[i]
		for j := range g.sets {
			g.sets[j] = noBlock
		}
		clear(g.hits)
	}
	l.reads, l.writes, l.repeats = 0, 0, 0
	l.last, l.prev = noBlock, noBlock
}

// Access processes one data reference to the byte-addressable key: the
// batch loop over a batch of one.
func (l *DataLine) Access(key uint64, write bool) { l.AccessPacked([]uint64{PackRef(key, write)}) }

// AccessPacked processes a batch of data references, each packed as
// key<<1|write (see PackRef): the sweep engine's hot path. The memos
// and the counters live in locals for the batch and are credited once.
func (l *DataLine) AccessPacked(batch []uint64) {
	last, prev := l.last, l.prev
	groups := l.groups
	var writes, repeats uint64
	for _, kv := range batch {
		write := kv & 1
		writes += write
		block := kv >> 1 >> l.shift
		switch {
		case block == last:
			repeats += write ^ 1
		case write == 0:
			for i := range groups {
				groups[i].load(block)
			}
			last = block
		case block != prev:
			for i := range groups {
				if groups[i].store(block, last) {
					last = noBlock
				}
			}
		}
		prev = block
	}
	l.last, l.prev = last, prev
	l.repeats += repeats
	l.writes += writes
	l.reads += uint64(len(batch)) - writes
}

// readMisses returns group gi's exact load miss count at associativity
// assoc (1 <= assoc <= the group's ways).
func (l *DataLine) readMisses(gi, assoc int) uint64 {
	g := &l.groups[gi]
	if assoc < 1 || assoc > g.ways {
		panic("cheetah: associativity out of tracked range")
	}
	hits := l.repeats
	for _, h := range g.hits[:assoc] {
		hits += h
	}
	return l.reads - hits
}

// Reads returns the number of load references processed.
func (l *DataLine) Reads() uint64 { return l.reads }

// Writes returns the number of store references processed.
func (l *DataLine) Writes() uint64 { return l.writes }

// PackRef packs a cache key and write flag for AccessPacked. Cache
// keys are at most 45 bits (see vm.CacheKey), so the shift is safe.
func PackRef(key uint64, write bool) uint64 {
	kv := key << 1
	if write {
		kv |= 1
	}
	return kv
}

// AllAssocData computes, in one pass over a load/store stream, exact
// read miss counts for write-through, no-write-allocate, true-LRU
// caches with a fixed set count and line size and every associativity
// 1..maxAssoc: a DataLine with a single group, as AllAssoc is for the
// I stream.
type AllAssocData struct{ DataLine }

// NewAllAssocData builds a D-stream simulator for the given set count
// (a power of two), line size in words, and maximum associativity of
// interest (at most 255, the relabeling bookkeeping's width).
func NewAllAssocData(sets, lineWords, maxAssoc int) *AllAssocData {
	return &AllAssocData{DataLine: *newDataLine([]groupSpec{{sets: sets, lineWords: lineWords, ways: maxAssoc}})}
}

// ReadMisses returns the exact load miss count for associativity assoc
// (1 <= assoc <= maxAssoc) under the write-through, no-write-allocate
// policy.
func (d *AllAssocData) ReadMisses(assoc int) uint64 { return d.readMisses(0, assoc) }

// DataSweep prices an arbitrary set of cache configurations for the
// no-write-allocate data stream, as Sweep does for the I stream:
// configurations sharing a (set count, line size) pair share one stack
// group sized to the widest associativity any of them prices
// (groupWays), and the groups of one line size run as one DataLine. The
// Table 5 design space of 120 configurations needs 48 groups in 6
// DataLines instead of 120 direct simulators. DataSweep.AccessPacked,
// the sweep engine and the repository benchmark's ledger all run
// DataLine.AccessPacked.
type DataSweep struct {
	lines  []*DataLine         // one per line size, ascending
	index  map[[2]int]dataSlot // key: {sets, lineWords}; lookup only
	groups int
}

// dataSlot locates one (set count, line size) D-stream group.
type dataSlot struct {
	line  *DataLine
	group int
}

// NewDataSweep builds a sweep covering every configuration. It panics
// on invalid configurations or effective associativities above 255.
func NewDataSweep(configs []area.CacheConfig) *DataSweep {
	specs := groupWays(configs)
	s := &DataSweep{index: make(map[[2]int]dataSlot), groups: len(specs)}
	for _, gs := range byLineSize(specs) {
		line := newDataLine(gs)
		for i, g := range gs {
			s.index[[2]int{g.sets, g.lineWords}] = dataSlot{line: line, group: i}
		}
		s.lines = append(s.lines, line)
	}
	return s
}

// AccessPacked processes a batch of packed references (see PackRef)
// for every line size, one DataLine at a time so each loop stays tight
// over the shared batch.
func (s *DataSweep) AccessPacked(batch []uint64) {
	for _, l := range s.lines {
		l.AccessPacked(batch)
	}
}

// Reset empties every line size's stacks and zeroes the counters,
// keeping the storage for the next stream.
func (s *DataSweep) Reset() {
	for _, l := range s.lines {
		l.reset()
	}
}

// Reads returns the number of load references processed.
func (s *DataSweep) Reads() uint64 {
	if len(s.lines) == 0 {
		return 0
	}
	return s.lines[0].reads
}

// ReadMisses returns the exact load miss count for one of the swept
// configurations. It panics if the configuration was not covered by
// NewDataSweep.
func (s *DataSweep) ReadMisses(c area.CacheConfig) uint64 {
	slot, ok := s.index[[2]int{c.Sets(), c.LineWords}]
	if !ok {
		unswept(c)
	}
	return slot.line.readMisses(slot.group, effectiveAssoc(c))
}

// Simulators reports how many (set count, line size) stack groups the
// sweep runs.
func (s *DataSweep) Simulators() int { return s.groups }

// Lines hands out the per-line-size units for callers that parallelize
// across them (each DataLine is independent and deterministic, so
// concurrent units give bit-identical results as long as every unit
// sees the full stream in order).
func (s *DataSweep) Lines() []*DataLine { return s.lines }
