// Package cheetah implements single-pass, multi-configuration cache
// simulation using LRU stack distances, after the Cheetah simulator of
// Sugumar (cited in the paper's methodology). One pass over a trace
// yields exact LRU miss counts for every associativity from 1 to a
// configured maximum at a fixed set count and line size -- the property
// that makes design-space sweeps affordable.
//
// The inclusion property of LRU makes this exact: with the set count
// fixed, an access that hits way-depth d in the per-set LRU stack hits
// in every cache of associativity >= d and misses in all smaller ones.
//
// A second inclusion runs across set counts. Under bit-selection
// indexing the set a block maps to at 2S sets holds a subset of the
// blocks of its set at S sets, so a block's LRU depth never rises as
// the set count grows. A LineSweep exploits it: it runs every set
// count of one line size in one walk, smallest first, and stops at the
// first depth-1 hit, which is a depth-1 hit that changes no stack at
// every larger set count.
package cheetah

import (
	"fmt"

	"onchip/internal/area"
)

// noBlock pads the flat stacks of empty ways. Blocks are keys shifted
// right by at least log2(area.WordBytes) bits, so no block is all ones.
const noBlock = ^uint64(0)

// group is one (set count, line size) LRU stack simulator inside a
// LineSweep. Each set's stack is exactly ways entries deep, most recent
// first, padded with noBlock where the set holds fewer blocks; all sets
// share one flat array. A block deeper than ways misses at every
// associativity the group prices, so its order is irrelevant and it
// drops off the bottom.
type group struct {
	ways    int
	setMask uint64
	stacks  []uint64 // set s is stacks[s*ways : (s+1)*ways]
	// hits[d] counts accesses that hit at stack depth d+1. hits[0]
	// counts only the walks that stopped at this group; see
	// LineSweep.misses.
	hits []uint64
}

// access runs a block that is not at the front of its set's stack
// through that stack, crediting the hit depth.
func (g *group) access(stack []uint64, block uint64) {
	for i := 1; i < len(stack); i++ {
		if stack[i] == block {
			g.hits[i]++
			// Promote to the front. Depth 2 is a single displaced
			// element -- swap it without the copy machinery; deeper
			// hits shift a real window.
			if i == 1 {
				stack[1] = stack[0]
			} else {
				copy(stack[1:i+1], stack[:i])
			}
			stack[0] = block
			return
		}
	}
	// Miss at every tracked associativity: push, dropping the bottom.
	copy(stack[1:], stack[:len(stack)-1])
	stack[0] = block
}

// LineSweep is the I-stream sweep unit: every set-count group of one
// line size, sharing the block shift and the repeat memo. Each reference
// walks the groups smallest set count first and stops at the first
// depth-1 hit: by the cross-set-count inclusion (package comment) the
// block then fronts its set at every larger set count too, so the
// skipped groups would have counted a depth-1 hit and changed nothing.
// Their depth-1 hits are therefore the walks that stopped at or before
// them.
type LineSweep struct {
	shift    uint    // log2 of the line size in bytes
	groups   []group // ascending set count
	accesses uint64
	// last is the block of the previous access, which every group then
	// holds at the front of its set: a repeat is a walk that stops at
	// the first group, credited without the scan. Sequential code runs
	// through cache lines, making this the hottest case. Initialized to
	// noBlock.
	last uint64
}

// newLineSweep builds the unit for one line size over its groups, in
// ascending set count. Set counts must be positive powers of two (the
// nesting of bit-selection sets), ways positive.
func newLineSweep(groups []groupSpec) *LineSweep {
	lineWords := groups[0].lineWords
	if lineWords <= 0 || lineWords&(lineWords-1) != 0 {
		panic("cheetah: line words must be a positive power of two")
	}
	l := &LineSweep{shift: uint(log2(lineWords * area.WordBytes))}
	for _, g := range groups {
		if g.sets <= 0 || g.sets&(g.sets-1) != 0 {
			panic("cheetah: set count must be a positive power of two")
		}
		if g.ways <= 0 {
			panic("cheetah: max associativity must be positive")
		}
		l.groups = append(l.groups, group{
			ways:    g.ways,
			setMask: uint64(g.sets - 1),
			stacks:  make([]uint64, g.sets*g.ways),
			hits:    make([]uint64, g.ways),
		})
	}
	l.reset()
	return l
}

// reset empties every stack and zeroes the counters, keeping the
// storage.
func (l *LineSweep) reset() {
	for i := range l.groups {
		g := &l.groups[i]
		for j := range g.stacks {
			g.stacks[j] = noBlock
		}
		clear(g.hits)
	}
	l.accesses = 0
	l.last = noBlock
}

// Access processes one reference to the byte-addressable key: the
// batch loop over a batch of one.
func (l *LineSweep) Access(key uint64) { l.AccessKeys([]uint64{key}) }

// AccessKeys processes a batch of references: the sweep engine's hot
// path. The memo and the repeat count live in locals for the batch,
// and the access count is credited once.
func (l *LineSweep) AccessKeys(keys []uint64) {
	last := l.last
	groups := l.groups
	var repeats uint64
	for _, key := range keys {
		block := key >> l.shift
		if block == last {
			repeats++
			continue
		}
		last = block
		for i := range groups {
			g := &groups[i]
			base := int(block&g.setMask) * g.ways
			stack := g.stacks[base : base+g.ways]
			if stack[0] == block {
				g.hits[0]++
				break
			}
			g.access(stack, block)
		}
	}
	l.last = last
	l.groups[0].hits[0] += repeats
	l.accesses += uint64(len(keys))
}

// Accesses returns the number of references processed.
func (l *LineSweep) Accesses() uint64 { return l.accesses }

// misses returns group gi's exact LRU miss count at associativity
// assoc (1 <= assoc <= the group's ways).
func (l *LineSweep) misses(gi, assoc int) uint64 {
	g := &l.groups[gi]
	if assoc < 1 || assoc > g.ways {
		panic("cheetah: associativity out of tracked range")
	}
	var hits uint64
	for _, prev := range l.groups[:gi+1] {
		hits += prev.hits[0]
	}
	for _, h := range g.hits[1:assoc] {
		hits += h
	}
	return l.accesses - hits
}

// AllAssoc computes, in one pass, miss counts for set-associative LRU
// caches with a fixed set count and line size and every associativity
// 1..maxAssoc: a LineSweep with a single group.
type AllAssoc struct{ LineSweep }

// NewAllAssoc builds a simulator for the given set count (a power of
// two), line size in words, and maximum associativity of interest.
func NewAllAssoc(sets, lineWords, maxAssoc int) *AllAssoc {
	return &AllAssoc{LineSweep: *newLineSweep([]groupSpec{{sets: sets, lineWords: lineWords, ways: maxAssoc}})}
}

// Misses returns the exact LRU miss count for associativity assoc
// (1 <= assoc <= MaxAssoc).
func (a *AllAssoc) Misses(assoc int) uint64 { return a.misses(0, assoc) }

// MissRatio returns Misses(assoc)/Accesses().
func (a *AllAssoc) MissRatio(assoc int) float64 {
	n := a.Accesses()
	if n == 0 {
		return 0
	}
	return float64(a.Misses(assoc)) / float64(n)
}

// StackDist computes, in one pass, miss counts for fully-associative LRU
// caches of every size, via the classic Mattson stack algorithm with a
// bounded stack. Distances beyond the bound are lumped as misses for all
// tracked sizes.
type StackDist struct {
	inner *AllAssoc
}

// NewStackDist tracks fully-associative caches of up to maxLines lines
// with the given line size.
func NewStackDist(lineWords, maxLines int) *StackDist {
	return &StackDist{inner: NewAllAssoc(1, lineWords, maxLines)}
}

// Access processes one reference.
func (s *StackDist) Access(key uint64) { s.inner.Access(key) }

// Misses returns the miss count for a fully-associative cache of `lines`
// lines.
func (s *StackDist) Misses(lines int) uint64 { return s.inner.Misses(lines) }

// Accesses returns the number of references processed.
func (s *StackDist) Accesses() uint64 { return s.inner.Accesses() }

// groupSpec is one (set count, line size) simulator group and the
// widest associativity any of its configurations prices.
type groupSpec struct{ sets, lineWords, ways int }

// groupWays is the one way-sizing rule of both streams' sweeps: it
// groups configurations by (set count, line size), in first-seen order,
// and sizes each group to the widest associativity its configurations
// price. Recency below that depth is state no configuration reads. It
// panics on an invalid configuration.
func groupWays(configs []area.CacheConfig) []groupSpec {
	var specs []groupSpec
	at := make(map[[2]int]int)
	for _, c := range configs {
		if err := c.Validate(); err != nil {
			panic(err)
		}
		key := [2]int{c.Sets(), c.LineWords}
		i, ok := at[key]
		if !ok {
			i = len(specs)
			at[key] = i
			specs = append(specs, groupSpec{sets: key[0], lineWords: key[1]})
		}
		specs[i].ways = max(specs[i].ways, effectiveAssoc(c))
	}
	return specs
}

// effectiveAssoc is the associativity a configuration prices: its
// line count when fully associative.
func effectiveAssoc(c area.CacheConfig) int {
	if c.Assoc == area.FullyAssociative {
		return c.Lines()
	}
	return c.Assoc
}

// unswept panics for a configuration a sweep does not cover.
func unswept(c area.CacheConfig) {
	panic(fmt.Sprintf("cheetah: config %v was not swept", c))
}

func log2(n int) int {
	k := 0
	for n > 1 {
		n >>= 1
		k++
	}
	return k
}
