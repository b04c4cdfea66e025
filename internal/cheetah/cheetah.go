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
package cheetah

import "onchip/internal/area"

// AllAssoc computes, in one pass, miss counts for set-associative LRU
// caches with a fixed set count and line size and every associativity
// 1..MaxAssoc.
type AllAssoc struct {
	maxAssoc   int
	offsetBits uint
	setMask    uint64
	// stacks[s] is set s's LRU stack, most recent first, truncated to
	// maxAssoc entries (deeper blocks miss at every tracked
	// associativity, so their order is irrelevant).
	stacks [][]uint64
	// hits[d] counts accesses that hit at stack depth d+1.
	hits     []uint64
	accesses uint64
	// last is the block of the previous access (always at the front of
	// its set's stack afterwards), memoized because reference streams
	// run through cache lines sequentially: a repeat is a depth-1 hit
	// that provably leaves the stack unchanged, so the scan and the
	// promote can be skipped. Initialized to an impossible block.
	last uint64
}

// NewAllAssoc builds a simulator for the given set count (a power of
// two), line size in words, and maximum associativity of interest.
func NewAllAssoc(sets, lineWords, maxAssoc int) *AllAssoc {
	if sets <= 0 || sets&(sets-1) != 0 {
		panic("cheetah: set count must be a positive power of two")
	}
	if lineWords <= 0 || lineWords&(lineWords-1) != 0 {
		panic("cheetah: line words must be a positive power of two")
	}
	if maxAssoc <= 0 {
		panic("cheetah: max associativity must be positive")
	}
	stacks := make([][]uint64, sets)
	for i := range stacks {
		stacks[i] = make([]uint64, 0, maxAssoc)
	}
	return &AllAssoc{
		maxAssoc:   maxAssoc,
		offsetBits: uint(log2(lineWords * area.WordBytes)),
		setMask:    uint64(sets - 1),
		stacks:     stacks,
		hits:       make([]uint64, maxAssoc),
		last:       ^uint64(0),
	}
}

// Access processes one reference to the byte-addressable key.
func (a *AllAssoc) Access(key uint64) {
	a.accesses++
	block := key >> a.offsetBits
	if block == a.last {
		a.hits[0]++
		return
	}
	a.last = block
	a.accessStack(int(block&a.setMask), block)
}

// AccessKeys processes a batch of references: the sweep engine's hot
// path, equal in effect to calling Access per key. The depth-1 memo
// and the repeat count live in locals for the batch, and the access
// count is credited once.
func (a *AllAssoc) AccessKeys(keys []uint64) {
	last := a.last
	var repeats uint64
	for _, key := range keys {
		block := key >> a.offsetBits
		if block == last {
			repeats++
			continue
		}
		last = block
		a.accessStack(int(block&a.setMask), block)
	}
	a.last = last
	a.hits[0] += repeats
	a.accesses += uint64(len(keys))
}

// accessStack scans and updates set's LRU stack for block, crediting
// the hit depth. The caller has already ruled out its depth-1 memo,
// but block can still sit at the front: the memo only covers the most
// recent access, which may have gone to another set.
func (a *AllAssoc) accessStack(set int, block uint64) {
	stack := a.stacks[set]
	for i, b := range stack {
		if b == block {
			a.hits[i]++
			// Promote to the front. Depth 1 needs nothing and depth 2 is
			// a single displaced element -- handle both without the copy
			// machinery; deeper hits shift a real window.
			if i == 1 {
				stack[1] = stack[0]
				stack[0] = block
			} else if i > 1 {
				copy(stack[1:i+1], stack[:i])
				stack[0] = block
			}
			return
		}
	}
	// Miss at every tracked associativity; push, truncating the stack.
	if len(stack) < a.maxAssoc {
		stack = append(stack, 0)
	}
	copy(stack[1:], stack[:len(stack)-1])
	stack[0] = block
	a.stacks[set] = stack
}

// Accesses returns the number of references processed.
func (a *AllAssoc) Accesses() uint64 { return a.accesses }

// Misses returns the exact LRU miss count for associativity assoc
// (1 <= assoc <= MaxAssoc).
func (a *AllAssoc) Misses(assoc int) uint64 {
	if assoc < 1 || assoc > a.maxAssoc {
		panic("cheetah: associativity out of tracked range")
	}
	var hits uint64
	for _, h := range a.hits[:assoc] {
		hits += h
	}
	return a.accesses - hits
}

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

func log2(n int) int {
	k := 0
	for n > 1 {
		n >>= 1
		k++
	}
	return k
}
