package search

import (
	"cmp"
	"slices"

	"onchip/internal/area"
)

// Ranking order. Both strategies -- exhaustive enumeration and the
// pruned search -- sort their results with the same STRICT total order,
// which is what makes their top-K rankings byte-identical: two distinct
// allocations never compare equal, so the K best are uniquely
// determined no matter in which order the strategies discover them.
//
// The order is the paper's (ascending CPI, then ascending area)
// extended with a deterministic configuration tie-break. CPI and area
// ties between distinct allocations are real -- swapping the I- and
// D-cache organizations of a triple preserves total area and can
// preserve total CPI -- and an unstable sort without the tie-break
// would rank them by discovery order, which differs between strategies.

// lessAlloc is the canonical ranking order.
func lessAlloc(a, b Allocation) bool { return cmpAlloc(a, b) < 0 }

// cmpAlloc is lessAlloc as a three-way comparison.
func cmpAlloc(a, b Allocation) int {
	if c := cmp.Compare(a.CPI, b.CPI); c != 0 {
		return c
	}
	if c := cmp.Compare(a.AreaRBE, b.AreaRBE); c != 0 {
		return c
	}
	if c := cmpTLBConfig(a.TLB, b.TLB); c != 0 {
		return c
	}
	if c := cmpCacheConfig(a.ICache, b.ICache); c != 0 {
		return c
	}
	return cmpCacheConfig(a.DCache, b.DCache)
}

// sortAllocations sorts into the canonical ranking order. The order is
// strict over distinct allocations and duplicates are equal values, so
// an unstable sort yields the same slice a stable one would.
func sortAllocations(out []Allocation) {
	slices.SortFunc(out, cmpAlloc)
}

// cmpTLBConfig orders TLB configurations by every field that
// distinguishes them, so any two distinct configurations compare
// unequal. FullyAssociative (0) deliberately sorts before any set
// associativity; the order only needs to be deterministic, not
// meaningful.
func cmpTLBConfig(a, b area.TLBConfig) int {
	if c := cmpInt(a.Entries, b.Entries); c != 0 {
		return c
	}
	if c := cmpInt(a.Assoc, b.Assoc); c != 0 {
		return c
	}
	if c := cmpInt(a.VABits, b.VABits); c != 0 {
		return c
	}
	if c := cmpInt(a.PageBits, b.PageBits); c != 0 {
		return c
	}
	if c := cmpInt(a.ASIDBits, b.ASIDBits); c != 0 {
		return c
	}
	return cmpInt(a.DataBits, b.DataBits)
}

// cmpCacheConfig is cmpTLBConfig for cache configurations.
func cmpCacheConfig(a, b area.CacheConfig) int {
	if c := cmpInt(a.CapacityBytes, b.CapacityBytes); c != 0 {
		return c
	}
	if c := cmpInt(a.LineWords, b.LineWords); c != 0 {
		return c
	}
	if c := cmpInt(a.Assoc, b.Assoc); c != 0 {
		return c
	}
	if c := cmpInt(a.AddressBits, b.AddressBits); c != 0 {
		return c
	}
	return cmpInt(a.StatusBits, b.StatusBits)
}

func cmpInt(a, b int) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}
