package search

import (
	"container/heap"
	"fmt"
	"math/rand/v2"

	"onchip/internal/area"
)

// Ranking is a budgeted search's answer: the best allocations, the size
// of the feasible set, and -- under the exhaustive strategy -- any row
// of the full ranking, read without sorting it.
type Ranking struct {
	// Top holds the best min(k, Feasible) allocations in ranking order.
	Top []Allocation
	// Feasible is the number of allocations within the budget that
	// pass any WithFilter predicate. The pruned strategy never sees the
	// feasible set, so under it Feasible is len(Top).
	Feasible int

	ps           pricedSpace
	rows         []row   // exhaustive only: every feasible triple, unordered
	tRank, cRank []int32 // canonical-order rank of each TLB and cache
}

// row is one feasible triple in the compact form At selects over: 32
// bytes, against an Allocation's 144.
type row struct {
	cpi, area float64
	t, ic, dc int32
}

// Rank prices the space against the budget and the performance model
// and returns the best k allocations in ranking order (lessAlloc), the
// feasible count, and access to any rank of the full ranking through
// At -- the answers EnumerateE gives, without building or sorting the
// feasible set. The exhaustive strategy keeps the top k in a bounded
// max-heap and one 32-byte record per feasible triple; WithPruning
// selects the pruned strategy, whose K must equal k.
//
// k must be positive. Cancellation via WithContext returns the partial
// ranking -- the best k of the triples priced so far -- with ctx's
// error.
func Rank(space Space, am area.Model, budget float64, pm PerfModel, k int, opts ...Option) (*Ranking, error) {
	if k < 1 {
		return nil, fmt.Errorf("search: Rank k %d is not positive", k)
	}
	o, err := newOptions(opts)
	if err != nil {
		return nil, err
	}
	if o.pruneTopK > 0 && o.pruneTopK != k {
		return nil, fmt.Errorf("search: WithPruning top-K %d differs from Rank's k %d", o.pruneTopK, k)
	}
	ps := price(space, am, pm)
	if o.pruneTopK > 0 {
		top, err := enumeratePruned(ps.tlbs, ps.caches, ps.base, budget, &o)
		return &Ranking{Top: top, Feasible: len(top)}, err
	}

	r := &Ranking{
		ps:   ps,
		rows: make([]row, 0, ps.within(budget)),
		tRank: canonicalRanks(len(ps.tlbs), func(i, j int) int {
			return cmpTLBConfig(ps.tlbs[i].cfg, ps.tlbs[j].cfg)
		}),
		cRank: canonicalRanks(len(ps.caches), func(i, j int) int {
			return cmpCacheConfig(ps.caches[i].cfg, ps.caches[j].cfg)
		}),
	}
	var top allocHeap
	err = ps.scan(budget, &o, func(t, ic, dc int, total, cpi float64) {
		r.rows = append(r.rows, row{cpi: cpi, area: total, t: int32(t), ic: int32(ic), dc: int32(dc)})
		if len(top) == k && cpi > top[0].CPI {
			return // strictly worse than the k-th best
		}
		a := ps.alloc(t, ic, dc, total, cpi)
		if len(top) < k {
			heap.Push(&top, a)
		} else if lessAlloc(a, top[0]) {
			top[0] = a
			heap.Fix(&top, 0)
		}
	})
	sortAllocations(top)
	r.Top, r.Feasible = top, len(r.rows)
	return r, err
}

// At returns the allocation at 0-based rank i of the full ranking: the
// element a sorted EnumerateE holds at index i. Ranks below len(Top)
// come from Top; deeper ones, which only the exhaustive strategy
// knows, are found by selection over the compact records in time
// linear in Feasible. At reorders those records, so concurrent calls
// on one Ranking must be serialized.
func (r *Ranking) At(i int) (Allocation, error) {
	if i < 0 || i >= r.Feasible {
		return Allocation{}, fmt.Errorf("search: rank %d outside the %d ranked allocations", i, r.Feasible)
	}
	if i < len(r.Top) {
		return r.Top[i], nil
	}
	w := r.selectRow(i)
	return r.ps.alloc(int(w.t), int(w.ic), int(w.dc), w.area, w.cpi), nil
}

// lessRow is lessAlloc on compact records: the configuration tie-break
// compares precomputed canonical ranks instead of the configurations.
func (r *Ranking) lessRow(a, b row) bool {
	if a.cpi != b.cpi {
		return a.cpi < b.cpi
	}
	if a.area != b.area {
		return a.area < b.area
	}
	if x, y := r.tRank[a.t], r.tRank[b.t]; x != y {
		return x < y
	}
	if x, y := r.cRank[a.ic], r.cRank[b.ic]; x != y {
		return x < y
	}
	return r.cRank[a.dc] < r.cRank[b.dc]
}

// selectRow moves the record of rank n to rows[n] and returns it:
// Hoare's FIND. The pivot is drawn at random so the expected time is
// linear whatever order the scan left the records in; the answer does
// not depend on the draws, since lessRow is a strict order over
// distinct triples.
func (r *Ranking) selectRow(n int) row {
	rows := r.rows
	lo, hi := 0, len(rows)-1
	for lo < hi {
		pivot := rows[lo+rand.IntN(hi-lo+1)]
		i, j := lo, hi
		for i <= j {
			for r.lessRow(rows[i], pivot) {
				i++
			}
			for r.lessRow(pivot, rows[j]) {
				j--
			}
			if i <= j {
				rows[i], rows[j] = rows[j], rows[i]
				i++
				j--
			}
		}
		// rows[lo..j] <= pivot <= rows[i..hi]; anything between equals
		// the pivot.
		if j < n {
			lo = i
		}
		if n < i {
			hi = j
		}
	}
	return rows[n]
}

// canonicalRanks returns each of n configurations' position in the
// canonical configuration order: the number that compare strictly
// below it, so duplicates share a rank.
func canonicalRanks(n int, cmp func(i, j int) int) []int32 {
	rank := make([]int32, n)
	for i := range rank {
		for j := 0; j < n; j++ {
			if cmp(j, i) < 0 {
				rank[i]++
			}
		}
	}
	return rank
}
