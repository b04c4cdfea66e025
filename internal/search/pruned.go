package search

import (
	"container/heap"
	"time"
)

// Pruned search: price million-point design spaces without touching
// most of them. Three mechanisms compose, each provably unable to
// change the top-K ranking (DESIGN.md section 14 carries the full
// argument):
//
//  1. K-level Pareto frontier reduction per component axis. A TLB
//     configuration t2 is dropped when at least K distinct
//     configurations t1 "beat" it -- area(t1) <= area(t2) and
//     cpi(t1) <= cpi(t2), strictly better in one, or earlier in the
//     canonical configuration order on a full tie. Every allocation
//     containing t2 is then outranked by >= K feasible allocations
//     (substitute each t1; total area only shrinks, so feasibility is
//     preserved, and the composed allocation strictly precedes t2's in
//     the ranking order), so t2 can never appear in a top-K result.
//     The same reduction applies to the I-cache axis on (area, icpi)
//     and the D-cache axis on (area, dcpi). Note the classical 1-level
//     frontier would NOT be sound for K > 1: a dominated configuration
//     is only guaranteed to be outranked once per dominator.
//
//  2. Branch-and-bound on the monotone area cost. Axes are sorted by
//     ascending area, so once a TLB (or TLB + I-cache prefix) cannot
//     fit the budget even with the cheapest remaining partners, every
//     later subtree is infeasible too and the loop breaks.
//
//  3. Branch-and-bound on optimistic CPI lower bounds. The suffix
//     minima of each axis's CPI contributions give an admissible
//     (never pessimistic) bound on the best total CPI any extension of
//     a partial composition can reach; once the top-K candidate list
//     is full, a subtree whose bound is STRICTLY worse than the
//     current K-th best is skipped. Ties are never cut -- an equal-CPI
//     allocation could still win the deterministic area/configuration
//     tie-break.
//
// The result is byte-identical to Top(exhaustive, K): TestPrunedMatches
// Exhaustive* and the randomized property test pin this, and `make
// crossval-search` gates it on the paper's grid with measured models.

// PruneStats is the pruned strategy's accounting, reported through
// WithPruneStats. Composed = Priced + PrunedFrontier + PrunedBudget +
// PrunedBound when the search runs to completion.
type PruneStats struct {
	// Composed is the full TLB x I-cache x D-cache space size.
	Composed int
	// Priced is the number of triples actually composed and tested.
	Priced int
	// PrunedFrontier is the number of triples removed up front by the
	// per-axis Pareto-K frontier reduction.
	PrunedFrontier int
	// PrunedBudget is the number of triples skipped by the monotone
	// area bound (subtrees that cannot fit the budget).
	PrunedBudget int
	// PrunedBound is the number of triples skipped by the optimistic
	// CPI lower bound (subtrees that cannot beat the K-th best).
	PrunedBound int
	// FrontierTLB/IC/DC are the axis sizes after frontier reduction
	// (out of TLBs/Caches/Caches configurations respectively).
	FrontierTLB, FrontierIC, FrontierDC int
	// TLBs and Caches are the pre-reduction axis sizes.
	TLBs, Caches int
}

// Pruned returns the total number of triples dismissed without pricing.
func (s PruneStats) Pruned() int { return s.PrunedFrontier + s.PrunedBudget + s.PrunedBound }

// axisPoint is one component configuration projected onto the (area,
// cpi) plane the frontier reduction and the bounds operate in. idx
// indexes the original priced slice.
type axisPoint struct {
	area, cpi float64
	idx       int
}

// paretoK returns the points NOT beaten by at least K others, in the
// input order. tie breaks full (area, cpi) ties deterministically and
// must match the allocation ranking order's configuration tie-break --
// it is what guarantees that a dominating substitute's allocation
// strictly precedes the dominated one's even at equal CPI and area.
func paretoK(pts []axisPoint, k int, tie func(i, j int) int) []axisPoint {
	out := make([]axisPoint, 0, len(pts))
	for i, p := range pts {
		beaten := 0
		for j, q := range pts {
			if j == i || q.area > p.area || q.cpi > p.cpi {
				continue
			}
			if q.area < p.area || q.cpi < p.cpi || tie(q.idx, p.idx) < 0 {
				if beaten++; beaten >= k {
					break
				}
			}
		}
		if beaten < k {
			out = append(out, p)
		}
	}
	return out
}

// allocHeap is a max-heap in the canonical ranking order: the root is
// the WORST of the current top-K candidates, the one a better find
// evicts.
type allocHeap []Allocation

func (h allocHeap) Len() int           { return len(h) }
func (h allocHeap) Less(i, j int) bool { return lessAlloc(h[j], h[i]) }
func (h allocHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *allocHeap) Push(x any)        { *h = append(*h, x.(Allocation)) }
func (h *allocHeap) Pop() any          { old := *h; n := len(old); x := old[n-1]; *h = old[:n-1]; return x }

// enumeratePruned is EnumerateE's pruned strategy. tlbs and caches are
// the priced component lists in canonical construction order.
func enumeratePruned(tlbs []pricedTLB, caches []pricedCache, base, budget float64, o *options) ([]Allocation, error) {
	k := o.pruneTopK
	st := PruneStats{
		Composed: len(tlbs) * len(caches) * len(caches),
		TLBs:     len(tlbs),
		Caches:   len(caches),
	}

	// K-level Pareto frontiers per axis, with the canonical
	// configuration comparison as the tie-break.
	tPts := make([]axisPoint, len(tlbs))
	for i, t := range tlbs {
		tPts[i] = axisPoint{area: t.area, cpi: t.cpi, idx: i}
	}
	iPts := make([]axisPoint, len(caches))
	dPts := make([]axisPoint, len(caches))
	for i, c := range caches {
		iPts[i] = axisPoint{area: c.area, cpi: c.icpi, idx: i}
		dPts[i] = axisPoint{area: c.area, cpi: c.dcpi, idx: i}
	}
	tieTLB := func(i, j int) int { return cmpTLBConfig(tlbs[i].cfg, tlbs[j].cfg) }
	tieCache := func(i, j int) int { return cmpCacheConfig(caches[i].cfg, caches[j].cfg) }
	tf := paretoK(tPts, k, tieTLB)
	icf := paretoK(iPts, k, tieCache)
	dcf := paretoK(dPts, k, tieCache)
	st.FrontierTLB, st.FrontierIC, st.FrontierDC = len(tf), len(icf), len(dcf)
	st.PrunedFrontier = st.Composed - len(tf)*len(icf)*len(dcf)

	// The TLB and I-cache axes are walked outer-to-inner and sorted by
	// ascending area so the budget bound can BREAK (everything later is
	// at least as large); the D-cache axis is innermost and sorted by
	// ascending CPI contribution so the optimistic bound can break
	// (everything later is at least as slow). Area ties sort by the
	// configuration order to stay deterministic.
	sortAxis := func(pts []axisPoint, byCPI bool, tie func(i, j int) int) {
		sortStableBy(pts, func(a, b axisPoint) bool {
			x, y := a.area, b.area
			if byCPI {
				x, y = a.cpi, b.cpi
			}
			if x != y {
				return x < y
			}
			return tie(a.idx, b.idx) < 0
		})
	}
	sortAxis(tf, false, tieTLB)
	sortAxis(icf, false, tieCache)
	sortAxis(dcf, true, tieCache)

	// Optimistic per-axis floors for the bounds. The frontier slices
	// are non-empty whenever the axes are (a frontier never drops every
	// point: the first point in canonical order is unbeaten).
	if len(tf) == 0 || len(icf) == 0 || len(dcf) == 0 {
		if o.pruneStats != nil {
			*o.pruneStats = st
		}
		return nil, nil
	}
	minICcpi, minICarea := icf[0].cpi, icf[0].area
	for _, p := range icf[1:] {
		if p.cpi < minICcpi {
			minICcpi = p.cpi
		}
	}
	minDCcpi := dcf[0].cpi
	minDCarea := dcf[0].area
	for _, p := range dcf[1:] {
		if p.area < minDCarea {
			minDCarea = p.area
		}
	}

	every := o.progressEvery
	if every <= 0 {
		every = 1 << 16
	}
	start := time.Now()
	var top allocHeap
	nextReport := every
	report := func(done bool) {
		if o.progress == nil {
			return
		}
		p := Progress{
			Priced:  st.Priced,
			Pruned:  st.Pruned(),
			Total:   st.Composed,
			Kept:    len(top),
			Elapsed: time.Since(start),
			Done:    done,
		}
		if covered := p.Covered(); !done && covered > 0 {
			p.ETA = time.Duration(float64(p.Elapsed) * float64(p.Total-covered) / float64(covered))
		}
		o.progress(p)
	}

	var done <-chan struct{}
	if o.ctx != nil {
		done = o.ctx.Done()
	}
	finish := func() []Allocation {
		out := []Allocation(top)
		sortAllocations(out)
		if o.pruneStats != nil {
			*o.pruneStats = st
		}
		return out
	}

	for ti, t := range tf {
		if done != nil {
			select {
			case <-done:
				return finish(), o.ctx.Err()
			default:
			}
		}
		if t.area+minICarea+minDCarea > budget {
			// Monotone area: every remaining TLB is at least as large.
			st.PrunedBudget += (len(tf) - ti) * len(icf) * len(dcf)
			break
		}
		tlb := tlbs[t.idx]
		if len(top) == k && base+t.cpi+minICcpi+minDCcpi > top[0].CPI {
			st.PrunedBound += len(icf) * len(dcf)
			continue
		}
		for ici, ic := range icf {
			if t.area+ic.area+minDCarea > budget {
				st.PrunedBudget += (len(icf) - ici) * len(dcf)
				break
			}
			if len(top) == k && base+t.cpi+ic.cpi+minDCcpi > top[0].CPI {
				st.PrunedBound += len(dcf)
				continue
			}
			icache := caches[ic.idx]
			at := t.area + ic.area
			partial := base + t.cpi + ic.cpi
			for di, dc := range dcf {
				if len(top) == k && partial+dc.cpi > top[0].CPI {
					// D-caches are CPI-sorted: everything later is at
					// least as slow. Ties are not cut -- an equal-CPI
					// allocation can still win the tie-break.
					st.PrunedBound += len(dcf) - di
					break
				}
				st.Priced++
				total := at + dc.area
				if total > budget {
					continue
				}
				a := Allocation{
					TLB:     tlb.cfg,
					ICache:  icache.cfg,
					DCache:  caches[dc.idx].cfg,
					AreaRBE: total,
					CPI:     partial + dc.cpi,
				}
				if len(top) < k {
					heap.Push(&top, a)
				} else if lessAlloc(a, top[0]) {
					top[0] = a
					heap.Fix(&top, 0)
				}
			}
			if covered := st.Priced + st.Pruned(); covered >= nextReport {
				report(false)
				nextReport = covered + every
			}
		}
	}
	report(true)
	return finish(), nil
}

// sortStableBy is sort.SliceStable over a typed slice; it keeps the
// axis sorts readable without allocating comparator closures per call
// site.
func sortStableBy(pts []axisPoint, less func(a, b axisPoint) bool) {
	// insertion sort: the axes are a few hundred points at most, and a
	// stable in-place sort avoids reflection overhead on the hot setup
	// path of every pruned search.
	for i := 1; i < len(pts); i++ {
		for j := i; j > 0 && less(pts[j], pts[j-1]); j-- {
			pts[j], pts[j-1] = pts[j-1], pts[j]
		}
	}
}
