// Package search implements the paper's Section 5.4 cost/benefit
// analysis: price every TLB / I-cache / D-cache configuration in the
// Table 5 design space with the MQF area model, keep the combinations
// that fit the 250,000-rbe on-chip memory budget, attach the CPI
// contribution of each component from measured performance data, and
// rank by total CPI -- producing Tables 6 and 7.
//
// Rank is the one production entry point. It returns the best K
// allocations, the feasible count and any single row of the full
// ranking without materializing the feasible set: the tables print ten
// rows and one row far down the ranking, not 195,916 sorted
// allocations. Enumerate and EnumerateE materialize and sort the whole
// ranking; they are the oracle the tests and the benchmark's ledger
// check Rank and the pruned strategy against.
package search

import (
	"context"
	"errors"
	"fmt"

	"onchip/internal/area"
)

// Space is the configuration space to enumerate (the paper's Table 5).
type Space struct {
	TLBEntries    []int
	TLBAssocs     []int // set associativities; FullyAssociative entries listed in TLBFAEntries
	TLBFAEntries  []int // entry counts offered fully-associative
	CacheSizes    []int // bytes, applied to both I- and D-caches
	CacheAssocs   []int
	CacheLines    []int // words
	MaxCacheAssoc int   // 0 = no restriction; 2 reproduces Table 7
}

// Table5 returns the paper's design space: TLBs from 64 to 512 entries,
// 1- to 8-way set-associative plus fully-associative up to 64 entries;
// caches from 2 to 32 KB, 1- to 8-way, with 1- to 32-word lines.
func Table5() Space {
	return Space{
		TLBEntries:   []int{64, 128, 256, 512},
		TLBAssocs:    []int{1, 2, 4, 8},
		TLBFAEntries: []int{64},
		CacheSizes:   []int{2 << 10, 4 << 10, 8 << 10, 16 << 10, 32 << 10},
		CacheAssocs:  []int{1, 2, 4, 8},
		CacheLines:   []int{1, 2, 4, 8, 16, 32},
	}
}

// Big returns the production-scale design space of ROADMAP item 2: the
// Table 5 axes extended to finer and larger organizations -- TLBs from
// 16 to 2048 entries with up to 16-way and more fully-associative
// points, caches from 1 to 256 KB with lines up to 64 words and up to
// 16-way associativity. The composed TLB x I-cache x D-cache space
// exceeds a million triples (TestBigSpaceSize pins the floor), which is
// what the pruned search exists to price; exhaustive enumeration still
// works, just slowly.
func Big() Space {
	return Space{
		TLBEntries:   []int{16, 32, 64, 128, 256, 512, 1024, 2048},
		TLBAssocs:    []int{1, 2, 4, 8, 16},
		TLBFAEntries: []int{16, 32, 64, 128},
		CacheSizes: []int{1 << 10, 2 << 10, 4 << 10, 8 << 10, 16 << 10,
			32 << 10, 64 << 10, 128 << 10, 256 << 10},
		CacheAssocs: []int{1, 2, 4, 8, 16},
		CacheLines:  []int{1, 2, 4, 8, 16, 32, 64},
	}
}

// Triples returns the size of the composed TLB x I-cache x D-cache
// space.
func (s Space) Triples() int {
	nc := len(s.CacheConfigs())
	return len(s.TLBConfigs()) * nc * nc
}

// TLBConfigs expands the space's TLB configurations.
func (s Space) TLBConfigs() []area.TLBConfig {
	var out []area.TLBConfig
	for _, e := range s.TLBEntries {
		for _, a := range s.TLBAssocs {
			if a > e {
				continue
			}
			out = append(out, area.TLBConfig{Entries: e, Assoc: a})
		}
	}
	for _, e := range s.TLBFAEntries {
		out = append(out, area.TLBConfig{Entries: e, Assoc: area.FullyAssociative})
	}
	return out
}

// CacheConfigs expands the space's cache configurations, honoring
// MaxCacheAssoc.
func (s Space) CacheConfigs() []area.CacheConfig {
	var out []area.CacheConfig
	for _, size := range s.CacheSizes {
		for _, a := range s.CacheAssocs {
			if s.MaxCacheAssoc > 0 && a > s.MaxCacheAssoc {
				continue
			}
			for _, l := range s.CacheLines {
				c := area.CacheConfig{CapacityBytes: size, LineWords: l, Assoc: a}
				if c.Validate() != nil {
					continue
				}
				out = append(out, c)
			}
		}
	}
	return out
}

// PerfModel supplies the benefit side: CPI contributions of each
// structure under the workload of interest (the paper uses Mach
// measurements), plus the configuration-independent base (1.0 plus write
// buffer and other stalls).
type PerfModel interface {
	TLBCPI(cfg area.TLBConfig) float64
	ICacheCPI(cfg area.CacheConfig) float64
	DCacheCPI(cfg area.CacheConfig) float64
	BaseCPI() float64
}

// Allocation is one complete on-chip memory configuration with its cost
// and performance.
type Allocation struct {
	TLB     area.TLBConfig
	ICache  area.CacheConfig
	DCache  area.CacheConfig
	AreaRBE float64
	CPI     float64
}

func (a Allocation) String() string {
	return fmt.Sprintf("%v | I: %v | D: %v | %.0f rbes | CPI %.3f",
		a.TLB, a.ICache, a.DCache, a.AreaRBE, a.CPI)
}

// Option configures an enumeration.
type Option func(*options)

type options struct {
	ctx        context.Context
	pruneTopK  int
	pruneStats *PruneStats
	keep       func(tlb area.TLBConfig, icache, dcache area.CacheConfig) bool
}

// newOptions applies opts and refuses the combinations no strategy can
// honor.
func newOptions(opts []Option) (options, error) {
	var o options
	for _, opt := range opts {
		opt(&o)
	}
	if o.pruneTopK < 0 {
		return o, fmt.Errorf("search: WithPruning top-K %d is negative", o.pruneTopK)
	}
	if o.pruneTopK > 0 && o.keep != nil {
		// A frontier drops a configuration because K substitutes beat
		// it; a filter could reject every one of those substitutes.
		return o, errors.New("search: WithFilter cannot be combined with WithPruning")
	}
	return o, nil
}

// WithPruning switches the enumeration to the pruned strategy: each
// component axis is reduced to its K-level area/CPI Pareto frontier,
// and the composed space is explored with branch-and-bound under the
// monotone area cost and optimistic CPI lower bounds. Only the topK
// best allocations are returned, but they are byte-identical to
// Top(exhaustive ranking, topK) at equal inputs -- the frontier
// reduction only drops a component configuration when at least topK
// provably better substitutes exist for every composition it appears
// in, and a bound only cuts a subtree when its best possible CPI is
// strictly worse than the current K-th best. topK must be positive,
// and under Rank it must equal Rank's k.
func WithPruning(topK int) Option {
	return func(o *options) { o.pruneTopK = topK }
}

// WithPruneStats records the pruned strategy's accounting -- frontier
// sizes and per-cut prune counts -- into st when the enumeration
// completes. Exhaustive runs leave st untouched.
func WithPruneStats(st *PruneStats) Option {
	return func(o *options) { o.pruneStats = st }
}

// WithContext makes the enumeration cancellable: the loop polls ctx
// between outer (TLB, I-cache) pairs -- between TLBs under pruning --
// and, once cancelled, stops pricing and returns the partial ranking
// together with ctx's error.
func WithContext(ctx context.Context) Option {
	return func(o *options) { o.ctx = ctx }
}

// WithFilter adds a feasibility predicate to the area budget: a triple
// within the budget is feasible only when keep accepts it. It imposes
// the access-time (cycle-time) constraint of the paper's proposed
// extension, or any other designer rule, inside the pricing loop. The
// pruned strategy refuses it: its frontier argument assumes every
// dominating substitute is feasible.
func WithFilter(keep func(tlb area.TLBConfig, icache, dcache area.CacheConfig) bool) Option {
	return func(o *options) { o.keep = keep }
}

// pricedTLB and pricedCache carry a configuration with its
// once-computed area and CPI contributions through the enumeration.
type pricedTLB struct {
	cfg       area.TLBConfig
	area, cpi float64
}

type pricedCache struct {
	cfg  area.CacheConfig
	area float64
	icpi float64
	dcpi float64
}

// pricedSpace is a space with every configuration priced once: the
// input of both strategies.
type pricedSpace struct {
	tlbs   []pricedTLB
	caches []pricedCache
	base   float64
}

func price(space Space, am area.Model, pm PerfModel) pricedSpace {
	var ps pricedSpace
	for _, t := range space.TLBConfigs() {
		ps.tlbs = append(ps.tlbs, pricedTLB{t, am.TLBArea(t), pm.TLBCPI(t)})
	}
	for _, c := range space.CacheConfigs() {
		ps.caches = append(ps.caches, pricedCache{c, am.CacheArea(c), pm.ICacheCPI(c), pm.DCacheCPI(c)})
	}
	ps.base = pm.BaseCPI()
	return ps
}

// within counts the triples within budget, ignoring any filter: the
// exact feasible count when there is none, and an upper bound that
// sizes the exhaustive consumers' slices once.
func (ps *pricedSpace) within(budget float64) int {
	n := 0
	// Without a context the scan cannot fail.
	_ = ps.scan(budget, &options{}, func(int, int, int, float64, float64) { n++ })
	return n
}

// scan is the exhaustive strategy's pricing loop. It calls visit for
// every feasible triple -- within budget and accepted by any filter --
// looping over TLBs, then I-caches, then D-caches, each in construction
// order, and passes the component indexes into ps with the triple's
// total area and CPI. The float expressions are part of the contract:
// a different addition order changes last bits, and with them ranks.
// scan polls the context between (TLB, I-cache) pairs; once cancelled
// it stops and returns ctx's error.
func (ps *pricedSpace) scan(budget float64, o *options, visit func(t, ic, dc int, total, cpi float64)) error {
	var done <-chan struct{}
	if o.ctx != nil {
		done = o.ctx.Done()
	}
	for ti, t := range ps.tlbs {
		for ici, ic := range ps.caches {
			if done != nil {
				select {
				case <-done:
					return o.ctx.Err()
				default:
				}
			}
			at := t.area + ic.area
			if at <= budget {
				for dci, dc := range ps.caches {
					total := at + dc.area
					if total > budget || o.keep != nil && !o.keep(t.cfg, ic.cfg, dc.cfg) {
						continue
					}
					visit(ti, ici, dci, total, ps.base+t.cpi+ic.icpi+dc.dcpi)
				}
			}
		}
	}
	return nil
}

// Enumerate prices every combination in the space, filters to the area
// budget, computes total CPI with the performance model, and returns
// every feasible allocation in ranking order (ascending CPI, then
// ascending area, then a deterministic configuration tie-break; see
// lessAlloc). It is the oracle: production code calls Rank, which
// answers the same questions without building this slice.
//
// Enumerate cannot fail without WithContext or an invalid option;
// callers using those should call EnumerateE for the error.
func Enumerate(space Space, am area.Model, budget float64, pm PerfModel, opts ...Option) []Allocation {
	out, _ := EnumerateE(space, am, budget, pm, opts...)
	return out
}

// EnumerateE is Enumerate with an error return for the fallible paths:
// cancellation via WithContext (the partial, sorted ranking is returned
// alongside ctx's error), a negative WithPruning top-K, and WithFilter
// combined with WithPruning.
func EnumerateE(space Space, am area.Model, budget float64, pm PerfModel, opts ...Option) ([]Allocation, error) {
	o, err := newOptions(opts)
	if err != nil {
		return nil, err
	}
	ps := price(space, am, pm)
	if o.pruneTopK > 0 {
		return enumeratePruned(ps.tlbs, ps.caches, ps.base, budget, &o)
	}
	out := make([]Allocation, 0, ps.within(budget))
	err = ps.scan(budget, &o, func(t, ic, dc int, total, cpi float64) {
		out = append(out, ps.alloc(t, ic, dc, total, cpi))
	})
	sortAllocations(out)
	return out, err
}

func (ps *pricedSpace) alloc(t, ic, dc int, total, cpi float64) Allocation {
	return Allocation{
		TLB:     ps.tlbs[t].cfg,
		ICache:  ps.caches[ic].cfg,
		DCache:  ps.caches[dc].cfg,
		AreaRBE: total,
		CPI:     cpi,
	}
}

// Top returns the first n allocations (or fewer).
func Top(allocs []Allocation, n int) []Allocation {
	if len(allocs) < n {
		n = len(allocs)
	}
	return allocs[:n]
}
