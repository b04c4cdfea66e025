// Package search implements the paper's Section 5.4 cost/benefit
// analysis: enumerate every TLB / I-cache / D-cache configuration in the
// Table 5 design space, price each with the MQF area model, keep the
// combinations that fit the 250,000-rbe on-chip memory budget, attach
// the CPI contribution of each component from measured performance data,
// and rank by total CPI -- producing Tables 6 and 7.
package search

import (
	"context"
	"fmt"
	"time"

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
// space: the denominator of every progress report and the "configs"
// in configs/sec throughput numbers.
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

// Progress is a snapshot of a running enumeration, delivered to the
// callback installed with WithProgress.
type Progress struct {
	// Priced is the number of TLB x I-cache x D-cache combinations
	// actually considered so far; Total is the size of the whole
	// composed space (pre-pruning, so the same space reports the same
	// Total under either strategy).
	Priced, Total int
	// Pruned is the number of combinations dismissed without pricing:
	// zero under exhaustive enumeration; under the pruned strategy, the
	// triples removed by the Pareto frontier reduction plus the
	// subtrees skipped by the branch-and-bound cuts. Priced+Pruned
	// converges on Total, so progress views stay live even when almost
	// nothing is individually priced.
	Pruned int
	// Kept is the number of combinations within the area budget so far
	// (under pruning, the current top-K candidate count).
	Kept int
	// Elapsed is the wall time since enumeration began; ETA the
	// estimated remaining time, extrapolated from the coverage rate
	// (priced plus pruned, not priced alone).
	Elapsed, ETA time.Duration
	// Done marks the final report (Priced+Pruned == Total).
	Done bool
}

// Covered is the portion of the composed space accounted for so far,
// priced or pruned. It is the numerator of every rate and percentage
// Progress reports; using Priced alone would show a pruned search
// stalled at a fraction of a percent while it is in fact nearly done.
func (p Progress) Covered() int { return p.Priced + p.Pruned }

// MarshalJSON emits the snapshot with durations in seconds, the shape
// served by the observability plane's /sweep endpoint.
func (p Progress) MarshalJSON() ([]byte, error) {
	return []byte(fmt.Sprintf(
		`{"priced":%d,"pruned":%d,"total":%d,"kept":%d,"elapsed_seconds":%.3f,"eta_seconds":%.3f,"done":%v}`,
		p.Priced, p.Pruned, p.Total, p.Kept, p.Elapsed.Seconds(), p.ETA.Seconds(), p.Done)), nil
}

func (p Progress) String() string {
	if p.Pruned > 0 {
		if p.Done {
			return fmt.Sprintf("priced %d + pruned %d of %d configs, %d kept, %.2fs",
				p.Priced, p.Pruned, p.Total, p.Kept, p.Elapsed.Seconds())
		}
		return fmt.Sprintf("priced %d + pruned %d of %d configs (%.0f%%), %d kept, ETA %.1fs",
			p.Priced, p.Pruned, p.Total, 100*float64(p.Covered())/float64(p.Total), p.Kept, p.ETA.Seconds())
	}
	if p.Done {
		return fmt.Sprintf("priced %d/%d configs, %d within budget, %.2fs",
			p.Priced, p.Total, p.Kept, p.Elapsed.Seconds())
	}
	return fmt.Sprintf("priced %d/%d configs (%.0f%%), %d within budget, ETA %.1fs",
		p.Priced, p.Total, 100*float64(p.Priced)/float64(p.Total), p.Kept, p.ETA.Seconds())
}

// Option configures an enumeration.
type Option func(*options)

type options struct {
	progress      func(Progress)
	progressEvery int
	ctx           context.Context
	pruneTopK     int
	pruneStats    *PruneStats
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
// strictly worse than the current K-th best. topK must be positive.
func WithPruning(topK int) Option {
	return func(o *options) { o.pruneTopK = topK }
}

// WithPruneStats records the pruned strategy's accounting -- frontier
// sizes and per-cut prune counts -- into st when the enumeration
// completes. Exhaustive runs leave st untouched.
func WithPruneStats(st *PruneStats) Option {
	return func(o *options) { o.pruneStats = st }
}

// WithProgress installs a callback that receives sweep progress roughly
// every `every` combinations (0 selects a default granularity) and once
// more with Done set when enumeration completes.
func WithProgress(every int, f func(Progress)) Option {
	return func(o *options) {
		o.progress = f
		o.progressEvery = every
	}
}

// WithContext makes the enumeration cancellable: the loop polls ctx
// between outer (TLB, I-cache) pairs -- between TLBs under pruning --
// and, once cancelled, stops pricing and returns the partial ranking
// together with ctx's error.
func WithContext(ctx context.Context) Option {
	return func(o *options) { o.ctx = ctx }
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

// Enumerate prices every combination in the space, filters to the area
// budget, computes total CPI with the performance model, and returns the
// allocations in ranking order (ascending CPI, then ascending area, then
// a deterministic configuration tie-break; see lessAlloc). Component
// areas and CPIs are computed once per distinct configuration, so the
// pricing loop is cheap: over the 244,800-triple Table 5 space it takes
// about 0.15 s on a 2-vCPU Xeon VM, and sorting the 195,916 kept
// allocations takes most of the rest of EnumerateE's 0.7-0.9 s there
// (perfbench's search.table5_ms).
//
// Enumerate cannot fail without WithContext or a negative WithPruning;
// callers using those should call EnumerateE for the error.
func Enumerate(space Space, am area.Model, budget float64, pm PerfModel, opts ...Option) []Allocation {
	out, _ := EnumerateE(space, am, budget, pm, opts...)
	return out
}

// EnumerateE is Enumerate with an error return for the fallible paths:
// cancellation via WithContext (the partial, sorted ranking is returned
// alongside ctx's error) and a negative WithPruning top-K.
func EnumerateE(space Space, am area.Model, budget float64, pm PerfModel, opts ...Option) ([]Allocation, error) {
	var o options
	for _, opt := range opts {
		opt(&o)
	}
	var tlbs []pricedTLB
	for _, t := range space.TLBConfigs() {
		tlbs = append(tlbs, pricedTLB{t, am.TLBArea(t), pm.TLBCPI(t)})
	}
	var caches []pricedCache
	for _, c := range space.CacheConfigs() {
		caches = append(caches, pricedCache{c, am.CacheArea(c), pm.ICacheCPI(c), pm.DCacheCPI(c)})
	}

	base := pm.BaseCPI()

	if o.pruneTopK < 0 {
		return nil, fmt.Errorf("search: WithPruning top-K %d is negative", o.pruneTopK)
	}
	if o.pruneTopK > 0 {
		return enumeratePruned(tlbs, caches, base, budget, &o)
	}

	var out []Allocation

	// Progress accounting: a (TLB, I-cache) pair over budget prunes all
	// |caches| D-cache combinations at once; count them as priced so
	// Priced converges on Total.
	spaceSize := len(tlbs) * len(caches) * len(caches)
	every := o.progressEvery
	if every <= 0 {
		every = 1 << 16
	}
	priced, nextReport := 0, every
	start := time.Now()
	report := func(done bool) {
		if o.progress == nil {
			return
		}
		p := Progress{Priced: priced, Total: spaceSize, Kept: len(out), Elapsed: time.Since(start), Done: done}
		if !done && priced > 0 {
			p.ETA = time.Duration(float64(p.Elapsed) * float64(spaceSize-priced) / float64(priced))
		}
		o.progress(p)
	}

	var done <-chan struct{}
	if o.ctx != nil {
		done = o.ctx.Done()
	}
	for _, t := range tlbs {
		for _, ic := range caches {
			if done != nil {
				select {
				case <-done:
					// Cancelled: hand back the partial ranking with the
					// cause.
					sortAllocations(out)
					return out, o.ctx.Err()
				default:
				}
			}
			at := t.area + ic.area
			if at <= budget {
				for _, dc := range caches {
					total := at + dc.area
					if total <= budget {
						out = append(out, Allocation{
							TLB:     t.cfg,
							ICache:  ic.cfg,
							DCache:  dc.cfg,
							AreaRBE: total,
							CPI:     base + t.cpi + ic.icpi + dc.dcpi,
						})
					}
				}
			}
			priced += len(caches)
			if priced >= nextReport {
				report(false)
				nextReport = priced + every
			}
		}
	}
	report(true)
	sortAllocations(out)
	return out, nil
}

// EnumerateFiltered is Enumerate with an extra feasibility predicate --
// used to impose the access-time (cycle-time) constraint of the paper's
// proposed extension, or any other designer rule.
func EnumerateFiltered(space Space, am area.Model, budget float64, pm PerfModel,
	keep func(tlb area.TLBConfig, icache, dcache area.CacheConfig) bool, opts ...Option) []Allocation {
	all := Enumerate(space, am, budget, pm, opts...)
	out := all[:0]
	for _, a := range all {
		if keep(a.TLB, a.ICache, a.DCache) {
			out = append(out, a)
		}
	}
	return out
}

// Top returns the first n allocations (or fewer).
func Top(allocs []Allocation, n int) []Allocation {
	if len(allocs) < n {
		n = len(allocs)
	}
	return allocs[:n]
}
