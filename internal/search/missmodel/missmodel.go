// Package missmodel fits analytical miss-rate curves to the measured
// sweep output and extends the measured performance model beyond the
// simulated grid, in the spirit of Yavits et al.'s convex
// cache-hierarchy optimization (PAPERS.md): within one associativity /
// line-size class, cache miss traffic follows a power law in capacity
// (miss CPI ~ a * size^-b), so a least-squares fit in log space over
// the Cheetah sweep's exact measurements prices configurations the
// sweep never simulated.
//
// Two uses:
//
//   - Extended is a search.PerfModel for production-scale spaces
//     (search.Big()): configurations on the measured grid keep their
//     exact stack-simulation values bit-for-bit; configurations outside
//     it are priced by the fitted class curve. Both search strategies
//     consult the same model, so pruned-vs-exhaustive byte-identity is
//     preserved off the grid too.
//
//   - Bound is the admissible optimistic variant: every prediction is
//     scaled by the class's minimum observed actual/fitted ratio, so on
//     the measured grid the bound NEVER exceeds the exact value
//     (TestBoundAdmissible pins this). A branch-and-bound search that
//     prices subtrees with Bound and only discards those whose
//     optimistic CPI cannot beat the incumbent therefore never prunes a
//     configuration that exact simulation would have ranked -- the
//     admissibility argument DESIGN.md section 14 spells out.
package missmodel

import (
	"fmt"
	"math"
	"sort"

	"onchip/internal/area"
	"onchip/internal/search"
)

// PowerLaw is one fitted curve: Eval(x) = A * x^-B.
type PowerLaw struct {
	A, B float64
	// N is the number of points the fit used.
	N int
}

// Eval evaluates the curve at x (> 0).
func (p PowerLaw) Eval(x float64) float64 { return p.A * math.Pow(x, -p.B) }

func (p PowerLaw) String() string { return fmt.Sprintf("%.4g*x^-%.3f (n=%d)", p.A, p.B, p.N) }

// Fit least-squares fits y = A * x^-B in log space. Non-positive
// samples are skipped (log undefined); with fewer than two usable
// distinct x values the fit degenerates to the flat mean of the usable
// ys (B = 0), and with no usable points at all to the zero curve.
func Fit(xs, ys []float64) PowerLaw {
	var sx, sy, sxx, sxy float64
	var n int
	minX, maxX := math.Inf(1), math.Inf(-1)
	for i := range xs {
		if xs[i] <= 0 || ys[i] <= 0 {
			continue
		}
		lx, ly := math.Log(xs[i]), math.Log(ys[i])
		sx += lx
		sy += ly
		sxx += lx * lx
		sxy += lx * ly
		n++
		minX, maxX = math.Min(minX, xs[i]), math.Max(maxX, xs[i])
	}
	if n == 0 {
		return PowerLaw{}
	}
	if n == 1 || minX == maxX {
		return PowerLaw{A: math.Exp(sy / float64(n)), B: 0, N: n}
	}
	den := float64(n)*sxx - sx*sx
	slope := (float64(n)*sxy - sx*sy) / den
	inter := (sy - slope*sx) / float64(n)
	return PowerLaw{A: math.Exp(inter), B: -slope, N: n}
}

// class groups cache measurements that share a miss-curve shape: one
// power law per (associativity, line size) pair, fit across capacities.
type class struct {
	assoc, line int
}

// fitted is one stream's (I or D) fitted family plus its admissibility
// slack: the minimum over the measured grid of actual/fitted, so
// prediction*slack never exceeds any measured value the fit saw.
type fitted struct {
	curves map[class]PowerLaw
	slack  float64
}

// predict prices cfg: the class curve when the class was measured,
// otherwise the nearest measured class (by associativity distance, then
// line-size distance in log space, deterministic tie toward the
// smaller), evaluated at cfg's capacity.
func (f fitted) predict(cfg area.CacheConfig) float64 {
	want := class{assoc: cfg.Assoc, line: cfg.LineWords}
	if law, ok := f.curves[want]; ok {
		return law.Eval(float64(cfg.CapacityBytes))
	}
	best, ok := f.nearest(want)
	if !ok {
		return 0
	}
	return f.curves[best].Eval(float64(cfg.CapacityBytes))
}

// nearest finds the measured class closest to want. Associativity
// distance dominates (a fully-associative class, Assoc 0, is treated as
// 16-way for distance purposes so it lands near the highest measured
// associativities), then line size; ties resolve toward the smaller
// class so the choice is deterministic.
func (f fitted) nearest(want class) (class, bool) {
	keys := make([]class, 0, len(f.curves))
	for c := range f.curves {
		keys = append(keys, c)
	}
	if len(keys) == 0 {
		return class{}, false
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].assoc != keys[j].assoc {
			return keys[i].assoc < keys[j].assoc
		}
		return keys[i].line < keys[j].line
	})
	rank := func(assoc int) float64 {
		if assoc == area.FullyAssociative {
			return math.Log2(16)
		}
		return math.Log2(float64(assoc))
	}
	dist := func(c class) (float64, float64) {
		return math.Abs(rank(c.assoc) - rank(want.assoc)),
			math.Abs(math.Log2(float64(c.line)) - math.Log2(float64(want.line)))
	}
	best := keys[0]
	ba, bl := dist(best)
	for _, c := range keys[1:] {
		da, dl := dist(c)
		if da < ba || (da == ba && dl < bl) {
			best, ba, bl = c, da, dl
		}
	}
	return best, true
}

// tlbFitted is the TLB analog: one power law per associativity class,
// fit across entry counts.
type tlbFitted struct {
	curves map[int]PowerLaw
	slack  float64
}

func (f tlbFitted) predict(cfg area.TLBConfig) float64 {
	if law, ok := f.curves[cfg.Assoc]; ok {
		return law.Eval(float64(cfg.Entries))
	}
	// Nearest measured associativity class, FullyAssociative ranked
	// above 8-way, ties toward the smaller class.
	keys := make([]int, 0, len(f.curves))
	for a := range f.curves {
		keys = append(keys, a)
	}
	if len(keys) == 0 {
		return 0
	}
	sort.Ints(keys)
	rank := func(a int) float64 {
		if a == area.FullyAssociative {
			return math.Log2(16)
		}
		return math.Log2(float64(a))
	}
	best, bd := keys[0], math.Abs(rank(keys[0])-rank(cfg.Assoc))
	for _, a := range keys[1:] {
		if d := math.Abs(rank(a) - rank(cfg.Assoc)); d < bd {
			best, bd = a, d
		}
	}
	return f.curves[best].Eval(float64(cfg.Entries))
}

// Extended is a search.PerfModel that answers exactly from the measured
// grid and from the fitted power-law families everywhere else.
type Extended struct {
	measured *search.Measured
	ic, dc   fitted
	tlb      tlbFitted
}

// FromMeasured fits the power-law families to a measured model built by
// the sweep harness and returns the extended model.
func FromMeasured(m *search.Measured) *Extended {
	e := &Extended{measured: m}
	e.ic = fitCacheFamily(m.IC)
	e.dc = fitCacheFamily(m.DC)
	e.tlb = fitTLBFamily(m.TLB)
	return e
}

// fitSorted fits one class's (x, y) points in ascending x order. The
// points arrive in map-iteration order, and Fit's floating-point sums
// depend on summation order, so without the sort the same measured
// model could fit -- and price off-grid configurations -- differently
// in the last digits from one run to the next. Within a class every x
// (capacity or entry count) is distinct, so the order is total.
func fitSorted(pts [][2]float64) PowerLaw {
	sort.Slice(pts, func(i, j int) bool { return pts[i][0] < pts[j][0] })
	xs := make([]float64, len(pts))
	ys := make([]float64, len(pts))
	for i, p := range pts {
		xs[i], ys[i] = p[0], p[1]
	}
	return Fit(xs, ys)
}

func fitCacheFamily(samples map[area.CacheConfig]float64) fitted {
	byClass := map[class][][2]float64{}
	for cfg, v := range samples {
		c := class{assoc: cfg.Assoc, line: cfg.LineWords}
		byClass[c] = append(byClass[c], [2]float64{float64(cfg.CapacityBytes), v})
	}
	f := fitted{curves: make(map[class]PowerLaw, len(byClass)), slack: 1}
	for c, pts := range byClass {
		f.curves[c] = fitSorted(pts)
	}
	// Admissibility slack over every measured point the family covers.
	for cfg, actual := range samples {
		pred := f.predict(cfg)
		if pred <= 0 {
			continue
		}
		if r := actual / pred; r < f.slack {
			f.slack = r
		}
	}
	return f
}

func fitTLBFamily(samples map[area.TLBConfig]float64) tlbFitted {
	byAssoc := map[int][][2]float64{}
	for cfg, v := range samples {
		byAssoc[cfg.Assoc] = append(byAssoc[cfg.Assoc], [2]float64{float64(cfg.Entries), v})
	}
	f := tlbFitted{curves: make(map[int]PowerLaw, len(byAssoc)), slack: 1}
	for a, pts := range byAssoc {
		f.curves[a] = fitSorted(pts)
	}
	for cfg, actual := range samples {
		pred := f.predict(cfg)
		if pred <= 0 {
			continue
		}
		if r := actual / pred; r < f.slack {
			f.slack = r
		}
	}
	return f
}

// ICacheCPI implements search.PerfModel: exact on the grid, fitted off
// it.
func (e *Extended) ICacheCPI(cfg area.CacheConfig) float64 {
	if v, ok := e.measured.IC[cfg]; ok {
		return v
	}
	return e.ic.predict(cfg)
}

// DCacheCPI implements search.PerfModel.
func (e *Extended) DCacheCPI(cfg area.CacheConfig) float64 {
	if v, ok := e.measured.DC[cfg]; ok {
		return v
	}
	return e.dc.predict(cfg)
}

// TLBCPI implements search.PerfModel.
func (e *Extended) TLBCPI(cfg area.TLBConfig) float64 {
	if v, ok := e.measured.TLB[cfg]; ok {
		return v
	}
	return e.tlb.predict(cfg)
}

// BaseCPI implements search.PerfModel.
func (e *Extended) BaseCPI() float64 { return e.measured.Base }

// Measured reports whether the configuration triple lies entirely on
// the simulated grid (every component carries an exact value rather
// than a fitted prediction). Report layers use it to flag modeled rows.
func (e *Extended) Measured(tlb area.TLBConfig, icache, dcache area.CacheConfig) bool {
	_, t := e.measured.TLB[tlb]
	_, i := e.measured.IC[icache]
	_, d := e.measured.DC[dcache]
	return t && i && d
}

// Bound returns the admissible optimistic companion model: every
// fitted prediction scaled by its family's slack (min actual/fitted
// over the measured grid), and every on-grid lookup answered exactly.
// For all measured configurations, Bound's value <= the exact value,
// which is what makes a bound-driven prune safe: a subtree whose
// optimistic CPI cannot beat the incumbent cannot contain a true
// winner.
func (e *Extended) Bound() search.PerfModel { return boundModel{e} }

// Slack reports the per-family admissibility factors (I-cache, D-cache,
// TLB): the minimum observed actual/fitted ratio each family scales its
// optimistic predictions by.
func (e *Extended) Slack() (ic, dc, tlb float64) { return e.ic.slack, e.dc.slack, e.tlb.slack }

type boundModel struct{ e *Extended }

func (b boundModel) ICacheCPI(cfg area.CacheConfig) float64 {
	if v, ok := b.e.measured.IC[cfg]; ok {
		return v
	}
	return b.e.ic.predict(cfg) * b.e.ic.slack
}

func (b boundModel) DCacheCPI(cfg area.CacheConfig) float64 {
	if v, ok := b.e.measured.DC[cfg]; ok {
		return v
	}
	return b.e.dc.predict(cfg) * b.e.dc.slack
}

func (b boundModel) TLBCPI(cfg area.TLBConfig) float64 {
	if v, ok := b.e.measured.TLB[cfg]; ok {
		return v
	}
	return b.e.tlb.predict(cfg) * b.e.tlb.slack
}

func (b boundModel) BaseCPI() float64 { return b.e.measured.Base }
