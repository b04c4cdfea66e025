package experiments

import (
	"fmt"
	"runtime"
	"strings"

	"onchip/internal/area"
	"onchip/internal/cache"
	"onchip/internal/osmodel"
	"onchip/internal/report"
	"onchip/internal/workload"
)

func init() {
	register("fig9", "Figure 9: I-cache miss ratio and CPI contribution vs size and line size (Ultrix and Mach)", figure9)
	register("fig10", "Figure 10: set-associative I-cache performance, 4-word lines (Ultrix and Mach)", figure10)
}

const defaultSweepRefs = 1_000_000

// sweepSuiteI sweeps the I-stream of the whole suite under the OS
// variant and returns aggregate miss ratios and CPI contributions per
// configuration.
func sweepSuiteI(v osmodel.Variant, configs []area.CacheConfig, refsEach int, opt Options) (ratio, cpi map[area.CacheConfig]float64, err error) {
	plan := sweepPlan{icache: configs}
	recs, err := sweepSuite(v, workload.All(), plan, refsEach, opt, runtime.NumCPU())
	if err != nil {
		return nil, nil, fmt.Errorf("%s sweep: %w", v, err)
	}
	tot := plan.sum(recs)
	ratio = make(map[area.CacheConfig]float64, len(configs))
	cpi = make(map[area.CacheConfig]float64, len(configs))
	for i, c := range configs {
		ratio[c] = float64(tot.iMiss[i]) / float64(tot.instrs)
		cpi[c] = float64(tot.iMiss[i]) * float64(cache.MissPenalty(c.LineWords)) / float64(tot.instrs)
	}
	return ratio, cpi, nil
}

// figure9 sweeps direct-mapped I-caches over size x line size for both
// operating systems, reporting miss ratio and CPI contribution.
func figure9(opt Options) (Result, error) {
	refs := opt.refs(defaultSweepRefs)
	sizes := []int{2 << 10, 4 << 10, 8 << 10, 16 << 10, 32 << 10, 64 << 10}
	lines := []int{1, 2, 4, 8, 16, 32}
	var configs []area.CacheConfig
	for _, size := range sizes {
		for _, l := range lines {
			configs = append(configs, area.CacheConfig{CapacityBytes: size, LineWords: l, Assoc: 1})
		}
	}

	var b strings.Builder
	notes := []string{
		"paper anchors: Ultrix 8-KB/4-word miss ratio ~0.028, 32-KB/4-word ~0.013; Mach 8-KB/4-word ~0.065 (>2x Ultrix)",
		"shape to check: under Mach, doubling line size beats doubling cache size, with no pollution through 32-word lines;",
		"under Ultrix large lines pollute small caches; CPI turns up at 16-word lines for the 6+1-per-word penalty",
	}
	for _, v := range []osmodel.Variant{osmodel.Ultrix, osmodel.Mach} {
		ratio, cpi, err := sweepSuiteI(v, configs, refs, opt)
		if err != nil {
			return Result{}, err
		}
		var rSeries, cSeries []report.Series
		for _, l := range lines {
			rs := report.Series{Label: fmt.Sprintf("%d-word line", l)}
			cs := report.Series{Label: fmt.Sprintf("%d-word line", l)}
			for _, size := range sizes {
				c := area.CacheConfig{CapacityBytes: size, LineWords: l, Assoc: 1}
				x := fmt.Sprintf("%dK", size>>10)
				rs.Points = append(rs.Points, report.Point{X: x, Y: ratio[c]})
				cs.Points = append(cs.Points, report.Point{X: x, Y: cpi[c]})
			}
			rSeries = append(rSeries, rs)
			cSeries = append(cSeries, cs)
		}
		b.WriteString(report.Chart(fmt.Sprintf("%s: I-cache miss ratio (direct-mapped)", v), "miss ratio", rSeries...))
		b.WriteString(report.Chart(fmt.Sprintf("%s: I-cache contribution to CPI", v), "CPI", cSeries...))
		b.WriteByte('\n')
	}
	return Result{Text: b.String(), Notes: notes}, nil
}

// figure10 sweeps associativity at a fixed 4-word line for both
// operating systems.
func figure10(opt Options) (Result, error) {
	refs := opt.refs(defaultSweepRefs)
	sizes := []int{4 << 10, 8 << 10, 16 << 10, 32 << 10}
	assocs := []int{1, 2, 4, 8}
	var configs []area.CacheConfig
	for _, size := range sizes {
		for _, a := range assocs {
			configs = append(configs, area.CacheConfig{CapacityBytes: size, LineWords: 4, Assoc: a})
		}
	}

	var b strings.Builder
	for _, v := range []osmodel.Variant{osmodel.Ultrix, osmodel.Mach} {
		ratio, cpi, err := sweepSuiteI(v, configs, refs, opt)
		if err != nil {
			return Result{}, err
		}
		var rSeries, cSeries []report.Series
		for _, a := range assocs {
			rs := report.Series{Label: fmt.Sprintf("%d-way", a)}
			cs := report.Series{Label: fmt.Sprintf("%d-way", a)}
			for _, size := range sizes {
				c := area.CacheConfig{CapacityBytes: size, LineWords: 4, Assoc: a}
				x := fmt.Sprintf("%dK", size>>10)
				rs.Points = append(rs.Points, report.Point{X: x, Y: ratio[c]})
				cs.Points = append(cs.Points, report.Point{X: x, Y: cpi[c]})
			}
			rSeries = append(rSeries, rs)
			cSeries = append(cSeries, cs)
		}
		b.WriteString(report.Chart(fmt.Sprintf("%s: I-cache miss ratio (4-word lines)", v), "miss ratio", rSeries...))
		b.WriteString(report.Chart(fmt.Sprintf("%s: I-cache contribution to CPI (4-word lines)", v), "CPI", cSeries...))
		b.WriteByte('\n')
	}
	return Result{
		Text: b.String(),
		Notes: []string{
			"paper: associativity benefits Mach over a broader range of configurations than Ultrix",
			"(Ultrix gains mainly on small caches going direct-mapped to 2-way); a Mach 4-KB 8-way cache still misses >0.03",
		},
	}, nil
}
