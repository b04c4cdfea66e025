package experiments

import (
	"fmt"

	"onchip/internal/area"
	"onchip/internal/cache"
	"onchip/internal/machine"
	"onchip/internal/monitor"
	"onchip/internal/osmodel"
	"onchip/internal/report"
	"onchip/internal/workload"
)

func init() {
	register("ext-unified", "Extension: split vs unified caches at equal capacity (the Table 1 design split)", extUnified)
}

// extUnified compares the two cache styles of the paper's Table 1 survey
// -- split I/D (MIPS, Alpha, Pentium) versus unified (i486, PowerPC 601)
// -- at equal total capacity and cost, under both operating systems.
func extUnified(opt Options) (Result, error) {
	refs := opt.refs(defaultStallRefs)
	am := area.Default()
	split := area.CacheConfig{CapacityBytes: 8 << 10, LineWords: 4, Assoc: 2}
	unified := area.CacheConfig{CapacityBytes: 16 << 10, LineWords: 4, Assoc: 2}

	t := report.NewTable("Split 8+8 KB vs unified 16 KB (4-word lines, 2-way), mpeg_play",
		"OS", "Organization", "CPI", "I-cache CPI", "D-cache CPI", "Area (rbe)")
	splitCfg, uniCfg := machine.DECstation3100(), machine.DECstation3100()
	splitCfg.ICache = cache.Config{CacheConfig: split}
	splitCfg.DCache = cache.Config{CacheConfig: split}
	uniCfg.ICache = cache.Config{CacheConfig: unified}
	uniCfg.Unified = true
	spec := workload.MPEGPlay()
	var decl []monitor.RowSpec
	for _, v := range []osmodel.Variant{osmodel.Ultrix, osmodel.Mach} {
		decl = append(decl, monitor.Workload(v, spec, refs, splitCfg), monitor.Workload(v, spec, refs, uniCfg))
	}
	rows, err := monitor.MeasureRows(opt.ctx(), decl, opt.Metrics, opt.Tracer)
	if err != nil {
		return Result{}, err
	}
	for i, row := range rows {
		label, areaRBE := "split 8+8", 2*am.CacheArea(split)
		if i%2 == 1 {
			label, areaRBE = "unified 16", am.CacheArea(unified)
		}
		b := row.Breakdown
		t.Row(row.OS, label, fmt.Sprintf("%.2f", b.CPI),
			fmt.Sprintf("%.3f", b.Comp[machine.CompICache]),
			fmt.Sprintf("%.3f", b.Comp[machine.CompDCache]),
			fmt.Sprintf("%.0f", areaRBE))
	}
	return Result{
		Text: t.String(),
		Notes: []string{
			"the unified array is slightly cheaper (one tag array) and adapts its I/D split to the",
			"workload, but instruction and data streams displace each other; Table 1 shows 1992-93",
			"designs took both positions -- this experiment lets the workload decide",
		},
	}, nil
}
