package experiments

// The paper's Section 6 names two extensions it did not pursue, and
// Section 4 describes OS restructuring trends it could not yet measure.
// These experiments implement them on top of the reproduction:
//
//   - ext-atime: add the Wada-style access-time model as a cycle-time
//     constraint on the Table 6 search ("an accurate access-time model
//     ... could be used to add another dimension to this style of
//     cost/benefit analysis").
//   - ext-ool: vary Mach's out-of-line transfer threshold ("avoiding
//     RPCs through more aggressive virtual memory sharing, however, is
//     likely to shift misses from the I-cache to the TLB", Section 4.3).
//   - ext-servers: decompose the monolithic BSD server into
//     small-granularity servers ("each of these restructuring trends
//     spreads-out system code and further increases instruction path
//     lengths", Section 4.1, after Black et al.).

import (
	"fmt"

	"onchip/internal/area"
	"onchip/internal/atime"
	"onchip/internal/machine"
	"onchip/internal/monitor"
	"onchip/internal/osmodel"
	"onchip/internal/report"
	"onchip/internal/search"
	"onchip/internal/workload"
)

func init() {
	register("ext-atime", "Extension: Table 6 search under Wada-style access-time (cycle-time) constraints", extATime)
	register("ext-ool", "Extension: out-of-line transfer threshold sweep (I-cache vs TLB miss shift, section 4.3)", extOOL)
	register("ext-servers", "Extension: small-granularity server decomposition (section 4.1 trend)", extServers)
}

// extATime reruns the budgeted search with progressively tighter cycle
// times. As the clock tightens, high associativity and large capacities
// become unbuildable and the optimizer retreats to smaller, lower-way
// structures -- the dimension the paper proposed adding.
func extATime(opt Options) (Result, error) {
	refs := opt.refs(defaultSweepRefs)
	space := search.Table5()
	model, err := buildMeasuredModel(osmodel.Mach, workload.All(), space, refs, opt)
	if err != nil {
		return Result{}, fmt.Errorf("model-building sweep: %w", err)
	}
	am := area.Default()
	tm := atime.Default()

	t := report.NewTable("Best allocation under 250,000 rbe and a cycle-time ceiling",
		"Cycle (ns)", "TLB", "I-cache", "D-cache", "Access (ns)", "CPI")
	for _, cycle := range []float64{0, 15, 12, 10} {
		var opts []search.Option
		if cycle > 0 {
			opts = append(opts, search.WithFilter(func(tlbCfg area.TLBConfig, ic, dc area.CacheConfig) bool {
				return tm.FitsCycle(cycle, tlbCfg, ic, dc)
			}))
		}
		best, err := search.Rank(space, am, area.BudgetRBE, model, 1, opts...)
		if err != nil {
			return Result{}, fmt.Errorf("search at %.0f ns: %w", cycle, err)
		}
		if len(best.Top) == 0 {
			t.Row(fmt.Sprintf("%.0f", cycle), "-", "-", "-", "-", "infeasible")
			continue
		}
		a := best.Top[0]
		worst := tm.CacheAccessNS(a.ICache)
		if d := tm.CacheAccessNS(a.DCache); d > worst {
			worst = d
		}
		if d := tm.TLBAccessNS(a.TLB); d > worst {
			worst = d
		}
		label := "none"
		if cycle > 0 {
			label = fmt.Sprintf("%.0f", cycle)
		}
		t.Row(label, a.TLB.String(), a.ICache.String(), a.DCache.String(),
			fmt.Sprintf("%.1f", worst), fmt.Sprintf("%.3f", a.CPI))
	}
	return Result{
		Text: t.String(),
		Notes: []string{
			"implements the paper's first proposed extension (section 6): a Wada-style access-time model",
			"constrains the search; tighter clocks push the optimum toward lower associativity and capacity",
		},
	}, nil
}

// extOOL measures mpeg_play and video_play under Mach with the
// out-of-line threshold at three settings: copies-only (threshold above
// every payload), the default 8 KB, and remap-everything (threshold 0).
func extOOL(opt Options) (Result, error) {
	refs := opt.refs(defaultStallRefs)
	t := report.NewTable("Mach out-of-line transfer threshold vs stall profile",
		"Workload", "OOL threshold", "CPI", "TLB CPI", "I-cache CPI", "D-cache CPI", "Instrs/call")
	type setting struct {
		name  string
		bytes int
	}
	settings := []setting{
		{"never (copy all)", 1 << 30},
		{"8 KB (default)", 8 * 1024},
		{"always (remap all)", 0},
	}
	var decl []monitor.RowSpec
	for _, spec := range []osmodel.WorkloadSpec{workload.MPEGPlay(), workload.VideoPlay()} {
		for _, st := range settings {
			decl = append(decl, monitor.Workload(osmodel.Mach, spec, refs, machine.DECstation3100(),
				func(sys *osmodel.System) { sys.SetOOLThreshold(st.bytes) }))
		}
	}
	rows, err := monitor.MeasureRows(opt.ctx(), decl, opt.Metrics, opt.Tracer)
	if err != nil {
		return Result{}, err
	}
	for i, row := range rows {
		b, gen := row.Breakdown, row.Gen
		t.Row(row.Workload, settings[i%len(settings)].name, fmt.Sprintf("%.2f", b.CPI),
			fmt.Sprintf("%.3f", b.Comp[machine.CompTLB]),
			fmt.Sprintf("%.3f", b.Comp[machine.CompICache]),
			fmt.Sprintf("%.3f", b.Comp[machine.CompDCache]),
			fmt.Sprintf("%.0f", float64(gen.Instrs)/float64(gen.Calls)))
	}
	// video_play's rows are the last len(settings).
	first, last := rows[len(rows)-len(settings)].Breakdown.Comp, rows[len(rows)-1].Breakdown.Comp
	return Result{
		Text: t.String(),
		Notes: []string{
			fmt.Sprintf("video_play, copy-all -> remap-all: TLB CPI %.3f -> %.3f (the section 4.3 shift toward the TLB)",
				first[machine.CompTLB], last[machine.CompTLB]),
			fmt.Sprintf("per-instruction I-cache CPI also moves (%.3f -> %.3f) because remapping removes the copies'",
				first[machine.CompICache], last[machine.CompICache]),
			"cheap cache-resident loop instructions from the stream; each remaining instruction carries more misses",
		},
	}, nil
}

// extServers compares the monolithic BSD server against the
// decomposed-server restructuring on the syscall-heavy workloads.
func extServers(opt Options) (Result, error) {
	refs := opt.refs(defaultStallRefs)
	t := report.NewTable("Monolithic vs small-granularity servers (Mach)",
		"Workload", "Servers", "CPI", "TLB CPI", "I-cache CPI")
	labels := []string{"monolithic", "decomposed"}
	var decl []monitor.RowSpec
	for _, spec := range []osmodel.WorkloadSpec{workload.MAB(), workload.Ousterhout()} {
		decl = append(decl,
			monitor.Workload(osmodel.Mach, spec, refs, machine.DECstation3100()),
			monitor.Workload(osmodel.Mach, spec, refs, machine.DECstation3100(), (*osmodel.System).EnableDecomposedServers))
	}
	rows, err := monitor.MeasureRows(opt.ctx(), decl, opt.Metrics, opt.Tracer)
	if err != nil {
		return Result{}, err
	}
	for i, row := range rows {
		b := row.Breakdown
		t.Row(row.Workload, labels[i%len(labels)], fmt.Sprintf("%.2f", b.CPI),
			fmt.Sprintf("%.3f", b.Comp[machine.CompTLB]),
			fmt.Sprintf("%.3f", b.Comp[machine.CompICache]))
	}
	return Result{
		Text: t.String(),
		Notes: []string{
			"section 4.1 (after Black et al.): decomposing servers spreads system code across more",
			"address spaces, lengthening paths and raising TLB and I-cache pressure further",
		},
	}, nil
}
