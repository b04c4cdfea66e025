package experiments

import (
	"fmt"
	"strings"

	"onchip/internal/machine"
	"onchip/internal/monitor"
	"onchip/internal/osmodel"
	"onchip/internal/report"
	"onchip/internal/workload"
)

func init() {
	register("table3", "Table 3: effect of the operating system on CPU stall behavior (mpeg_play)", table3)
	register("table4", "Table 4: CPI stall components for all workloads under Ultrix and Mach", table4)
	register("fig3", "Figure 3: components of CPI above 1.0 (chart form of Table 4)", figure3)
	register("paths", "Section 4.1: service invocation path lengths under Ultrix and Mach", paths)
}

const defaultStallRefs = 2_000_000

func breakdownRow(t *report.Table, name, os string, b machine.Breakdown) {
	cpi := func(c machine.Component) string {
		return fmt.Sprintf("%.2f (%.0f%%)", b.Comp[c], b.Pct(c))
	}
	t.Row(name, os, fmt.Sprintf("%.2f", b.CPI),
		cpi(machine.CompTLB), cpi(machine.CompICache), cpi(machine.CompDCache),
		cpi(machine.CompWB), cpi(machine.CompOther))
}

// table3 reproduces the three measurement conditions for mpeg_play: a
// user-only (pixie-style) simulation, then Monster-style monitoring
// under Ultrix and under Mach, all on DECstation 3100 memory parameters.
func table3(opt Options) (Result, error) {
	refs := opt.refs(defaultStallRefs)
	spec := workload.MPEGPlay()
	rows, err := monitor.MeasureRows(opt.ctx(), monitor.Conditions(spec, refs, machine.DECstation3100()), opt.Metrics, opt.Tracer)
	if err != nil {
		return Result{}, err
	}

	t := report.NewTable("CPU stall components, mpeg_play on DECstation 3100 parameters",
		"Workload", "OS", "CPI", "TLB", "I-cache", "D-cache", "WriteBuf", "Other")
	for _, row := range rows {
		breakdownRow(t, row.Workload, row.OS, row.Breakdown)
		opt.progressf("measure: %s/%s done (CPI %.2f)", row.Workload, row.OS, row.Breakdown.CPI)
	}
	mach := rows[2]

	return Result{
		Text: t.String(),
		Notes: []string{
			"paper: CPI 1.43 (None) / 1.66 (Ultrix) / 2.06 (Mach); user-only simulation misattributes stalls",
			fmt.Sprintf("Mach time split: task %.0f%%, kernel %.0f%%, BSD server %.0f%%, X server %.0f%% (paper: 40/25/30/5)",
				mach.Gen.AppPct(), mach.Gen.KernelPct(), mach.Gen.BSDPct(), mach.Gen.XPct()),
		},
	}, nil
}

// table4 runs the whole suite under both operating systems.
func table4(opt Options) (Result, error) {
	refs := opt.refs(defaultStallRefs)
	t := report.NewTable("CPI stall components for all workloads (DECstation 3100 parameters)",
		"Workload", "OS", "CPI", "TLB", "I-cache", "D-cache", "WriteBuf", "Other")
	for _, v := range []osmodel.Variant{osmodel.Ultrix, osmodel.Mach} {
		rows, err := monitor.MeasureRows(opt.ctx(), monitor.Suite(v, workload.All(), refs, machine.DECstation3100()), opt.Metrics, opt.Tracer)
		if err != nil {
			return Result{}, err
		}
		for _, row := range append(rows, monitor.Average(rows)) {
			breakdownRow(t, row.Workload, v.String(), row.Breakdown)
			opt.progressf("measure: %s/%s done (CPI %.2f)", row.Workload, v, row.Breakdown.CPI)
		}
	}
	return Result{
		Text: t.String(),
		Notes: []string{
			"paper averages: Ultrix CPI 1.94 (TLB 2%, I$ 15%, D$ 55%, WB 19%), Mach CPI 2.12 (TLB 14%, I$ 32%, D$ 28%, WB 21%)",
			"the shape to check: Mach raises CPI everywhere and shifts stalls from the D-cache to the TLB and I-cache",
		},
	}, nil
}

// figure3 is Table 4 rendered as stacked components.
func figure3(opt Options) (Result, error) {
	refs := opt.refs(defaultStallRefs)
	var b strings.Builder
	for _, v := range []osmodel.Variant{osmodel.Ultrix, osmodel.Mach} {
		var series []report.Series
		for c := machine.CompTLB; c <= machine.CompOther; c++ {
			series = append(series, report.Series{Label: c.String()})
		}
		rows, err := monitor.MeasureRows(opt.ctx(), monitor.Suite(v, workload.All(), refs, machine.DECstation3100()), opt.Metrics, opt.Tracer)
		if err != nil {
			return Result{}, err
		}
		rows = append(rows, monitor.Average(rows))
		opt.progressf("measure: %s suite done (%d rows)", v, len(rows))
		for _, row := range rows {
			for c := machine.CompTLB; c <= machine.CompOther; c++ {
				series[c].Points = append(series[c].Points, report.Point{
					X: row.Workload, Y: row.Breakdown.Comp[c],
				})
			}
		}
		b.WriteString(report.Chart(fmt.Sprintf("Components of CPI above 1.0 under %s", v), "CPI", series...))
		b.WriteByte('\n')
	}
	return Result{Text: b.String()}, nil
}

// paths reports the modeled service-invocation path lengths, the
// Section 4.1 numbers that explain the I-cache results.
func paths(Options) (Result, error) {
	t := report.NewTable("Service invocation path lengths (instructions, excluding the service body)",
		"OS", "Call path", "Return path", "Code touched")
	t.Row("Ultrix", osmodel.UltrixInvocationInstrs/2+5, osmodel.UltrixInvocationInstrs/2-5,
		fmt.Sprintf("~%d bytes", osmodel.UltrixInvocationInstrs*4))
	t.Row("Mach", osmodel.MachCallPathInstrs, osmodel.MachReturnPathInstrs,
		fmt.Sprintf("~%d KB call + ~%d KB return", osmodel.MachCallPathInstrs*4/1024, osmodel.MachReturnPathInstrs*4/1024))
	return Result{
		Text: t.String(),
		Notes: []string{
			"paper: Ultrix round trip < 100 instructions; Mach call ~1000, return ~850 (~4 KB + ~3 KB of instruction memory)",
			"a single Mach system call overruns a 4-KB on-chip I-cache on the way to the BSD server",
		},
	}, nil
}
